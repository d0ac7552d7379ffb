// Timing utilities for the benchmark harnesses.
//
// Three distinct notions of time appear in the evaluation (paper §7):
//  * wall-clock time of real computation (WallTimer),
//  * CPU time of real computation, split user/system (CpuTimer),
//  * *simulated* time of mechanical peripherals — printing and scanning QR
//    codes on kiosk hardware we do not have (VirtualClock; see
//    src/peripherals/devices.h for the substitution rationale).
#ifndef SRC_COMMON_CLOCK_H_
#define SRC_COMMON_CLOCK_H_

#include <chrono>
#include <cstdint>

namespace votegral {

// Measures elapsed wall-clock time in seconds.
class WallTimer {
 public:
  WallTimer() : start_(std::chrono::steady_clock::now()) {}

  void Reset() { start_ = std::chrono::steady_clock::now(); }

  // Seconds since construction or last Reset().
  double Seconds() const {
    auto now = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(now - start_).count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

// Process CPU time split into user and system components (getrusage).
struct CpuSample {
  double user_seconds = 0.0;
  double system_seconds = 0.0;

  double Total() const { return user_seconds + system_seconds; }

  CpuSample operator-(const CpuSample& other) const {
    return {user_seconds - other.user_seconds, system_seconds - other.system_seconds};
  }
};

// Measures CPU time consumed by the current process.
class CpuTimer {
 public:
  CpuTimer() : start_(Now()) {}

  void Reset() { start_ = Now(); }

  // CPU seconds (user+system breakdown) since construction or Reset().
  CpuSample Elapsed() const { return Now() - start_; }

  // Reads the current process CPU usage.
  static CpuSample Now();

 private:
  CpuSample start_;
};

// Deterministic simulated clock for peripheral latency models. Components
// that model mechanical hardware (receipt printer feed, Bluetooth QR scanner
// transfer) advance this clock instead of sleeping, so a full simulated
// registration session runs in microseconds of real time while reporting
// seconds of modeled voter-observable latency.
class VirtualClock {
 public:
  // Advances simulated time; negative durations are a programming error.
  void Advance(double seconds);

  // Total simulated seconds elapsed.
  double Seconds() const { return seconds_; }

  void Reset() { seconds_ = 0.0; }

 private:
  double seconds_ = 0.0;
};

}  // namespace votegral

#endif  // SRC_COMMON_CLOCK_H_
