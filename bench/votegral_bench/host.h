// Host-speed calibration for votegral_bench (README.md, "Reference speed").
//
// Other tenants of a shared host slow its cores: one core at a time for a
// fraction of a second to seconds, and every core at once for minutes. No
// estimator over one run's wall times can see past a slowdown that covers
// the whole run, so every time in the result is taken at reference speed:
// its wall time multiplied by the speed factor of the cores it ran on,
// measured right then. A core's speed factor is kReferenceNs over the time
// a fixed reference loop takes on it: about 1 on a quiet core of the
// development host, below 1 on a slowed one. The loop is the benchmark's
// own code, so a change to the program moves only the wall times.
//
// To know which core a client step ran on, the client thread is pinned:
// each window of samples runs on one CPU, the next window on the next CPU
// (CoreRotation). Steps that fan out over several threads run unpinned and
// take the mean factor of every core, read before, during and after them.
//
// The hypervisor also takes cores away outright (steal time). A step that
// fans out over every core then waits for the part stuck on the missing
// core, so its wall time can double while its CPU time stays the same; the
// result leaves such steps out where enough others lost less
// (TimedStep::stolen, Samples::AtReference).
#ifndef BENCH_VOTEGRAL_BENCH_HOST_H_
#define BENCH_VOTEGRAL_BENCH_HOST_H_

#include <pthread.h>

#include <functional>
#include <optional>
#include <vector>

namespace votegral::bench {

// The reference loop's time on a quiet core of the development host.
inline constexpr double kReferenceNs = 65000.0;

// The reference loop's time on the calling thread's core, in ns: the
// fastest of three readings, so a preemption does not count as slowness.
double ReferenceNs();

class CoreRotation {
 public:
  // The process-wide rotation over the CPUs the process may run on.
  static CoreRotation& Get();

  // Pins the calling thread to CPU number `window` modulo the CPU count,
  // and measures that core's speed factor when the CPU changes.
  void Pin(size_t window);
  // Lets the calling thread run on every CPU again.
  void Release();
  // Moves `thread` with the client: pinned to the client's CPU while the
  // client is pinned, free otherwise, until Detach. One at a time.
  void Attach(pthread_t thread);
  void Detach();
  // The pinned core's speed factor as last measured; 0 when not pinned.
  double factor() const { return pinned_ < 0 ? 0.0 : factor_; }
  // The index of the pinned CPU among the process's CPUs; -1 when not
  // pinned.
  int pinned() const { return pinned_; }
  // Measures the pinned core's speed factor again and returns it.
  double Remeasure();
  // Pins the calling thread to CPU number `k` modulo the CPU count and
  // measures that core's speed factor.
  double CoreFactorOn(size_t k) const;
  // Every core's speed factor, measured at the same time by one thread per
  // CPU.
  std::vector<double> CoreFactors() const;

 private:
  CoreRotation();
  // Pins `thread` to cpus_[index], or to every CPU for index -1.
  void PinThread(pthread_t thread, int index) const;
  std::vector<int> cpus_;
  int pinned_ = -1;  // index into cpus_; -1 when not pinned
  double factor_ = 0.0;
  std::optional<pthread_t> companion_;
};

// Releases the client's pin at the end of a scope: no thread that set-up
// or a parallel step starts may inherit it.
struct Unpinned {
  Unpinned() = default;
  Unpinned(const Unpinned&) = delete;
  Unpinned& operator=(const Unpinned&) = delete;
  ~Unpinned() { CoreRotation::Get().Release(); }
};

// Attaches a thread to the client (CoreRotation::Attach) for a scope.
struct Companion {
  explicit Companion(pthread_t thread) { CoreRotation::Get().Attach(thread); }
  Companion(const Companion&) = delete;
  Companion& operator=(const Companion&) = delete;
  ~Companion() { CoreRotation::Get().Detach(); }
};

// Per CPU, the seconds since boot the hypervisor kept it from running
// while it had work: the steal column of /proc/stat. Empty where the host
// does not report it.
std::vector<double> StealSeconds();

// One step's wall and CPU seconds and the speed factor to take them at.
struct TimedStep {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double factor = 0.0;
  // The largest share of the step's wall time stolen from any one CPU.
  double stolen = 0.0;
};
// Times `step` on the client's pinned core, at the mean of the core's
// factor read before, every 50 ms during, and after it. The readings
// during it take the core from the step for about 0.2 ms each.
TimedStep TimeOnCore(const std::function<void()>& step);
// Times `step` unpinned, for steps that fan out over several threads, at
// the mean factor of every core read before and after it, and of one core
// after another every 50 ms during it.
TimedStep TimeOnAllCores(const std::function<void()>& step);

}  // namespace votegral::bench

#endif  // BENCH_VOTEGRAL_BENCH_HOST_H_
