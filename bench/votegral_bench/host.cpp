#include "bench/votegral_bench/host.h"

#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <fstream>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>

#include "src/common/clock.h"

namespace votegral::bench {

namespace {

// The reference loop spends about a third of its time in four independent
// chains of 64x64->128-bit multiplies, the operation field arithmetic is
// built from, and two thirds reading a 512 KiB buffer, which stays in a
// core's L2 cache, a cache line at a time. Other tenants slow the two
// parts differently, and the program needs both. The empty asm keeps
// every step in the loop.
double ReferenceOnceNs() {
  constexpr uint32_t kMultiplies = 10500;
  constexpr int kPasses = 12;
  constexpr uint64_t kMul = 0x9E3779B97F4A7C15ull;
  static const std::vector<uint64_t> buffer((512 << 10) / sizeof(uint64_t), 1);
  uint64_t chains[4] = {1, 2, 3, 4};
  WallTimer timer;
  for (uint32_t i = 0; i < kMultiplies; ++i) {
    for (uint64_t& x : chains) {
      const unsigned __int128 product = static_cast<unsigned __int128>(x) * kMul;
      x = static_cast<uint64_t>(product) ^ static_cast<uint64_t>(product >> 64) ^ i;
      asm volatile("" : "+r"(x));
    }
  }
  uint64_t sum = 0;
  for (int pass = 0; pass < kPasses; ++pass) {
    for (size_t i = 0; i < buffer.size(); i += 8) {
      sum += buffer[i];
      asm volatile("" : "+r"(sum));
    }
  }
  return timer.Seconds() * 1e9;
}

// The stolen share of `wall_s` on the CPU that lost the most since `before`.
double StolenShare(const std::vector<double>& before, double wall_s) {
  const std::vector<double> after = StealSeconds();
  double most = 0.0;
  for (size_t i = 0; i < std::min(before.size(), after.size()); ++i) {
    most = std::max(most, after[i] - before[i]);
  }
  return wall_s > 0 ? most / wall_s : 0.0;
}

bool PinTo(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return ::sched_setaffinity(0, sizeof(set), &set) == 0;
}

}  // namespace

std::vector<double> StealSeconds() {
  std::vector<double> steal;
  std::ifstream stat("/proc/stat");
  const double tick_s = 1.0 / static_cast<double>(::sysconf(_SC_CLK_TCK));
  for (std::string line; std::getline(stat, line);) {
    // "cpuN user nice system idle iowait irq softirq steal ..."
    if (line.size() < 4 || line.compare(0, 3, "cpu") != 0 || !std::isdigit(static_cast<unsigned char>(line[3]))) {
      continue;
    }
    std::istringstream fields(line);
    std::string name;
    double value = 0.0;
    fields >> name;
    for (int column = 0; column < 8 && fields >> value; ++column) {
    }
    steal.push_back(fields ? value * tick_s : 0.0);
  }
  return steal;
}

double ReferenceNs() {
  double best = ReferenceOnceNs();
  for (int r = 1; r < 3; ++r) {
    best = std::min(best, ReferenceOnceNs());
  }
  return best;
}

CoreRotation& CoreRotation::Get() {
  static CoreRotation rotation;
  return rotation;
}

CoreRotation::CoreRotation() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &set)) {
        cpus_.push_back(cpu);
      }
    }
  }
}

void CoreRotation::Pin(size_t window) {
  const int index = cpus_.empty() ? 0 : static_cast<int>(window % cpus_.size());
  if (index == pinned_) {
    return;
  }
  if (cpus_.size() > 1 && !PinTo(cpus_[static_cast<size_t>(index)])) {
    return;
  }
  pinned_ = index;
  if (companion_) {
    PinThread(*companion_, pinned_);
  }
  Remeasure();
}

void CoreRotation::Release() {
  if (pinned_ < 0) {
    return;
  }
  PinThread(::pthread_self(), -1);
  pinned_ = -1;
  if (companion_) {
    PinThread(*companion_, -1);
  }
}

void CoreRotation::Attach(pthread_t thread) {
  companion_ = thread;
  PinThread(thread, pinned_);
}

void CoreRotation::Detach() {
  if (companion_) {
    PinThread(*companion_, -1);
  }
  companion_.reset();
}

void CoreRotation::PinThread(pthread_t thread, int index) const {
  if (cpus_.size() <= 1) {
    return;
  }
  cpu_set_t set;
  CPU_ZERO(&set);
  if (index < 0) {
    for (int cpu : cpus_) {
      CPU_SET(cpu, &set);
    }
  } else {
    CPU_SET(cpus_[static_cast<size_t>(index)], &set);
  }
  ::pthread_setaffinity_np(thread, sizeof(set), &set);
}

double CoreRotation::Remeasure() {
  factor_ = kReferenceNs / ReferenceNs();
  return factor_;
}

double CoreRotation::CoreFactorOn(size_t k) const {
  if (cpus_.size() > 1) {
    PinTo(cpus_[k % cpus_.size()]);
  }
  return kReferenceNs / ReferenceNs();
}

std::vector<double> CoreRotation::CoreFactors() const {
  std::vector<double> factors(std::max<size_t>(1, cpus_.size()));
  std::atomic<size_t> ready{0};
  std::vector<std::thread> threads;
  for (size_t i = 0; i < factors.size(); ++i) {
    threads.emplace_back([&, i] {
      // Start together, so every core is read under the same load.
      ready.fetch_add(1);
      while (ready.load() < factors.size()) {
      }
      factors[i] = CoreFactorOn(i);
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  return factors;
}

namespace {

// Times `step` while a sampler thread reads a core's speed factor every
// 50 ms, core `core(k)` for the k-th reading: a step of seconds outlasts a
// core's slow spell. The step's factor is the mean of `factors` (read
// before it) and every reading during and after it (`after`).
TimedStep TimeSampled(const std::function<void()>& step, const std::function<size_t(size_t)>& core,
                      std::vector<double> factors,
                      const std::function<std::vector<double>()>& after) {
  const CoreRotation& cores = CoreRotation::Get();
  std::mutex mutex;
  std::condition_variable wake;
  bool done = false;
  std::thread sampler([&] {
    std::unique_lock<std::mutex> lock(mutex);
    for (size_t k = 0; !wake.wait_for(lock, std::chrono::milliseconds(50), [&] { return done; });
         ++k) {
      lock.unlock();
      const double factor = cores.CoreFactorOn(core(k));
      lock.lock();
      factors.push_back(factor);
    }
  });
  const std::vector<double> steal = StealSeconds();
  WallTimer wall;
  CpuTimer cpu;
  step();
  TimedStep timed{wall.Seconds(), cpu.Elapsed().Total(), 0.0, 0.0};
  timed.stolen = StolenShare(steal, timed.wall_s);
  {
    std::lock_guard<std::mutex> lock(mutex);
    done = true;
  }
  wake.notify_one();
  sampler.join();
  for (double factor : after()) {
    factors.push_back(factor);
  }
  double sum = 0.0;
  for (double factor : factors) {
    sum += factor;
  }
  timed.factor = sum / static_cast<double>(factors.size());
  return timed;
}

}  // namespace

TimedStep TimeOnCore(const std::function<void()>& step) {
  CoreRotation& cores = CoreRotation::Get();
  const int pinned = cores.pinned();
  return TimeSampled(
      step, [pinned](size_t k) { return pinned < 0 ? k : static_cast<size_t>(pinned); },
      {cores.Remeasure()}, [&cores] { return std::vector<double>{cores.Remeasure()}; });
}

TimedStep TimeOnAllCores(const std::function<void()>& step) {
  CoreRotation& cores = CoreRotation::Get();
  cores.Release();
  return TimeSampled(
      step, [](size_t k) { return k; }, cores.CoreFactors(),
      [&cores] { return cores.CoreFactors(); });
}

}  // namespace votegral::bench
