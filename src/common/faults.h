// Deterministic fault injection: named fault points + seeded fault plans.
//
// Failure is a first-class, testable input to the pipeline (the paper's
// trust model is threshold — a minority of authorities may crash, stall or
// lie — and the ledger must survive torn writes). Production code declares
// *fault points*: named sites (`faults::kAuthorityComputeShare`,
// `faults::kLedgerAppend`, ...) that probe the process-wide FaultInjector.
// A test arms a FaultPlan — a seeded, deterministic schedule of
// crash / timeout / corrupt-output / delayed-response injections — and the
// probed sites misbehave exactly as scheduled.
//
// Design constraints, in order:
//  1. *Zero cost when disarmed.* The probe is one relaxed atomic load of a
//     process-wide flag; no plan, no hashing, no locks. The points are
//     compiled in always (release builds drill the same code tests do).
//  2. *Determinism at any thread count.* A decision is a pure function
//     PRF(plan seed, point, scope, key) of stable identifiers — the acting
//     entity (`scope`: authority index, segment number) and the operation
//     instance (`key`: ciphertext index, attempt counter, entry index) —
//     never of wall-clock time, scheduling or global call order. The same
//     plan over the same data yields the same faults whether the tally runs
//     on 1 thread or 64, which is what lets the fault-soak suite assert
//     byte-identical degraded transcripts across thread counts (composing
//     with the ForkRngSeeds reproducibility contract; a plan never touches
//     any protocol Rng stream).
//  3. *Localized blame.* Every injected fault is observable: sites translate
//     decisions into coded Status values naming the point, or throw
//     InjectedCrash for process-death simulations; the injector counts
//     injections per point for tests.
//
// See docs/ROBUSTNESS.md for the fault-point catalog and degradation rules.
#ifndef SRC_COMMON_FAULTS_H_
#define SRC_COMMON_FAULTS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/status.h"

namespace votegral {

// Thrown by fault points whose injected failure models process death (torn
// ledger writes, partial seals). Deliberately NOT a ProtocolError: a drill
// harness catches exactly this type, "reboots", and resumes off recovered
// state; real invariant violations still propagate.
class InjectedCrash : public std::runtime_error {
 public:
  explicit InjectedCrash(const std::string& what) : std::runtime_error(what) {}
};

// What a fault point injects.
enum class FaultKind : uint8_t {
  kNone = 0,
  kCrash,    // the site dies: authority permanently down / torn write + throw
  kTimeout,  // the request consumes its full per-attempt budget and fails
  kCorrupt,  // the site responds, but its output is tampered
  kDelay,    // the response arrives late (consumes simulated deadline budget)
};

// The catalog of named fault points. A point name is part of the observable
// blame surface ("authority 3: crash injected at authority.compute_share"),
// so names are stable identifiers, listed in docs/ROBUSTNESS.md.
namespace faults {
inline constexpr std::string_view kAuthorityComputeShare = "authority.compute_share";
inline constexpr std::string_view kLedgerAppend = "ledger.append";
inline constexpr std::string_view kLedgerSeal = "ledger.seal";
inline constexpr std::string_view kMixShuffle = "mix.shuffle";
inline constexpr std::string_view kTagApply = "tag.apply";
// Supersession dedup (src/votegral/revote.cpp and the legacy dedup stage):
// scope 0, probed once per tally run before the grouping/padding kernel.
inline constexpr std::string_view kTallyDedup = "tally.dedup";
// Replication transport + apply path (src/net, src/replica). net.*: scope =
// the probing endpoint's id, key = the per-endpoint message sequence number.
// replica.apply: scope = the entry's segment, key = the entry index (the
// kLedgerAppend convention, so crash rules land mid-sync on PRF-chosen
// segments).
inline constexpr std::string_view kNetSend = "net.send";
inline constexpr std::string_view kNetRecv = "net.recv";
inline constexpr std::string_view kReplicaApply = "replica.apply";
}  // namespace faults

// Every registered fault point name (the docs/tests cross-check this list).
std::span<const std::string_view> RegisteredFaultPoints();

// The outcome of probing a fault point.
struct FaultDecision {
  FaultKind kind = FaultKind::kNone;
  uint64_t delay_ms = 0;  // meaningful for kDelay

  bool none() const { return kind == FaultKind::kNone; }
};

// Matches any scope (rule applies to every acting entity at the point).
inline constexpr uint64_t kAnyScope = ~uint64_t{0};

// One scheduled misbehavior: at `point`, entities matching `scope` fail with
// `kind` at rate `rate` per probed (scope, key) pair. rate = 1.0 pins a
// deterministic always-fault (the acceptance drills use this to take down
// exactly n-t named authorities).
struct FaultRule {
  std::string point;
  FaultKind kind = FaultKind::kCrash;
  double rate = 0.0;
  uint64_t scope = kAnyScope;
  // kDelay: injected latency. Sampled deterministically in
  // [delay_ms_min, delay_ms_max] from the decision PRF.
  uint64_t delay_ms_min = 0;
  uint64_t delay_ms_max = 0;
};

// A deterministic, seeded schedule of fault injections for one run.
//
// Decision semantics:
//  * kCrash is evaluated on (point, scope) only — a crashed entity is down
//    for the whole run, regardless of which operation observes it first, so
//    no cross-thread ordering can leak into the schedule.
//  * kTimeout / kCorrupt / kDelay are evaluated per (point, scope, key) —
//    independent per operation instance (and per retry attempt when the
//    caller folds the attempt counter into `key`), so a timed-out request
//    can succeed on retry.
// The first matching rule in insertion order wins.
class FaultPlan {
 public:
  FaultPlan() = default;
  explicit FaultPlan(uint64_t seed) : seed_(seed) {}

  uint64_t seed() const { return seed_; }
  bool empty() const { return rules_.empty(); }

  FaultPlan& Add(FaultRule rule);

  // Convenience builders (chainable).
  FaultPlan& Crash(std::string_view point, double rate, uint64_t scope = kAnyScope);
  FaultPlan& Timeout(std::string_view point, double rate, uint64_t scope = kAnyScope);
  FaultPlan& Corrupt(std::string_view point, double rate, uint64_t scope = kAnyScope);
  FaultPlan& Delay(std::string_view point, double rate, uint64_t delay_ms_min,
                   uint64_t delay_ms_max, uint64_t scope = kAnyScope);

  // Pure decision function (thread-safe, no state).
  FaultDecision Decide(std::string_view point, uint64_t scope, uint64_t key) const;

 private:
  uint64_t seed_ = 0;
  std::vector<FaultRule> rules_;
};

// Process-wide injector. Disarmed by default; tests arm a plan for the
// duration of one run (ArmedFaults below is the RAII form).
class FaultInjector {
 public:
  static FaultInjector& Instance();

  // True when a plan is armed. One relaxed atomic load: the only cost a
  // fault point pays in a normal (no-plan) run.
  static bool Armed() { return armed_.load(std::memory_order_acquire); }

  void Arm(FaultPlan plan);
  void Disarm();

  // Probes with a plan known to be armed (call through ProbeFaultPoint).
  FaultDecision ProbeArmed(std::string_view point, uint64_t scope, uint64_t key);

  // Number of non-kNone decisions handed out at `point` since Arm().
  uint64_t InjectionCount(std::string_view point) const;
  // Total across all points.
  uint64_t TotalInjections() const;

 private:
  FaultInjector() = default;

  static std::atomic<bool> armed_;

  FaultPlan plan_;
  // Per-point injection counters, fixed at Arm() time (one slot per
  // registered point), so concurrent probes never mutate the map shape.
  std::map<std::string, std::array<std::atomic<uint64_t>, 5>, std::less<>> counters_;
};

// The probe every fault point calls. Zero-cost when disarmed.
inline FaultDecision ProbeFaultPoint(std::string_view point, uint64_t scope,
                                     uint64_t key) {
  if (!FaultInjector::Armed()) {
    return {};
  }
  return FaultInjector::Instance().ProbeArmed(point, scope, key);
}

// RAII arming for tests: arms `plan` on construction, disarms on scope exit
// (including when an InjectedCrash unwinds through the drill).
class ArmedFaults {
 public:
  explicit ArmedFaults(FaultPlan plan) { FaultInjector::Instance().Arm(std::move(plan)); }
  ~ArmedFaults() { FaultInjector::Instance().Disarm(); }

  ArmedFaults(const ArmedFaults&) = delete;
  ArmedFaults& operator=(const ArmedFaults&) = delete;
};

}  // namespace votegral

#endif  // SRC_COMMON_FAULTS_H_
