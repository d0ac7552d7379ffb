#include "src/common/faults.h"

#include <cmath>
#include <cstring>

#include "src/common/bytes.h"
#include "src/crypto/sha256.h"

namespace votegral {

namespace {

constexpr std::string_view kAllPoints[] = {
    faults::kAuthorityComputeShare, faults::kLedgerAppend, faults::kLedgerSeal,
    faults::kMixShuffle,            faults::kTagApply,     faults::kTallyDedup,
    faults::kNetSend,               faults::kNetRecv,      faults::kReplicaApply,
};

// PRF(seed, point, kind, scope, key) -> uniform uint64. SHA-256 with a fixed
// domain separator, so decisions are stable identifiers of their inputs and
// independent of call order, thread count, or any protocol Rng stream.
uint64_t DecisionWord(uint64_t seed, std::string_view point, FaultKind kind,
                      uint64_t scope, uint64_t key) {
  Sha256 h;
  h.Update(AsBytes(std::string_view("votegral/faults/decision/v1")));
  uint8_t buf[8];
  StoreLe64(buf, seed);
  h.Update(buf);
  StoreLe64(buf, point.size());
  h.Update(buf);
  h.Update(AsBytes(point));
  const uint8_t kind_byte = static_cast<uint8_t>(kind);
  h.Update({&kind_byte, 1});
  StoreLe64(buf, scope);
  h.Update(buf);
  StoreLe64(buf, key);
  h.Update(buf);
  const auto digest = h.Finalize();
  uint64_t word = 0;
  std::memcpy(&word, digest.data(), sizeof(word));
  return word;
}

// rate in [0,1] -> threshold on a uniform 64-bit word.
uint64_t RateThreshold(double rate) {
  if (rate <= 0.0) return 0;
  if (rate >= 1.0) return ~uint64_t{0};
  const long double scaled =
      static_cast<long double>(rate) * static_cast<long double>(~uint64_t{0});
  return static_cast<uint64_t>(scaled);
}

}  // namespace

std::span<const std::string_view> RegisteredFaultPoints() {
  return kAllPoints;
}

FaultPlan& FaultPlan::Add(FaultRule rule) {
  Require(!rule.point.empty(), "FaultPlan::Add: empty point name");
  Require(rule.kind != FaultKind::kNone, "FaultPlan::Add: kNone is not injectable");
  Require(rule.rate >= 0.0 && rule.rate <= 1.0, "FaultPlan::Add: rate out of [0,1]");
  Require(rule.delay_ms_min <= rule.delay_ms_max,
          "FaultPlan::Add: delay_ms_min > delay_ms_max");
  rules_.push_back(std::move(rule));
  return *this;
}

FaultPlan& FaultPlan::Crash(std::string_view point, double rate, uint64_t scope) {
  return Add({std::string(point), FaultKind::kCrash, rate, scope, 0, 0});
}

FaultPlan& FaultPlan::Timeout(std::string_view point, double rate, uint64_t scope) {
  return Add({std::string(point), FaultKind::kTimeout, rate, scope, 0, 0});
}

FaultPlan& FaultPlan::Corrupt(std::string_view point, double rate, uint64_t scope) {
  return Add({std::string(point), FaultKind::kCorrupt, rate, scope, 0, 0});
}

FaultPlan& FaultPlan::Delay(std::string_view point, double rate,
                            uint64_t delay_ms_min, uint64_t delay_ms_max,
                            uint64_t scope) {
  return Add({std::string(point), FaultKind::kDelay, rate, scope, delay_ms_min,
              delay_ms_max});
}

FaultDecision FaultPlan::Decide(std::string_view point, uint64_t scope,
                                uint64_t key) const {
  for (const FaultRule& rule : rules_) {
    if (rule.point != point) continue;
    if (rule.scope != kAnyScope && rule.scope != scope) continue;
    // Crashes are permanent per (point, scope): drop the operation key so
    // every operation observing a crashed entity agrees it is down.
    const uint64_t decision_key = rule.kind == FaultKind::kCrash ? 0 : key;
    const uint64_t word =
        DecisionWord(seed_, rule.point, rule.kind, scope, decision_key);
    if (word <= RateThreshold(rule.rate) && rule.rate > 0.0) {
      FaultDecision decision{rule.kind, 0};
      if (rule.kind == FaultKind::kDelay) {
        const uint64_t span = rule.delay_ms_max - rule.delay_ms_min + 1;
        // Second PRF draw for the latency so it is independent of the
        // fire/no-fire decision bit.
        const uint64_t latency_word =
            DecisionWord(seed_ ^ 0x9E3779B97F4A7C15ull, rule.point, rule.kind,
                         scope, key);
        decision.delay_ms = rule.delay_ms_min + latency_word % span;
      }
      return decision;
    }
  }
  return {};
}

std::atomic<bool> FaultInjector::armed_{false};

FaultInjector& FaultInjector::Instance() {
  static FaultInjector injector;
  return injector;
}

void FaultInjector::Arm(FaultPlan plan) {
  Require(!Armed(), "FaultInjector::Arm: a plan is already armed");
  plan_ = std::move(plan);
  counters_.clear();
  for (std::string_view point : kAllPoints) {
    // Value-initialize the atomics in place; map nodes never move afterwards.
    counters_.emplace(std::piecewise_construct,
                      std::forward_as_tuple(point), std::forward_as_tuple());
    for (auto& slot : counters_.find(point)->second) {
      slot.store(0, std::memory_order_relaxed);
    }
  }
  armed_.store(true, std::memory_order_release);
}

void FaultInjector::Disarm() {
  armed_.store(false, std::memory_order_release);
  plan_ = FaultPlan();
}

FaultDecision FaultInjector::ProbeArmed(std::string_view point, uint64_t scope,
                                        uint64_t key) {
  const FaultDecision decision = plan_.Decide(point, scope, key);
  if (!decision.none()) {
    auto it = counters_.find(point);
    if (it != counters_.end()) {
      it->second[static_cast<size_t>(decision.kind)].fetch_add(
          1, std::memory_order_relaxed);
    }
  }
  return decision;
}

uint64_t FaultInjector::InjectionCount(std::string_view point) const {
  auto it = counters_.find(point);
  if (it == counters_.end()) return 0;
  uint64_t total = 0;
  for (const auto& slot : it->second) {
    total += slot.load(std::memory_order_relaxed);
  }
  return total;
}

uint64_t FaultInjector::TotalInjections() const {
  uint64_t total = 0;
  for (const auto& [point, slots] : counters_) {
    for (const auto& slot : slots) {
      total += slot.load(std::memory_order_relaxed);
    }
  }
  return total;
}

}  // namespace votegral
