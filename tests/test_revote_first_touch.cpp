// Regression test: the revote counter table's first use may come from inside
// a parallel tally stage. Its static initializer once fanned its encodes out
// on the executor: a pool thread holding the initialization guard helped the
// pool while it waited for its chunks, picked up a sibling task of the stage,
// and that task blocked on the very guard the thread held. Every thread ended
// in futex wait.
//
// A static initializer runs once per process, so each trial is a freshly
// executed child (gtest's "threadsafe" death-test style re-runs this binary)
// whose first touch happens inside a 4-thread ParallelForEach. The hang was
// timing-dependent (about one fresh process in ten on a 4-core host), hence
// many trials. An alarm is the watchdog: a deadlocked child is killed by
// SIGALRM, so the trial fails instead of hanging ctest.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <span>

#include "src/common/executor.h"
#include "src/votegral/revote.h"

namespace votegral {
namespace {

constexpr int kTrials = 64;
constexpr unsigned kWatchdogSeconds = 20;

// Child body: every task's first action decodes a counter, half of them
// through the selection kernel. Exits 0 when every decode was right.
[[noreturn]] void FirstTouchInsideParallelStage() {
  alarm(kWatchdogSeconds);
  const CompressedRistretto one = RistrettoPoint::Base().Encode();
  const CompressedRistretto tag{};
  std::atomic<size_t> correct{0};
  {
    Executor executor(4);
    executor.ParallelForEach(64, [&](size_t i) {
      bool ok = false;
      if (i % 2 == 0) {
        ok = DecodeCounterPoint(one) == std::optional<uint64_t>(1);
      } else {
        const RevoteSelection sel = SelectLastPerTag(std::span(&tag, 1), std::span(&one, 1));
        ok = sel.kept.size() == 1 && sel.invalid_structure == 0;
      }
      if (ok) {
        correct.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  std::_Exit(correct.load() == 64 ? 0 : 1);
}

TEST(RevoteFirstTouch, CounterTableInitializesInsideParallelStage) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  for (int trial = 0; trial < kTrials; ++trial) {
    EXPECT_EXIT(FirstTouchInsideParallelStage(), ::testing::ExitedWithCode(0), "")
        << "trial " << trial << ": exit 1 = wrong counter decode; killed by SIGALRM = "
        << "no result within " << kWatchdogSeconds << " s (first-touch deadlock)";
  }
}

}  // namespace
}  // namespace votegral
