// Work-stealing executor and dependency-counting task graph for the
// dataflow tally pipeline.
//
// Design constraints, in order:
//  1. *Determinism*: parallel protocol stages must be byte-reproducible
//     regardless of thread count. The executor therefore never makes
//     scheduling visible to callers — ParallelFor/ParallelMap write results
//     at fixed positions, TaskGraph nodes commit their outputs positionally,
//     and stages that consume randomness partition their work into `Shards`
//     whose boundaries depend only on the input size (never on the thread
//     count) and give each shard a forked DRBG stream (see ForkRngSeeds in
//     src/common/rng.h).
//  2. *Nested-submit safety*: MSM bucket passes run inside mixnet shard
//     tasks which run inside tally graph nodes. A thread that waits for
//     work it submitted keeps executing queued work itself (help-first
//     joining), so nesting can never deadlock and a 1-thread executor
//     degrades to plain loops.
//  3. *Exception transparency*: the first exception thrown by any chunk is
//     rethrown from the submitting call (ProtocolError propagation); a task
//     graph rethrows the failed node with the lowest id and skips its
//     dependents.
//
// Scheduling: every thread owns a deque. Owners push and pop at the front
// (LIFO — the nested, cache-hot end); idle threads steal from the back of
// other deques (FIFO — the oldest, coarsest work). External submitters share
// deque 0. Steal/execution counters are exposed read-only via Stats() for
// the occupancy reporting of bench/fig_stream_tally.
#ifndef SRC_COMMON_EXECUTOR_H_
#define SRC_COMMON_EXECUTOR_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <initializer_list>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <thread>
#include <utility>
#include <vector>

namespace votegral {

class TaskGraph;

// Read-only scheduler counters (monotonic since construction; relaxed
// atomics, so a snapshot taken while work is in flight is approximate).
struct ExecutorStats {
  uint64_t tasks_executed = 0;   // queue items run (chunk runners + graph nodes)
  uint64_t steals = 0;           // items taken from another thread's deque
  uint64_t steal_failures = 0;   // full victim sweeps that found nothing
  uint64_t max_queue_depth = 0;  // deepest any single deque has been
};

class Executor {
 public:
  // `threads` is the total parallelism including the submitting thread;
  // 0 selects std::thread::hardware_concurrency(). An Executor(1) runs
  // everything inline and spawns no workers.
  explicit Executor(size_t threads = 0);
  ~Executor();

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  size_t threads() const { return thread_count_; }

  // Runs body(begin, end) over a partition of [0, n). Blocks until every
  // chunk has completed; rethrows the first chunk exception. The submitting
  // thread participates, so this is safe to call from inside another
  // ParallelFor body or a TaskGraph node.
  void ParallelFor(size_t n, const std::function<void(size_t, size_t)>& body);

  // Per-index convenience over ParallelFor.
  template <typename F>
  void ParallelForEach(size_t n, F&& f) {
    ParallelFor(n, [&f](size_t begin, size_t end) {
      for (size_t i = begin; i < end; ++i) {
        f(i);
      }
    });
  }

  // result[i] = f(i), with result order fixed by index (deterministic
  // regardless of which thread computed which entry). R must be default
  // constructible.
  template <typename R, typename F>
  std::vector<R> ParallelMap(size_t n, F&& f) {
    std::vector<R> result(n);
    ParallelForEach(n, [&](size_t i) { result[i] = f(i); });
    return result;
  }

  // Snapshot of the scheduler counters.
  ExecutorStats Stats() const;

  // Process-wide pool, sized from hardware_concurrency (override with the
  // VOTEGRAL_THREADS environment variable, read once). Protocol entry points
  // default to this instance; tests construct local executors to pin the
  // thread count.
  static Executor& Global();

  // Scoped binding of "the executor parallel kernels below this frame should
  // use". Layers that cannot take an Executor parameter without contaminating
  // their API (the MSM engine, batch verification) read Current(); protocol
  // entry points that accept an injected executor bind it for their duration,
  // so `threads=1` really means serial all the way down and a dedicated pool
  // never oversubscribes against the global one. Bodies running on pool
  // threads automatically see their owning executor as Current().
  class Scope {
   public:
    explicit Scope(Executor& executor);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Executor* previous_;
  };

  // The innermost bound executor on this thread; Global() when none.
  static Executor& Current();

  // A process-wide Executor(1). Binding it (Scope) runs every kernel below
  // inline on the calling thread: for small batches inside a shard body,
  // where fanning out again would cost more than the work.
  static Executor& Serial();

  // Partitions [0, n) into at most `max_shards` contiguous, balanced
  // [begin, end) ranges. The partition depends only on n and max_shards —
  // never on the thread count — so per-shard forked DRBG streams consume
  // identical bytes under any parallelism (the reproducibility contract of
  // the tally pipeline).
  static std::vector<std::pair<size_t, size_t>> Shards(size_t n, size_t max_shards);

  // Default shard count for randomness-consuming pipeline stages: enough
  // slack for any realistic worker count without fragmenting small batches.
  static constexpr size_t kRngShards = 64;

 private:
  friend class TaskGraph;

  struct Job;

  // One queue entry: either a chunk runner for a ParallelFor job (runs
  // chunks until the job is exhausted) or a plain task (a TaskGraph node).
  struct WorkItem {
    std::shared_ptr<Job> job;
    std::function<void()> task;
  };

  // A mutex-guarded per-thread deque. Lock-free deques buy nothing here —
  // item bodies (re-encryptions, share requests) dwarf the lock, and the
  // mutex keeps the scheduler trivially TSan-clean.
  struct WorkDeque {
    std::mutex mutex;
    std::deque<WorkItem> items;
  };

  void WorkerLoop(size_t slot);

  // The calling thread's own deque slot: its worker slot on this pool, or
  // the shared slot 0 for external submitters and other pools' workers.
  size_t HomeSlot() const;

  // Pushes to the front of the caller's home deque and wakes sleepers.
  void PushItem(WorkItem item);

  // Pop own front, else steal another deque's back. nullopt when every
  // deque is empty.
  std::optional<WorkItem> TryAcquire(size_t slot);

  // Runs one queue item (with stats accounting).
  void Execute(WorkItem& item);

  // Help-first join: execute queued work until done() holds, sleeping only
  // when the queues are empty. Callers must arrange that completion of the
  // awaited condition calls NotifyAll().
  template <typename DonePredicate>
  void HelpWhile(const DonePredicate& done) {
    const size_t slot = HomeSlot();
    while (!done()) {
      if (std::optional<WorkItem> item = TryAcquire(slot)) {
        Execute(*item);
        continue;
      }
      std::unique_lock<std::mutex> lock(sleep_mutex_);
      sleep_cv_.wait(lock, [&] {
        return done() || pending_.load(std::memory_order_acquire) > 0;
      });
    }
  }

  // Wakes every sleeping worker/waiter (new work or a completion).
  void NotifyAll();

  // Claims and runs one chunk of `job`. Returns false when the job has no
  // unclaimed chunks left.
  static bool RunOneChunk(Job& job);

  size_t thread_count_ = 1;
  std::vector<std::thread> workers_;
  std::vector<std::unique_ptr<WorkDeque>> deques_;  // [0] shared, [1..] workers

  // Queued-item count (not chunks): the sleep predicate. Pushes increment,
  // successful acquires decrement; the empty-queue sleep below is guarded by
  // sleep_mutex_ so a push between check and wait cannot be lost.
  std::atomic<size_t> pending_{0};
  std::mutex sleep_mutex_;
  std::condition_variable sleep_cv_;
  std::atomic<bool> stopping_{false};

  // Stats (relaxed; monotonic).
  std::atomic<uint64_t> stat_tasks_{0};
  std::atomic<uint64_t> stat_steals_{0};
  std::atomic<uint64_t> stat_steal_failures_{0};
  std::atomic<uint64_t> stat_max_depth_{0};
};

// A dependency-counting task graph on an Executor: Submit() wires a node
// under its dependencies and schedules it the moment the last one finishes,
// so independent flows overlap at chunk granularity instead of meeting at
// stage-wide barriers (the dataflow tally pipeline sits on this, with
// ParallelFor-based kernels free to run inside node bodies).
//
// Determinism: the graph never decides *what* runs, only *when* — node
// bodies write results positionally and take any randomness from seeds
// assigned at graph-build time, so outputs are byte-identical at any thread
// count and under any steal order.
//
// Failure: a node that throws marks the graph failed; its transitive
// dependents are skipped (their bodies never run — a failed dependency's
// outputs are unusable garbage). Wait() rethrows the failed node with the
// lowest id, which is deterministic because node ids follow submission
// order.
//
// Thread-safety: Submit() and Wait() may be called from any thread,
// including from inside node bodies; Wait() helps execute queued work while
// waiting (no idle blocking, no deadlock under nesting).
class TaskGraph {
 public:
  using NodeId = size_t;

  explicit TaskGraph(Executor& executor) : executor_(executor) {}
  ~TaskGraph();

  TaskGraph(const TaskGraph&) = delete;
  TaskGraph& operator=(const TaskGraph&) = delete;

  // Adds a node that runs `task` once every dependency has completed
  // successfully. Dependencies must be earlier node ids. Returns the new
  // node's id (submission order: 0, 1, 2, ...).
  NodeId Submit(std::function<void()> task, std::span<const NodeId> deps = {});
  NodeId Submit(std::function<void()> task, std::initializer_list<NodeId> deps) {
    return Submit(std::move(task), std::span<const NodeId>(deps.begin(), deps.end()));
  }

  // Blocks until every submitted node has completed or been skipped,
  // executing queued work while waiting. Rethrows the lowest-id failed
  // node's exception, if any. The graph may be reused (more Submits) after
  // a successful Wait.
  void Wait();

 private:
  struct Node {
    std::function<void()> task;
    size_t pending = 0;             // incomplete dependencies
    bool completed = false;
    bool failed = false;            // threw, or skipped via a failed dependency
    bool skip = false;              // do not run the body
    std::vector<NodeId> dependents;
  };

  void Schedule(NodeId id);
  void RunNode(NodeId id);

  Executor& executor_;
  std::mutex mutex_;                // guards nodes_ and error bookkeeping
  std::deque<Node> nodes_;
  std::atomic<size_t> remaining_{0};
  std::exception_ptr first_error_;
  NodeId first_error_id_ = SIZE_MAX;
};

// Deterministic localization helper for parallel verification passes: scans
// positional failure flags written by pool workers and returns the lowest
// marked index, so "first failure" is identical at any thread count.
std::optional<size_t> FirstMarked(std::span<const uint8_t> flags);

// The canonical parallel-check-then-localize shape: runs ok(i) for every
// i in [0, n) on the executor and returns the lowest index whose check
// failed. Callers re-derive the exact error at that index serially, keeping
// reason strings identical at any thread count.
template <typename F>
std::optional<size_t> ParallelFirstFailure(Executor& executor, size_t n, F&& ok) {
  std::vector<uint8_t> bad(n, 0);
  executor.ParallelForEach(n, [&](size_t i) {
    if (!ok(i)) {
      bad[i] = 1;
    }
  });
  return FirstMarked(bad);
}

}  // namespace votegral

#endif  // SRC_COMMON_EXECUTOR_H_
