#include "src/common/executor.h"

#include <algorithm>
#include <cstdlib>
#include <exception>

#include "src/common/status.h"

namespace votegral {

namespace {

// Innermost Scope-bound executor on this thread (set while chunk bodies and
// graph nodes run on pool threads, too, so nested kernels inherit the right
// pool).
thread_local Executor* tls_current_executor = nullptr;

// The deque slot this thread owns, valid while tls_worker_pool matches the
// executor being asked. Workers of other pools and external threads share
// slot 0 of whichever pool they submit to.
thread_local Executor* tls_worker_pool = nullptr;
thread_local size_t tls_worker_slot = 0;

}  // namespace

// One ParallelFor invocation: chunks are claimed by atomic increment, so a
// chunk runs on whichever thread gets to it first while results stay
// position-addressed and deterministic.
struct Executor::Job {
  Executor* owner = nullptr;
  size_t n = 0;
  size_t chunk = 1;
  const std::function<void(size_t, size_t)>* body = nullptr;

  std::atomic<size_t> next{0};        // next unclaimed chunk start
  std::atomic<bool> failed{false};    // first exception recorded; skip rest
  std::atomic<bool> done{false};      // completed == n (set under mutex)

  std::mutex mutex;
  size_t completed = 0;               // completed indices, guarded by mutex
  std::exception_ptr error;           // first chunk exception, guarded by mutex
};

Executor::Executor(size_t threads) {
  if (threads == 0) {
    threads = std::max<size_t>(1, std::thread::hardware_concurrency());
  }
  thread_count_ = threads;
  deques_.reserve(threads);
  for (size_t i = 0; i < threads; ++i) {
    deques_.push_back(std::make_unique<WorkDeque>());
  }
  workers_.reserve(threads - 1);
  for (size_t i = 0; i + 1 < threads; ++i) {
    // Worker i owns deque slot i + 1; slot 0 belongs to submitters.
    workers_.emplace_back([this, slot = i + 1] { WorkerLoop(slot); });
  }
}

Executor::~Executor() {
  {
    std::lock_guard<std::mutex> lock(sleep_mutex_);
    stopping_.store(true, std::memory_order_release);
  }
  sleep_cv_.notify_all();
  for (std::thread& worker : workers_) {
    worker.join();
  }
}

size_t Executor::HomeSlot() const {
  return tls_worker_pool == this ? tls_worker_slot : 0;
}

void Executor::PushItem(WorkItem item) {
  Require(!stopping_.load(std::memory_order_acquire), "executor: submit after shutdown");
  const size_t slot = HomeSlot();
  uint64_t depth;
  {
    std::lock_guard<std::mutex> lock(deques_[slot]->mutex);
    // LIFO push: nested work lands at the owner's hot end; thieves take the
    // back, which holds the oldest (outermost, coarsest) items.
    deques_[slot]->items.push_front(std::move(item));
    depth = deques_[slot]->items.size();
  }
  uint64_t seen = stat_max_depth_.load(std::memory_order_relaxed);
  while (depth > seen &&
         !stat_max_depth_.compare_exchange_weak(seen, depth, std::memory_order_relaxed)) {
  }
  pending_.fetch_add(1, std::memory_order_release);
  NotifyAll();
}

std::optional<Executor::WorkItem> Executor::TryAcquire(size_t slot) {
  {
    std::lock_guard<std::mutex> lock(deques_[slot]->mutex);
    if (!deques_[slot]->items.empty()) {
      WorkItem item = std::move(deques_[slot]->items.front());
      deques_[slot]->items.pop_front();
      pending_.fetch_sub(1, std::memory_order_release);
      return item;
    }
  }
  // Steal sweep: round-robin from the next slot, taking the back (FIFO).
  for (size_t k = 1; k < deques_.size(); ++k) {
    size_t victim = (slot + k) % deques_.size();
    std::lock_guard<std::mutex> lock(deques_[victim]->mutex);
    if (!deques_[victim]->items.empty()) {
      WorkItem item = std::move(deques_[victim]->items.back());
      deques_[victim]->items.pop_back();
      pending_.fetch_sub(1, std::memory_order_release);
      stat_steals_.fetch_add(1, std::memory_order_relaxed);
      return item;
    }
  }
  if (deques_.size() > 1) {
    stat_steal_failures_.fetch_add(1, std::memory_order_relaxed);
  }
  return std::nullopt;
}

void Executor::Execute(WorkItem& item) {
  stat_tasks_.fetch_add(1, std::memory_order_relaxed);
  if (item.job != nullptr) {
    // Chunk runner: claim chunks of the shared job until it is exhausted.
    while (RunOneChunk(*item.job)) {
    }
    return;
  }
  item.task();
}

void Executor::NotifyAll() {
  // The empty critical section orders this notify after any concurrent
  // sleeper's predicate check, so a wakeup cannot be lost between a
  // predicate miss and the wait.
  { std::lock_guard<std::mutex> lock(sleep_mutex_); }
  sleep_cv_.notify_all();
}

ExecutorStats Executor::Stats() const {
  ExecutorStats stats;
  stats.tasks_executed = stat_tasks_.load(std::memory_order_relaxed);
  stats.steals = stat_steals_.load(std::memory_order_relaxed);
  stats.steal_failures = stat_steal_failures_.load(std::memory_order_relaxed);
  stats.max_queue_depth = stat_max_depth_.load(std::memory_order_relaxed);
  return stats;
}

bool Executor::RunOneChunk(Job& job) {
  size_t begin = job.next.fetch_add(job.chunk, std::memory_order_relaxed);
  if (begin >= job.n) {
    return false;
  }
  size_t end = std::min(job.n, begin + job.chunk);
  if (!job.failed.load(std::memory_order_relaxed)) {
    // The body runs with its owning executor as Current(): nested parallel
    // kernels (MSM window passes, batch accumulators) stay on the same pool
    // whether this thread is a worker or the participating submitter.
    Executor* previous = tls_current_executor;
    tls_current_executor = job.owner;
    try {
      (*job.body)(begin, end);
      tls_current_executor = previous;
    } catch (...) {
      tls_current_executor = previous;
      std::lock_guard<std::mutex> lock(job.mutex);
      if (!job.error) {
        job.error = std::current_exception();
      }
      job.failed.store(true, std::memory_order_relaxed);
    }
  }
  bool became_done = false;
  {
    std::lock_guard<std::mutex> lock(job.mutex);
    job.completed += end - begin;
    if (job.completed == job.n) {
      job.done.store(true, std::memory_order_release);
      became_done = true;
    }
  }
  if (became_done) {
    // Submitters park on the pool's sleep condition (so they can also be
    // woken to help with new work); completion must signal it.
    job.owner->NotifyAll();
  }
  return true;
}

void Executor::WorkerLoop(size_t slot) {
  tls_worker_pool = this;
  tls_worker_slot = slot;
  for (;;) {
    if (std::optional<WorkItem> item = TryAcquire(slot)) {
      Execute(*item);
      continue;
    }
    std::unique_lock<std::mutex> lock(sleep_mutex_);
    sleep_cv_.wait(lock, [this] {
      return stopping_.load(std::memory_order_acquire) ||
             pending_.load(std::memory_order_acquire) > 0;
    });
    if (stopping_.load(std::memory_order_acquire)) {
      // ParallelFor and TaskGraph::Wait both block their submitters, so no
      // unfinished work can be queued by the time the destructor runs.
      return;
    }
  }
}

void Executor::ParallelFor(size_t n, const std::function<void(size_t, size_t)>& body) {
  if (n == 0) {
    return;
  }
  // Serial executor, tiny loops, or no workers: run inline. Chunk boundaries
  // are invisible to callers, so this changes nothing observable.
  if (thread_count_ <= 1 || n == 1) {
    body(0, n);
    return;
  }

  auto job = std::make_shared<Job>();
  job->owner = this;
  job->n = n;
  // Over-decompose ~4x relative to the worker count so chunks of uneven cost
  // balance, but keep chunks whole for cache locality.
  job->chunk = std::max<size_t>(1, n / (thread_count_ * 4));
  job->body = &body;

  // One chunk runner per thread that could help (capped by the chunk count);
  // the submitting thread is its own runner below. A runner that arrives
  // after the job is exhausted claims nothing and retires immediately.
  const size_t chunks = (n + job->chunk - 1) / job->chunk;
  const size_t runners = std::min(thread_count_ - 1, chunks);
  for (size_t r = 0; r < runners; ++r) {
    PushItem(WorkItem{job, nullptr});
  }

  // The submitting thread drains its own job; nesting therefore always makes
  // progress even when every worker is busy elsewhere.
  while (RunOneChunk(*job)) {
  }
  // Help-first join: while stragglers finish our chunks, run other queued
  // work (their nested children, or sibling tasks of the same pool) instead
  // of idling a thread on a bare wait.
  HelpWhile([&] { return job->done.load(std::memory_order_acquire); });
  {
    std::lock_guard<std::mutex> lock(job->mutex);
    if (job->error) {
      std::rethrow_exception(job->error);
    }
  }
}

Executor::Scope::Scope(Executor& executor) : previous_(tls_current_executor) {
  tls_current_executor = &executor;
}

Executor::Scope::~Scope() { tls_current_executor = previous_; }

Executor& Executor::Current() {
  return tls_current_executor != nullptr ? *tls_current_executor : Global();
}

Executor& Executor::Global() {
  static Executor* global = [] {
    size_t threads = 0;
    if (const char* env = std::getenv("VOTEGRAL_THREADS")) {
      long parsed = std::atol(env);
      if (parsed > 0) {
        threads = static_cast<size_t>(parsed);
      }
    }
    return new Executor(threads);
  }();
  return *global;
}

Executor& Executor::Serial() {
  static Executor* serial = new Executor(1);
  return *serial;
}

std::vector<std::pair<size_t, size_t>> Executor::Shards(size_t n, size_t max_shards) {
  std::vector<std::pair<size_t, size_t>> shards;
  if (n == 0) {
    return shards;
  }
  size_t count = std::min(n, std::max<size_t>(1, max_shards));
  shards.reserve(count);
  size_t base = n / count;
  size_t extra = n % count;  // first `extra` shards get one more element
  size_t begin = 0;
  for (size_t s = 0; s < count; ++s) {
    size_t end = begin + base + (s < extra ? 1 : 0);
    shards.emplace_back(begin, end);
    begin = end;
  }
  return shards;
}

TaskGraph::~TaskGraph() {
  // A graph abandoned without Wait() must not leave nodes referencing a
  // destroyed *this on the queues.
  Wait();
}

TaskGraph::NodeId TaskGraph::Submit(std::function<void()> task,
                                    std::span<const NodeId> deps) {
  NodeId id;
  bool ready;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    id = nodes_.size();
    nodes_.emplace_back();
    Node& node = nodes_.back();
    node.task = std::move(task);
    for (NodeId dep : deps) {
      Require(dep < id, "taskgraph: dependency on a later node");
      Node& d = nodes_[dep];
      if (!d.completed) {
        d.dependents.push_back(id);
        ++node.pending;
      } else if (d.failed) {
        node.skip = true;
      }
    }
    remaining_.fetch_add(1, std::memory_order_release);
    ready = node.pending == 0;
  }
  if (ready) {
    Schedule(id);
  }
  return id;
}

void TaskGraph::Schedule(NodeId id) {
  executor_.PushItem(Executor::WorkItem{nullptr, [this, id] { RunNode(id); }});
}

void TaskGraph::RunNode(NodeId id) {
  bool skip;
  std::function<void()> task;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    Node& node = nodes_[id];
    skip = node.skip;
    task = std::move(node.task);
    node.task = nullptr;
  }
  bool ok = !skip;
  if (!skip) {
    // Bind the owning pool as Current() so nested kernels in the body
    // (ParallelFor, MSM passes) fan out on it, exactly as chunk bodies do.
    Executor* previous = tls_current_executor;
    tls_current_executor = &executor_;
    try {
      task();
    } catch (...) {
      std::lock_guard<std::mutex> lock(mutex_);
      // Lowest node id wins: submission order, not completion order, so the
      // rethrown failure is deterministic under any steal schedule.
      if (!first_error_ || id < first_error_id_) {
        first_error_ = std::current_exception();
        first_error_id_ = id;
      }
      ok = false;
    }
    tls_current_executor = previous;
  }

  std::vector<NodeId> ready;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    Node& node = nodes_[id];
    node.completed = true;
    node.failed = !ok;
    for (NodeId dep_id : node.dependents) {
      Node& dependent = nodes_[dep_id];
      if (!ok) {
        dependent.skip = true;  // cascades: a skipped node also "fails"
      }
      if (--dependent.pending == 0) {
        ready.push_back(dep_id);
      }
    }
    node.dependents.clear();
  }
  for (NodeId dep_id : ready) {
    Schedule(dep_id);
  }
  // The decrement may release a Wait()er that then destroys the graph, so
  // it must be the last access of *this; notify through a local reference.
  Executor& pool = executor_;
  if (remaining_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    pool.NotifyAll();
  }
}

void TaskGraph::Wait() {
  executor_.HelpWhile([&] { return remaining_.load(std::memory_order_acquire) == 0; });
  std::exception_ptr error;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    error = first_error_;
    first_error_ = nullptr;
    first_error_id_ = SIZE_MAX;
  }
  if (error) {
    std::rethrow_exception(error);
  }
}

std::optional<size_t> FirstMarked(std::span<const uint8_t> flags) {
  for (size_t i = 0; i < flags.size(); ++i) {
    if (flags[i]) {
      return i;
    }
  }
  return std::nullopt;
}

}  // namespace votegral
