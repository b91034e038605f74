#include "base/thread_pool.h"

#include <algorithm>

#include "base/diag.h"
#include "base/fault.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace bridge::base {

namespace {

/// Pool metrics, resolved once. Task latency is recorded per *task* (a
/// task is a whole odometer shard or comparable unit — coarse enough
/// that one clock pair per task is noise).
struct PoolMetrics {
  obs::Counter& tasks = obs::Registry::global().counter(
      "base.thread_pool.tasks_executed");
  obs::Counter& runs =
      obs::Registry::global().counter("base.thread_pool.runs");
  obs::Gauge& queue_depth =
      obs::Registry::global().gauge("base.thread_pool.queue_depth");
  obs::Histogram& task_latency_us = obs::Registry::global().histogram(
      "base.thread_pool.task_latency_us");

  static PoolMetrics& get() {
    static PoolMetrics m;
    return m;
  }
};

}  // namespace

thread_local const ThreadPool* ThreadPool::current_pool_ = nullptr;

namespace {

/// Scoped set/restore of a thread-local pool marker. Restore (rather than
/// clear) keeps cross-pool nesting honest: a task of one pool that runs
/// another pool's batch as its caller must get the outer pool back as the
/// thread's context, not null.
struct CurrentPoolScope {
  const ThreadPool*& slot;
  const ThreadPool* prev;
  CurrentPoolScope(const ThreadPool*& s, const ThreadPool* p)
      : slot(s), prev(s) {
    slot = p;
  }
  ~CurrentPoolScope() { slot = prev; }
};

}  // namespace

ThreadPool::ThreadPool(int workers) {
  if (workers < 0) workers = 0;
  threads_.reserve(workers);
  try {
    for (int i = 0; i < workers; ++i) {
      // Slot 0 is the caller inside run(); workers take 1..workers().
      threads_.emplace_back([this, i] { worker_loop(i + 1); });
    }
  } catch (...) {
    // No destructor runs for a half-built pool, and destroying a joinable
    // std::thread terminates the process.
    stop_and_join();
    throw;
  }
}

ThreadPool::~ThreadPool() { stop_and_join(); }

void ThreadPool::stop_and_join() {
  {
    LockGuard lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

long ThreadPool::tasks_executed() const {
  LockGuard lock(mu_);
  return tasks_executed_;
}

int ThreadPool::peak_queue_depth() const {
  LockGuard lock(mu_);
  return peak_queue_depth_;
}

long ThreadPool::runs() const {
  LockGuard lock(mu_);
  return runs_;
}

void ThreadPool::invoke(const std::function<void(int, int)>& fn, int task,
                        int slot) {
  obs::Span span("pool.task", "base");
  const std::int64_t t0 = obs::Tracer::now_ns();
  CurrentPoolScope nested_guard(current_pool_, this);
  try {
    // Inside the try: an injected fault takes the exact path a throwing
    // task takes — captured below, batch drains, run() rethrows.
    FaultInjector::global().probe("base.thread_pool.task");
    fn(task, slot);
  } catch (...) {
    LockGuard lock(mu_);
    if (error_ == nullptr) error_ = std::current_exception();
  }
  PoolMetrics::get().task_latency_us.record(
      static_cast<double>(obs::Tracer::now_ns() - t0) / 1000.0);
}

void ThreadPool::run(int num_tasks, const std::function<void(int, int)>& fn) {
  if (num_tasks <= 0) return;
  // Every other thread may be busy with (or waiting on) the outer
  // generation, so a nested batch could wait forever.
  BRIDGE_CHECK(current_pool_ != this,
               "ThreadPool::run called from a task of the same pool");
  PoolMetrics& metrics = PoolMetrics::get();
  {
    LockGuard lock(mu_);
    fn_ = &fn;
    error_ = nullptr;
    num_tasks_ = num_tasks;
    next_task_ = 0;
    pending_ = num_tasks;
    ++generation_;
    ++runs_;
    peak_queue_depth_ = std::max(peak_queue_depth_, num_tasks);
  }
  metrics.runs.add(1);
  metrics.queue_depth.set(num_tasks);  // folds into the registry peak
  work_cv_.notify_all();
  // The caller is a compute thread too: claim tasks until none are left.
  for (;;) {
    int task;
    {
      LockGuard lock(mu_);
      if (next_task_ >= num_tasks_) break;
      task = next_task_++;
    }
    invoke(fn, task, /*slot=*/0);
    {
      LockGuard lock(mu_);
      --pending_;
    }
  }
  // Wait until every claimed task has finished (workers included) before
  // letting fn — and anything it captures — go out of scope.
  UniqueLock lock(mu_);
  while (pending_ != 0) done_cv_.wait(lock);
  fn_ = nullptr;
  tasks_executed_ += num_tasks_;
  metrics.tasks.add(num_tasks_);
  metrics.queue_depth.set(0);
  if (error_ != nullptr) {
    std::exception_ptr error = error_;
    error_ = nullptr;
    lock.unlock();
    std::rethrow_exception(error);
  }
}

void ThreadPool::worker_loop(int slot) {
  long seen = 0;
  UniqueLock lock(mu_);
  for (;;) {
    while (!(stop_ || (generation_ != seen && next_task_ < num_tasks_))) {
      work_cv_.wait(lock);
    }
    if (stop_) return;
    seen = generation_;
    while (next_task_ < num_tasks_) {
      const int task = next_task_++;
      const std::function<void(int, int)>* fn = fn_;
      lock.unlock();
      invoke(*fn, task, slot);
      lock.lock();
      if (--pending_ == 0) done_cv_.notify_all();
    }
  }
}

}  // namespace bridge::base
