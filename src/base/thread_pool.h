// A persistent pool of worker threads for blocking fork-join loops.
//
// The design-space odometer (see dtas/design_space.cpp) is the one user:
// it repeatedly fans a contiguous combination range out into shards, and
// spawning std::threads per odometer call would cost more than a small
// shard is worth. The pool keeps its workers parked on a condition
// variable between runs, so the steady-state cost of a fork-join is two
// lock acquisitions per task.
//
// run(n, fn) executes fn(i) for every i in [0, n) across the workers *and
// the calling thread*, returning only when every call has finished — a
// pool constructed with W workers therefore applies W+1 threads of
// compute. Tasks are claimed dynamically from a shared counter, so uneven
// shards self-level. All coordination is mutex/condition-variable based
// (no lock-free tricks), which keeps the pool trivially clean under
// ThreadSanitizer.
//
// run() must only be called from one thread at a time, and never from a
// task executing on the same pool: the outer generation keeps every
// worker busy, so a nested generation could wait forever. A thread-local
// tracks which pool the current thread is executing for, and a same-pool
// nested run() throws bridge::Error instead of deadlocking (the outer
// batch still drains and the pool stays usable). Nesting across pools is
// fine and gets the inner pool's full parallelism.
#pragma once

#include <exception>
#include <functional>
#include <thread>
#include <vector>

#include "base/annotations.h"

namespace bridge::base {

class ThreadPool {
 public:
  /// Spawns `workers` parked threads (0 is valid: run() then executes
  /// everything on the calling thread). When a thread cannot be created
  /// (std::system_error, e.g. under an address-space limit), the workers
  /// already started are stopped and joined before the error propagates.
  explicit ThreadPool(int workers);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int workers() const { return static_cast<int>(threads_.size()); }

  /// fn calls completed across every run() so far (all slots).
  long tasks_executed() const;
  /// Largest task count any single run() was asked for — the deepest the
  /// task queue has ever been, since run() enqueues its whole batch up
  /// front and blocks until it drains.
  int peak_queue_depth() const;
  /// Fork-join rounds executed (run() calls with at least one task).
  long runs() const;

  /// Run fn(task, slot) for every task in [0, num_tasks); blocks until all
  /// calls have returned. The caller participates as one of the compute
  /// threads. `slot` identifies the executing thread — 0 for the caller,
  /// 1..workers() for pool threads — so callers can keep one reusable
  /// scratch state per thread rather than per task. If any fn call throws,
  /// the remaining tasks still run to completion and the first exception
  /// is rethrown from run() once every task has finished — workers never
  /// outlive the fn object or the caller's captured state. Throws
  /// bridge::Error, running nothing, when called from inside a task of
  /// this same pool (see the header comment).
  void run(int num_tasks, const std::function<void(int, int)>& fn);

  /// Convenience overload for callers that don't need the thread slot.
  void run(int num_tasks, const std::function<void(int)>& fn) {
    run(num_tasks, [&fn](int task, int) { fn(task); });
  }

 private:
  void worker_loop(int slot);

  /// Tell every worker to exit and join them.
  void stop_and_join();

  /// Invoke fn, capturing the first exception instead of letting it
  /// escape (worker threads must never throw; the caller rethrows late).
  void invoke(const std::function<void(int, int)>& fn, int task, int slot);

  /// The pool (if any) the current thread is executing a task for — set
  /// around every task invoke, consulted by run() to reject same-pool
  /// nesting. Thread-local so concurrent tasks on different pools stay
  /// independent.
  static thread_local const ThreadPool* current_pool_;

  mutable Mutex mu_;
  CondVar work_cv_;  // workers wait for a new generation
  CondVar done_cv_;  // run() waits for completion
  // fn_ is only non-null while a run is in flight.
  const std::function<void(int, int)>* fn_ BRIDGE_GUARDED_BY(mu_) = nullptr;
  // First exception thrown by an fn call.
  std::exception_ptr error_ BRIDGE_GUARDED_BY(mu_);
  int num_tasks_ BRIDGE_GUARDED_BY(mu_) = 0;
  int next_task_ BRIDGE_GUARDED_BY(mu_) = 0;
  // Tasks not yet finished (claimed or unclaimed).
  int pending_ BRIDGE_GUARDED_BY(mu_) = 0;
  long generation_ BRIDGE_GUARDED_BY(mu_) = 0;
  bool stop_ BRIDGE_GUARDED_BY(mu_) = false;
  // Introspection (mirrored into obs::Registry under
  // "base.thread_pool.*" so the metrics layer sees every pool at once).
  long tasks_executed_ BRIDGE_GUARDED_BY(mu_) = 0;
  int peak_queue_depth_ BRIDGE_GUARDED_BY(mu_) = 0;
  long runs_ BRIDGE_GUARDED_BY(mu_) = 0;
  std::vector<std::thread> threads_;
};

}  // namespace bridge::base
