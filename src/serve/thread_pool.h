#ifndef UNN_SERVE_THREAD_POOL_H_
#define UNN_SERVE_THREAD_POOL_H_

#include <array>
#include <deque>
#include <functional>
#include <future>
#include <thread>
#include <utility>
#include <vector>

#include "util/thread_annotations.h"

/// \file thread_pool.h
/// The fixed-size worker pool underneath the serving layer: a mutex +
/// condition-variable task queue feeding N `std::thread` workers. Three
/// entry points cover the serving layer's needs:
///
///   * Post(fn)            — fire-and-forget task;
///   * RunOrPost(fn)       — runs fn on the caller in place of a parked
///                           worker, which it borrows until fn returns,
///                           or enqueues fn when no worker is free
///                           (QueryServer::Submit wraps it with a promise
///                           and answers on the submitting thread when a
///                           worker is free);
///   * ParallelFor(n, fn)  — run fn(begin, end) over a blocked partition
///                           of [0, n) and wait; the caller thread works
///                           too, so a pool of T threads applies T + 1
///                           workers and a 1-thread pool still overlaps.
///
/// The queue is priority-ordered: three strict classes (kHigh / kNormal /
/// kLow, see TaskPriority), FIFO within a class, workers always draining
/// the highest non-empty class first. QueryServer maps serve::Priority
/// onto this, which is what lets low-priority traffic queue behind
/// interactive traffic under load without any extra scheduler. Priorities
/// order dispatch; they never preempt a running task.
///
/// Tasks must not throw (queries propagate errors through their results);
/// the pool std::terminates on an escaping exception, like a joining
/// thread would.

namespace unn {
namespace serve {

/// Dispatch class of a posted task; strict priority, FIFO within a class.
enum class TaskPriority {
  kHigh = 0,
  kNormal = 1,
  kLow = 2,
};

class ThreadPool {
 public:
  /// `num_threads` <= 0 picks std::thread::hardware_concurrency().
  explicit ThreadPool(int num_threads = 0);
  ~ThreadPool();

  /// Flips the pool to stopping without joining: subsequent Post
  /// CHECK-fails, TryPost returns false and RunOrPost runs its task on
  /// the caller, while already-queued tasks still drain and the workers
  /// keep running until the destructor joins them. Idempotent and
  /// thread-safe. Lets an owner refuse new work before its own teardown
  /// begins (QueryServer's shutdown drain).
  void BeginShutdown() UNN_EXCLUDES(mu_);

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return static_cast<int>(workers_.size()); }

  /// Number of queued-but-not-yet-dispatched tasks across all priority
  /// classes. Takes the queue lock; intended for observability dumps, not
  /// the hot path. The value is a point-in-time reading and may be stale
  /// by the time the caller looks at it.
  int queue_depth() const UNN_EXCLUDES(mu_);

  /// Enqueues one task for any worker at the given priority (dispatched
  /// after every queued task of a higher class, before any of a lower
  /// one). Safe from any thread, including from inside a running task.
  /// O(1); CHECK-fails on a stopping pool.
  void Post(std::function<void()> fn,
            TaskPriority priority = TaskPriority::kNormal) UNN_EXCLUDES(mu_);

  /// Post that reports instead of CHECK-failing on a stopping pool:
  /// returns false when the destructor has already begun, which is how
  /// callers racing shutdown degrade to running the task inline
  /// (QueryServer::Submit) or alone (ParallelFor). `fn` is consumed only
  /// on success — on failure it is left intact, so the caller can still
  /// run it itself. O(1).
  bool TryPost(std::function<void()>&& fn,
               TaskPriority priority = TaskPriority::kNormal) UNN_EXCLUDES(mu_);

  /// Runs `fn` on the calling thread in place of a free worker, or
  /// enqueues it. A worker is free when it is parked, no task is queued,
  /// and no other caller has borrowed it: posting would then only wake
  /// it while the caller waits, so the caller runs `fn` itself and
  /// borrows the worker until `fn` returns. A borrowed worker takes no
  /// task, so callers' runs and workers' tasks together never exceed
  /// num_threads(), and a task posted meanwhile queues by its priority.
  /// When no worker is free, `fn` is enqueued at `priority` like TryPost.
  /// On a stopping pool `fn` runs on the caller (nothing can be queued).
  /// Returns true when `fn` has run on the calling thread, false when it
  /// was queued. The test is taken under the queue lock. O(1) plus `fn`.
  bool RunOrPost(std::function<void()>&& fn,
                 TaskPriority priority = TaskPriority::kNormal)
      UNN_EXCLUDES(mu_);

  /// Splits [0, n) into contiguous blocks (about 2 per participant, so a
  /// straggler block cannot dominate the makespan), runs `fn(begin, end)`
  /// on the workers plus the calling thread, and returns when every block
  /// is done. `fn` must be safe to call concurrently with itself. Safe on
  /// a stopping pool (a draining task may still fan out, e.g. a sharded
  /// query): no helpers are posted and the calling thread runs every
  /// block itself. Helper tasks no worker has started by the time every
  /// block is claimed are taken back off the queue, so none is left
  /// queued when it returns.
  void ParallelFor(size_t n, const std::function<void(size_t, size_t)>& fn);

 private:
  /// A queued task and the ParallelFor call that posted it (nullptr for
  /// every other poster), the tag its owner erases it by.
  struct Task {
    std::function<void()> fn;
    const void* owner = nullptr;
  };

  void WorkerLoop();
  /// TryPost with an owner tag.
  bool TryPostOwned(std::function<void()>&& fn, TaskPriority priority,
                    const void* owner) UNN_EXCLUDES(mu_);
  /// True when every priority class is empty; the UNN_REQUIRES makes the
  /// old "mu_ must be held" comment a compile-time contract.
  bool QueuesEmptyLocked() const UNN_REQUIRES(mu_);

  mutable Mutex mu_;
  CondVar cv_;
  /// One FIFO per TaskPriority, drained in class order.
  std::array<std::deque<Task>, 3> queues_ UNN_GUARDED_BY(mu_);
  bool stopping_ UNN_GUARDED_BY(mu_) = false;
  /// Workers parked in WorkerLoop's wait, and how many of them are lent
  /// to callers' RunOrPost runs (a lent worker takes no task until the
  /// run returns, unless the pool is stopping). lent_ <= idle_ while the
  /// pool runs.
  int idle_ UNN_GUARDED_BY(mu_) = 0;
  int lent_ UNN_GUARDED_BY(mu_) = 0;
  std::vector<std::thread> workers_;
};

}  // namespace serve
}  // namespace unn

#endif  // UNN_SERVE_THREAD_POOL_H_
