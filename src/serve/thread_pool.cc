#include "serve/thread_pool.h"

#include <algorithm>
#include <atomic>

#include "util/check.h"

namespace unn {
namespace serve {

ThreadPool::ThreadPool(int num_threads) {
  if (num_threads <= 0) {
    num_threads = static_cast<int>(std::thread::hardware_concurrency());
    if (num_threads <= 0) num_threads = 1;
  }
  workers_.reserve(num_threads);
  for (int i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  BeginShutdown();
  for (auto& t : workers_) t.join();
}

void ThreadPool::BeginShutdown() {
  {
    MutexLock lock(&mu_);
    stopping_ = true;
  }
  cv_.NotifyAll();
}

void ThreadPool::Post(std::function<void()> fn, TaskPriority priority) {
  UNN_CHECK_MSG(TryPost(std::move(fn), priority),
                "Post on a stopping ThreadPool");
}

bool ThreadPool::TryPost(std::function<void()>&& fn, TaskPriority priority) {
  return TryPostOwned(std::move(fn), priority, nullptr);
}

bool ThreadPool::TryPostOwned(std::function<void()>&& fn,
                              TaskPriority priority, const void* owner) {
  {
    MutexLock lock(&mu_);
    if (stopping_) return false;
    queues_[static_cast<int>(priority)].push_back({std::move(fn), owner});
  }
  cv_.NotifyOne();
  return true;
}

bool ThreadPool::RunOrPost(std::function<void()>&& fn, TaskPriority priority) {
  bool borrowed = false;
  bool queued = false;
  {
    MutexLock lock(&mu_);
    if (!stopping_) {
      borrowed = idle_ > lent_ && QueuesEmptyLocked();
      queued = !borrowed;
      if (borrowed) {
        ++lent_;
      } else {
        queues_[static_cast<int>(priority)].push_back({std::move(fn)});
      }
    }
  }
  if (queued) {
    cv_.NotifyOne();
    return false;
  }
  fn();  // On a borrowed worker, or on a stopping pool.
  if (borrowed) {
    bool backlog;
    {
      MutexLock lock(&mu_);
      --lent_;
      backlog = !QueuesEmptyLocked();
    }
    // The returned worker may take what was queued meanwhile.
    if (backlog) cv_.NotifyOne();
  }
  return true;
}

int ThreadPool::queue_depth() const {
  MutexLock lock(&mu_);
  size_t depth = 0;
  for (const auto& q : queues_) depth += q.size();
  return static_cast<int>(depth);
}

bool ThreadPool::QueuesEmptyLocked() const {
  for (const auto& q : queues_) {
    if (!q.empty()) return false;
  }
  return true;
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock(&mu_);
      // Spelled as an explicit loop (not a predicate wait): a predicate
      // lambda is analyzed as a separate function, which would hide the
      // guarded reads from -Wthread-safety.
      // A parked worker lent to a RunOrPost caller takes no task until
      // that run returns; a stopping pool drains regardless.
      ++idle_;
      while (!stopping_ && (QueuesEmptyLocked() || idle_ <= lent_)) {
        cv_.Wait(mu_);
      }
      --idle_;
      if (QueuesEmptyLocked()) return;  // stopping_ and drained.
      for (auto& q : queues_) {         // Highest class first.
        if (!q.empty()) {
          task = std::move(q.front().fn);
          q.pop_front();
          break;
        }
      }
    }
    task();
  }
}

namespace {

/// Completion state shared between ParallelFor's caller and the tasks it
/// posts. Heap-owned (shared_ptr) because a posted task that lost every
/// block race may still be finishing after the caller has returned.
struct ForLatch {
  std::atomic<size_t> next{0};
  Mutex mu;
  CondVar cv;
  size_t blocks_done UNN_GUARDED_BY(mu) = 0;
};

}  // namespace

void ThreadPool::ParallelFor(size_t n,
                             const std::function<void(size_t, size_t)>& fn) {
  if (n == 0) return;
  // ~2 blocks per participant bounds the makespan penalty of an uneven
  // block at half a block without the scheduling overhead of one task per
  // index. Block sizes are rounded up to a multiple of the batch-kernel
  // pack width (geom::kLaneWidth = 8, spatial/batch.h), so a blocked
  // QueryMany produces at most one ragged pack per block instead of
  // guaranteed ragged tails at every block seam.
  constexpr size_t kBlockQuantum = 8;
  size_t participants = static_cast<size_t>(num_threads()) + 1;
  size_t blocks = std::min(n, 2 * participants);
  size_t chunk = (n + blocks - 1) / blocks;
  if (n > kBlockQuantum) {
    chunk = (chunk + kBlockQuantum - 1) / kBlockQuantum * kBlockQuantum;
    blocks = (n + chunk - 1) / chunk;
  }

  // Participants pull the next unclaimed block until none remain. The
  // caller joins the pulling loop itself, so every block completes even if
  // the queue is backed up (e.g. a nested ParallelFor from inside a task):
  // it never blocks waiting for a task that has not started. `fn` is only
  // dereferenced while a block is held, and blocks cannot be claimed after
  // the caller returns, so capturing it by reference is safe.
  auto latch = std::make_shared<ForLatch>();
  auto run_blocks = [n, chunk, blocks, latch, &fn] {
    for (;;) {
      // relaxed: the block counter only hands out distinct indices; the
      // work done in a block is published to the waiter by latch->mu.
      size_t b = latch->next.fetch_add(1, std::memory_order_relaxed);
      if (b >= blocks) return;
      size_t begin = b * chunk;
      size_t end = std::min(n, begin + chunk);
      if (begin < end) fn(begin, end);
      {
        MutexLock lock(&latch->mu);
        ++latch->blocks_done;
      }
      latch->cv.NotifyOne();
    }
  };

  // On a stopping pool (destructor racing a draining task that fans out)
  // no helper can be posted; the calling thread then claims every block.
  // Each helper is tagged with the latch, unique to this call.
  size_t helpers = std::min(blocks - 1, static_cast<size_t>(num_threads()));
  for (size_t i = 0; i < helpers; ++i) {
    if (!TryPostOwned(run_blocks, TaskPriority::kNormal, latch.get())) break;
  }
  run_blocks();
  // Every block is claimed, so a helper no worker has started would find
  // nothing to do: take it back, or the next poster would find it queued
  // (and RunOrPost no worker free).
  {
    MutexLock lock(&mu_);
    for (auto& q : queues_) {
      std::erase_if(q, [&](const Task& t) { return t.owner == latch.get(); });
    }
  }
  MutexLock lock(&latch->mu);
  while (latch->blocks_done < blocks) latch->cv.Wait(latch->mu);
}

}  // namespace serve
}  // namespace unn
