#ifndef SAMA_COMMON_THREAD_POOL_H_
#define SAMA_COMMON_THREAD_POOL_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/status.h"

namespace sama {

// Work-stealing thread pool shared by the query engine's parallel
// phases (clustering, forest search) and the index builder. Each
// worker owns a deque; Submit distributes round-robin and idle workers
// steal from the back of their siblings' deques, so a burst of uneven
// tasks (one huge cluster next to many tiny ones) still keeps every
// core busy.
//
// The pool itself never blocks task-on-task: ParallelFor below has the
// calling thread chew through the iteration space alongside the
// workers, which makes nested parallel sections (a worker submitting
// its own ParallelFor) deadlock-free by construction — the nested
// caller drains its own range even when every worker is occupied.
//
// A pool may spin: a worker that has just run out of tasks, and a
// ParallelFor caller waiting for its helpers, poll for up to `spin`
// before they block. Parallel sections that follow each other within that time then
// find their threads awake, instead of paying a wake-up each.
class ThreadPool {
 public:
  // Spawns `num_workers` worker threads (clamped to >= 1; pass
  // HardwareThreads() - 1 to saturate the machine including the
  // caller) that spin for `spin` before blocking.
  explicit ThreadPool(size_t num_workers,
                      std::chrono::microseconds spin = {});
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Enqueues `task` for asynchronous execution. Safe to call from any
  // thread, including pool workers (nested submission). Tasks still
  // queued at destruction time are executed before shutdown completes.
  void Submit(std::function<void()> task);

  size_t worker_count() const { return workers_.size(); }
  std::chrono::microseconds spin() const { return spin_; }

  // max(1, std::thread::hardware_concurrency()).
  static size_t HardwareThreads();

 private:
  struct WorkerQueue {
    std::mutex mu;
    std::deque<std::function<void()>> tasks;
  };

  // Pops a task (own queue front, else steal a sibling's back) and runs
  // it. Returns false when every queue is empty.
  bool TryRunOneTask(size_t home);
  void WorkerLoop(size_t index);

  std::chrono::microseconds spin_;
  std::vector<std::unique_ptr<WorkerQueue>> queues_;
  std::vector<std::thread> workers_;

  // Guards the sleep/wake protocol: queued_ is incremented under
  // idle_mu_ so a worker checking "anything to do?" cannot miss a
  // submission that lands between its check and its wait.
  std::mutex idle_mu_;
  std::condition_variable idle_cv_;
  std::atomic<size_t> queued_{0};
  std::atomic<size_t> next_queue_{0};
  std::atomic<bool> stopping_{false};
};

// Runs body(i) for every i in [0, n), recruiting `pool`'s workers when
// one is provided (nullptr or an empty range runs inline). The calling
// thread always participates. Exceptions thrown by `body` are captured
// as Status::Internal. On failure the returned Status is the error of
// the LOWEST failing index, independent of thread interleaving, so
// error reporting is as deterministic as the results themselves.
//
// `busy_nanos`, when non-null, accumulates the summed wall time every
// participating thread spent inside `body` — the numerator of the
// per-phase speedup estimate busy / elapsed.
Status ParallelFor(ThreadPool* pool, size_t n,
                   const std::function<Status(size_t)>& body,
                   std::atomic<uint64_t>* busy_nanos = nullptr);

}  // namespace sama

#endif  // SAMA_COMMON_THREAD_POOL_H_
