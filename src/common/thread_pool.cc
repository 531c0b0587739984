#include "common/thread_pool.h"

#include <chrono>
#include <exception>
#include <string>

#if defined(__linux__)
#include <sched.h>
#endif

namespace sama {

namespace {

void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

// Polls `ready` for up to `spin`; returns whether it turned true.
template <typename Ready>
bool SpinUntil(std::chrono::microseconds spin, Ready ready) {
  if (spin.count() <= 0) return false;
  const auto until = std::chrono::steady_clock::now() + spin;
  do {
    for (int i = 0; i < 64; ++i) {
      if (ready()) return true;
      CpuRelax();
    }
  } while (std::chrono::steady_clock::now() < until);
  return ready();
}

}  // namespace

ThreadPool::ThreadPool(size_t num_workers, std::chrono::microseconds spin)
    : spin_(spin) {
  size_t n = num_workers == 0 ? 1 : num_workers;
  queues_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    queues_.push_back(std::make_unique<WorkerQueue>());
  }
  workers_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(idle_mu_);
    stopping_.store(true, std::memory_order_release);
  }
  idle_cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

size_t ThreadPool::HardwareThreads() {
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<size_t>(hw);
}

void ThreadPool::Submit(std::function<void()> task) {
  size_t q = next_queue_.fetch_add(1, std::memory_order_relaxed) %
             queues_.size();
  {
    std::lock_guard<std::mutex> lock(queues_[q]->mu);
    queues_[q]->tasks.push_back(std::move(task));
  }
  {
    // queued_ increments under idle_mu_ so a worker deciding to sleep
    // cannot miss this submission (its predicate re-check holds the
    // same mutex).
    std::lock_guard<std::mutex> lock(idle_mu_);
    queued_.fetch_add(1, std::memory_order_release);
  }
  idle_cv_.notify_one();
}

bool ThreadPool::TryRunOneTask(size_t home) {
  std::function<void()> task;
  const size_t n = queues_.size();
  for (size_t probe = 0; probe < n; ++probe) {
    size_t q = (home + probe) % n;
    WorkerQueue& wq = *queues_[q];
    std::lock_guard<std::mutex> lock(wq.mu);
    if (wq.tasks.empty()) continue;
    if (probe == 0) {
      // Own queue: FIFO keeps submission order for fairness.
      task = std::move(wq.tasks.front());
      wq.tasks.pop_front();
    } else {
      // Steal from the back to minimise contention with the owner.
      task = std::move(wq.tasks.back());
      wq.tasks.pop_back();
    }
    break;
  }
  if (!task) return false;
  queued_.fetch_sub(1, std::memory_order_relaxed);
  task();
  return true;
}

void ThreadPool::WorkerLoop(size_t index) {
  bool ran = false;
  while (true) {
    if (TryRunOneTask(index)) {
      ran = true;
      continue;
    }
    // A worker that has just run a task spins first: a task queued
    // meanwhile runs without a wake-up.
    if (ran && SpinUntil(spin_, [this] {
          return queued_.load(std::memory_order_acquire) > 0 ||
                 stopping_.load(std::memory_order_acquire);
        }) &&
        !stopping_.load(std::memory_order_acquire)) {
      continue;
    }
    ran = false;
    std::unique_lock<std::mutex> lock(idle_mu_);
    idle_cv_.wait(lock, [this] {
      return stopping_.load(std::memory_order_acquire) ||
             queued_.load(std::memory_order_acquire) > 0;
    });
    if (stopping_.load(std::memory_order_acquire) &&
        queued_.load(std::memory_order_acquire) == 0) {
      return;
    }
  }
}

namespace {

// Shared state of one ParallelFor call. Helper tasks may outlive the
// call (they stay queued until a worker gets to them and then find the
// range exhausted), hence the shared_ptr ownership.
struct ParallelForState {
  size_t n = 0;
  const std::function<Status(size_t)>* body = nullptr;
  std::atomic<uint64_t>* busy_nanos = nullptr;
  int caller_cpu = -1;  // The CPU the caller submitted from, if known.
  std::atomic<size_t> next{0};
  std::atomic<size_t> done{0};

  std::mutex mu;
  std::condition_variable cv;
  // Error of the lowest failing index (deterministic across runs).
  size_t error_index = SIZE_MAX;
  Status error;
};

// The CPU the calling thread runs on, or -1 where that is unknown.
int CurrentCpu() {
#if defined(__linux__)
  return sched_getcpu();
#else
  return -1;
#endif
}

// Moves the calling thread off `cpu` when it runs there, by excluding
// `cpu` from its affinity mask for a moment; the thread stays on the CPU
// the kernel moves it to. The kernel can wake a helper on its caller's
// CPU, where it runs only when the caller does not, and then wakes it
// there again: on a 4-vCPU KVM guest after an idle spell, every helper
// of a 3-worker pool ran on its caller's CPU for seconds, and forest
// search ran no faster than on one thread.
void LeaveCpu(int cpu) {
#if defined(__linux__)
  if (cpu < 0 || sched_getcpu() != cpu) return;
  cpu_set_t allowed;
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
  cpu_set_t others = allowed;
  CPU_CLR(cpu, &others);
  if (CPU_COUNT(&others) == 0) return;
  if (sched_setaffinity(0, sizeof(others), &others) == 0) {
    sched_setaffinity(0, sizeof(allowed), &allowed);
  }
#else
  (void)cpu;
#endif
}

// Claims indices until the range is exhausted. Runs in the caller and
// in every recruited helper task.
void DrainRange(const std::shared_ptr<ParallelForState>& state) {
  using Clock = std::chrono::steady_clock;
  while (true) {
    size_t i = state->next.fetch_add(1, std::memory_order_relaxed);
    if (i >= state->n) return;
    Clock::time_point start = Clock::now();
    Status s;
    try {
      s = (*state->body)(i);
    } catch (const std::exception& e) {
      s = Status::Internal(std::string("uncaught exception: ") + e.what());
    } catch (...) {
      s = Status::Internal("uncaught non-std exception");
    }
    if (state->busy_nanos != nullptr) {
      uint64_t nanos = static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                               start)
              .count());
      state->busy_nanos->fetch_add(nanos, std::memory_order_relaxed);
    }
    if (!s.ok()) {
      std::lock_guard<std::mutex> lock(state->mu);
      if (i < state->error_index) {
        state->error_index = i;
        state->error = s;
      }
    }
    if (state->done.fetch_add(1, std::memory_order_acq_rel) + 1 ==
        state->n) {
      std::lock_guard<std::mutex> lock(state->mu);
      state->cv.notify_all();
    }
  }
}

}  // namespace

Status ParallelFor(ThreadPool* pool, size_t n,
                   const std::function<Status(size_t)>& body,
                   std::atomic<uint64_t>* busy_nanos) {
  if (n == 0) return Status::Ok();
  auto state = std::make_shared<ParallelForState>();
  state->n = n;
  state->body = &body;
  state->busy_nanos = busy_nanos;
  size_t helpers =
      pool == nullptr ? 0 : std::min(pool->worker_count(), n - 1);
  if (helpers > 0) state->caller_cpu = CurrentCpu();
  for (size_t h = 0; h < helpers; ++h) {
    pool->Submit([state] {
      LeaveCpu(state->caller_cpu);
      DrainRange(state);
    });
  }
  DrainRange(state);
  if (helpers > 0) {
    SpinUntil(pool->spin(), [&] {
      return state->done.load(std::memory_order_acquire) == n;
    });
  }
  {
    std::unique_lock<std::mutex> lock(state->mu);
    state->cv.wait(lock, [&] {
      return state->done.load(std::memory_order_acquire) == n;
    });
    return state->error;
  }
}

}  // namespace sama
