// WorkerPool: a persistent fork-join pool, spawned once and reused for
// many dispatches (spawning threads per dispatch would dominate small
// units of work). Its one user is the evaluator's intra-query parallel
// fixpoint rounds (DESIGN.md §5a); the query service runs its own worker
// threads and does not use it.
//
// Run(parts, fn) executes fn(0), fn(1), ..., fn(parts-1) across the pool
// threads *plus the caller* and blocks until all parts finish. Parts are
// claimed dynamically (atomic counter), so uneven part costs balance
// across threads. Run is not reentrant and must always be called from the
// same owner thread; fn must be safe to invoke concurrently for distinct
// parts.

#ifndef EXDL_UTIL_WORKER_POOL_H_
#define EXDL_UTIL_WORKER_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace exdl {

class WorkerPool {
 public:
  /// Spawns `extra_threads` workers; Run uses them plus the calling
  /// thread, so total parallelism is extra_threads + 1.
  explicit WorkerPool(uint32_t extra_threads) {
    threads_.reserve(extra_threads);
    for (uint32_t i = 0; i < extra_threads; ++i) {
      threads_.emplace_back([this] { WorkerLoop(); });
    }
  }

  ~WorkerPool() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      shutdown_ = true;
    }
    start_.notify_all();
    for (std::thread& t : threads_) t.join();
  }

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Number of threads Run engages, including the caller.
  uint32_t parallelism() const {
    return static_cast<uint32_t>(threads_.size()) + 1;
  }

  void Run(uint32_t parts, const std::function<void(uint32_t)>& fn) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      job_ = &fn;
      parts_ = parts;
      next_part_.store(0, std::memory_order_relaxed);
      // Every pool thread plus the caller checks in once per generation,
      // so Run cannot return (and fn cannot be destroyed) while any
      // worker is still inside the part loop.
      working_ = static_cast<uint32_t>(threads_.size()) + 1;
      ++generation_;
    }
    start_.notify_all();
    RunParts(fn);
    std::unique_lock<std::mutex> lock(mutex_);
    CheckIn(lock);
    done_.wait(lock, [this] { return working_ == 0; });
    job_ = nullptr;
  }

 private:
  void RunParts(const std::function<void(uint32_t)>& fn) {
    uint32_t part;
    while ((part = next_part_.fetch_add(1, std::memory_order_relaxed)) <
           parts_) {
      fn(part);
    }
  }

  /// Marks this participant done with the current generation. Requires
  /// `lock` held on mutex_.
  void CheckIn(std::unique_lock<std::mutex>& lock) {
    (void)lock;
    if (--working_ == 0) done_.notify_all();
  }

  void WorkerLoop() {
    uint64_t seen = 0;
    while (true) {
      const std::function<void(uint32_t)>* job = nullptr;
      {
        std::unique_lock<std::mutex> lock(mutex_);
        start_.wait(lock,
                    [&] { return shutdown_ || generation_ != seen; });
        if (shutdown_) return;
        seen = generation_;
        job = job_;
      }
      if (job != nullptr) RunParts(*job);
      std::unique_lock<std::mutex> lock(mutex_);
      CheckIn(lock);
    }
  }

  std::vector<std::thread> threads_;
  std::mutex mutex_;
  std::condition_variable start_;
  std::condition_variable done_;
  const std::function<void(uint32_t)>* job_ = nullptr;
  uint32_t parts_ = 0;
  std::atomic<uint32_t> next_part_{0};
  uint32_t working_ = 0;  ///< Participants not yet checked in this generation.
  uint64_t generation_ = 0;
  bool shutdown_ = false;
};

}  // namespace exdl

#endif  // EXDL_UTIL_WORKER_POOL_H_
