// Deterministic parallel execution (DESIGN.md §5g).
//
// A small fixed-size thread pool with a work-stealing-free parallel_for:
// the index range [0, n) is split into contiguous chunks by a pure
// function of (n, worker count), each worker owns its chunks outright, and
// the caller participates as worker 0. Because the partition never depends
// on runtime timing and workers share no mutable state through the loop
// body (each index writes only its own output slot), a parallel run is
// bit-identical to the serial loop — the property the determinism suite
// enforces (same seed => same hashes at any thread count).
//
// This header is the single concurrency funnel of the repository:
// scripts/lint.py (rule `thread-funnel`) bans raw std::thread/std::async
// everywhere else, so all parallelism inherits these ordering guarantees.
#pragma once

#include <cstddef>
#include <exception>
#include <functional>
#include <thread>
#include <vector>

#include "util/thread_annotations.h"

namespace sid::util {

/// Fixed-size pool of `thread_count() - 1` worker threads plus the calling
/// thread. Construction with threads <= 1 spawns nothing and parallel_for
/// degenerates to the plain serial loop.
class ThreadPool {
 public:
  /// `threads` is the total worker count including the caller; 0 is
  /// normalized to 1 (serial).
  explicit ThreadPool(std::size_t threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t thread_count() const { return threads_; }

  /// Runs body(i) for every i in [0, n), blocking until all complete.
  ///
  /// Partition: worker w (0 = caller) executes the contiguous index range
  /// [w*n/T, (w+1)*n/T) in ascending order — a pure function of (n, T),
  /// independent of scheduling. The body must not mutate state shared
  /// between indices; under that contract results are bit-identical to
  /// the serial loop for every T. The first exception thrown by any
  /// worker is rethrown on the calling thread after all workers finish.
  void parallel_for(std::size_t n,
                    const std::function<void(std::size_t)>& body);

 private:
  struct Job {
    std::size_t n = 0;
    const std::function<void(std::size_t)>* body = nullptr;
    std::size_t generation = 0;
    std::size_t pending = 0;  ///< workers still running this job
    std::exception_ptr error;
  };

  void worker_loop(std::size_t worker_index);
  /// Executes worker `worker_index`'s chunk of [0, n). The job description
  /// is passed by value/reference (snapshotted under mu_ by the caller),
  /// so the chunk itself runs lock-free; only error capture reacquires.
  void run_chunk(std::size_t worker_index, std::size_t n,
                 const std::function<void(std::size_t)>& body)
      SID_EXCLUDES(mu_);

  std::size_t threads_;
  std::vector<std::thread> workers_;
  Mutex mu_;
  CondVar job_ready_;
  CondVar job_done_;
  Job job_ SID_GUARDED_BY(mu_);
  bool stop_ SID_GUARDED_BY(mu_) = false;
};

/// Convenience wrapper: serial loop when `pool` is null or single-threaded,
/// pool->parallel_for otherwise. Lets call sites thread an optional pool
/// through without branching.
void parallel_for(ThreadPool* pool, std::size_t n,
                  const std::function<void(std::size_t)>& body);

/// Hardware thread count, normalized to >= 1 (hardware_concurrency may
/// report 0). Sizing hint only — it must never influence simulation
/// results, only how many workers compute them.
std::size_t hardware_threads();

/// Returns `threads` unchanged, or throws InvalidArgument when it exceeds
/// 4 x hardware_threads(). For worker counts that arrive from outside the
/// program (command-line flags), checked before any pool is built.
std::size_t checked_thread_count(std::size_t threads);

}  // namespace sid::util
