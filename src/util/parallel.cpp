#include "util/parallel.h"

#include <string>
#include <utility>

#include "util/error.h"

namespace sid::util {

ThreadPool::ThreadPool(std::size_t threads)
    : threads_(threads == 0 ? 1 : threads) {
  workers_.reserve(threads_ - 1);
  for (std::size_t w = 1; w < threads_; ++w) {
    workers_.emplace_back([this, w] { worker_loop(w); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const LockGuard lock(mu_);
    stop_ = true;
  }
  job_ready_.notify_all();
  for (auto& t : workers_) t.join();
}

void ThreadPool::run_chunk(std::size_t worker_index, std::size_t n,
                           const std::function<void(std::size_t)>& body) {
  // Static chunking: worker w owns [w*n/T, (w+1)*n/T). The bounds depend
  // only on (n, T), so the set of indices each worker executes — and
  // therefore every output slot it writes — is scheduling-independent.
  const std::size_t begin = worker_index * n / threads_;
  const std::size_t end = (worker_index + 1) * n / threads_;
  try {
    for (std::size_t i = begin; i < end; ++i) body(i);
  } catch (...) {
    const LockGuard lock(mu_);
    if (!job_.error) job_.error = std::current_exception();
  }
}

void ThreadPool::worker_loop(std::size_t worker_index) {
  std::size_t seen_generation = 0;
  for (;;) {
    // Snapshot the job description under the lock; the snapshot (not the
    // guarded job_ fields) feeds the lock-free chunk execution. The
    // pointee stays valid until parallel_for returns, which cannot happen
    // before this worker decrements pending below.
    std::size_t n = 0;
    const std::function<void(std::size_t)>* body = nullptr;
    {
      const LockGuard lock(mu_);
      while (!stop_ && job_.generation == seen_generation) {
        job_ready_.wait(mu_);
      }
      if (stop_) return;
      seen_generation = job_.generation;
      n = job_.n;
      body = job_.body;
    }
    run_chunk(worker_index, n, *body);
    bool last = false;
    {
      const LockGuard lock(mu_);
      last = --job_.pending == 0;
    }
    if (last) job_done_.notify_one();
  }
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& body) {
  if (n == 0) return;
  if (threads_ == 1 || n == 1) {
    for (std::size_t i = 0; i < n; ++i) body(i);
    return;
  }
  {
    const LockGuard lock(mu_);
    job_.n = n;
    job_.body = &body;
    job_.pending = threads_ - 1;
    job_.error = nullptr;
    ++job_.generation;
  }
  job_ready_.notify_all();
  run_chunk(0, n, body);  // the caller is worker 0
  std::exception_ptr error;
  {
    const LockGuard lock(mu_);
    while (job_.pending != 0) job_done_.wait(mu_);
    job_.body = nullptr;
    error = std::exchange(job_.error, nullptr);
  }
  if (error) std::rethrow_exception(error);
}

void parallel_for(ThreadPool* pool, std::size_t n,
                  const std::function<void(std::size_t)>& body) {
  if (pool == nullptr || pool->thread_count() == 1) {
    for (std::size_t i = 0; i < n; ++i) body(i);
    return;
  }
  pool->parallel_for(n, body);
}

std::size_t hardware_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

std::size_t checked_thread_count(std::size_t threads) {
  const std::size_t cap = 4 * hardware_threads();
  require(threads <= cap, "thread count " + std::to_string(threads) +
                              " exceeds 4 x hardware threads (" +
                              std::to_string(cap) + ")");
  return threads;
}

}  // namespace sid::util
