#include "support/thread_pool.h"

#include <algorithm>

namespace cb {

ThreadPool::ThreadPool(uint32_t numThreads) {
  uint32_t n = std::max<uint32_t>(1, numThreads);
  threads_.reserve(n);
  for (uint32_t i = 0; i < n; ++i) threads_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  workAvailable_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void ThreadPool::submit(std::function<void()> job) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(job));
    ++pending_;
  }
  workAvailable_.notify_one();
}

void ThreadPool::wait() {
  std::unique_lock<std::mutex> lock(mu_);
  batchDone_.wait(lock, [this] { return pending_ == 0; });
  if (firstError_) {
    std::exception_ptr e = std::move(firstError_);
    firstError_ = nullptr;
    std::rethrow_exception(e);
  }
}

uint32_t ThreadPool::defaultConcurrency() {
  return std::max(1u, std::thread::hardware_concurrency());
}

uint32_t ThreadPool::boundedWidth(uint32_t requested) {
  uint32_t hw = defaultConcurrency();
  return requested == 0 ? hw : std::min(requested, hw);
}

void ThreadPool::workerLoop() {
  for (;;) {
    std::function<void()> job;
    {
      std::unique_lock<std::mutex> lock(mu_);
      workAvailable_.wait(lock, [this] { return shutdown_ || !queue_.empty(); });
      if (queue_.empty()) return;  // shutdown with a drained queue
      job = std::move(queue_.front());
      queue_.pop_front();
    }
    std::exception_ptr err;
    try {
      job();
    } catch (...) {
      // A throwing job must not escape the worker thread (std::terminate);
      // capture the first failure of the batch and surface it from wait().
      err = std::current_exception();
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (err && !firstError_) firstError_ = std::move(err);
      if (--pending_ == 0) batchDone_.notify_all();
    }
  }
}

}  // namespace cb
