#include "support/scheduler.h"

#include <algorithm>
#include <utility>

#include "support/thread_pool.h"

namespace cb {

Scheduler& Scheduler::instance() {
  static Scheduler s;
  return s;
}

Scheduler::Scheduler() : width_(ThreadPool::defaultConcurrency()) {}

Scheduler::~Scheduler() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  workAvailable_.notify_all();
  for (std::thread& t : threads_) t.join();
}

uint32_t Scheduler::threadsStarted() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<uint32_t>(threads_.size());
}

void Scheduler::submit(TaskGroup& g, std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (threads_.empty()) {
      threads_.reserve(width_);
      for (uint32_t i = 0; i < width_; ++i) threads_.emplace_back([this] { workerLoop(); });
    }
    if (g.queue_.empty()) ready_.push_back(&g);
    g.queue_.push_back(std::move(task));
    ++g.pending_;
  }
  workAvailable_.notify_one();
}

TaskGroup* Scheduler::pickLocked() {
  for (size_t i = ready_.size(); i > 0; --i)
    if (ready_[i - 1]->running_ < ready_[i - 1]->cap_) return ready_[i - 1];
  return nullptr;
}

void Scheduler::runOneLocked(std::unique_lock<std::mutex>& lock, TaskGroup& g) {
  std::function<void()> task = std::move(g.queue_.front());
  g.queue_.pop_front();
  if (g.queue_.empty()) ready_.erase(std::find(ready_.begin(), ready_.end(), &g));
  ++g.running_;
  lock.unlock();
  std::exception_ptr err;
  try {
    task();
  } catch (...) {
    err = std::current_exception();
  }
  task = nullptr;  // captured state dies outside the lock
  lock.lock();
  --g.running_;
  --g.pending_;
  if (err && !g.error_) g.error_ = std::move(err);
  bool more = !g.queue_.empty();
  // Last touch of `g`: once the lock drops, a finished group may be gone.
  g.changed_.notify_all();
  if (more) workAvailable_.notify_one();  // a slot under g's cap came free
}

void Scheduler::workerLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    TaskGroup* g = nullptr;
    workAvailable_.wait(lock, [&] { return shutdown_ || (g = pickLocked()) != nullptr; });
    if (shutdown_) return;
    runOneLocked(lock, *g);
  }
}

TaskGroup::TaskGroup(uint32_t cap)
    : sched_(Scheduler::instance()), cap_(cap != 0 ? cap : sched_.width()) {}

TaskGroup::~TaskGroup() {
  try {
    wait();
  } catch (...) {
    // The owner is unwinding (or never waited): the error has no one to go to.
  }
}

void TaskGroup::wait() {
  std::unique_lock<std::mutex> lock(sched_.mu_, std::defer_lock);
  if (cap_ > 1) {
    lock.lock();
    while (pending_ != 0) {
      if (!queue_.empty() && running_ < cap_) sched_.runOneLocked(lock, *this);
      else changed_.wait(lock);
    }
  }
  std::exception_ptr err = std::exchange(error_, nullptr);
  if (lock.owns_lock()) lock.unlock();
  if (err) std::rethrow_exception(err);
}

}  // namespace cb
