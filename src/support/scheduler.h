// The process-wide task scheduler. Every fork in the program — simulated
// locale pipelines, parallel-replay worker streams and post-mortem shards —
// is a task of a TaskGroup on one shared set of worker threads, so nested
// forks cannot multiply the thread count: the hardware budget is held once,
// and a daemon's in-flight jobs divide it by sharing the workers.
//
//   TaskGroup g(cap);            // at most `cap` of g's tasks run at once
//   for (...) g.run([&] { ... });
//   g.wait();                    // helps: runs g's own queued tasks
//
// Workers start on the first task that is actually forked, so a job that
// never forks starts no thread, and idle workers block on a condition
// variable (they never spin). An idle worker takes a queued task from any
// group, preferring the newest (the innermost fork its parent waits on); a
// thread waiting on a group runs only that group's tasks, so one job never
// executes another job's work inside its join, and a waiter never sleeps
// while its group has a task it could run: nested waits neither deadlock
// nor oversubscribe.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace cb {

class TaskGroup;

class Scheduler {
 public:
  /// The one scheduler of the process (workers not yet started).
  static Scheduler& instance();

  ~Scheduler();
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Worker threads the scheduler runs once started: hardware concurrency.
  uint32_t width() const { return width_; }

  /// Worker threads started so far: 0 until the first forked task.
  uint32_t threadsStarted() const;

 private:
  friend class TaskGroup;

  Scheduler();

  void submit(TaskGroup& g, std::function<void()> task);
  /// A group with a queued task and a free slot under its cap (newest
  /// first), or null. Requires mu_.
  TaskGroup* pickLocked();
  /// Runs the front task of `g` with mu_ released around the call.
  void runOneLocked(std::unique_lock<std::mutex>& lock, TaskGroup& g);
  void workerLoop();

  const uint32_t width_;
  mutable std::mutex mu_;
  std::condition_variable workAvailable_;
  std::vector<TaskGroup*> ready_;  // groups with queued tasks, oldest first
  bool shutdown_ = false;
  std::vector<std::thread> threads_;  // last: the workers use the members above
};

/// A set of tasks joined together. Tasks may fork further groups (a task
/// on a worker may itself wait); `wait()` rethrows the first exception a
/// task of this group threw, and no other group ever sees it.
class TaskGroup {
 public:
  /// `cap` bounds how many of this group's tasks run at once, the waiting
  /// thread included; 0 means the scheduler's width. A cap of 1 runs every
  /// task inline inside run(), on the calling thread, and never touches the
  /// scheduler: that is how small forks stay off the workers.
  explicit TaskGroup(uint32_t cap = 0);
  /// Waits for outstanding tasks; their exceptions are dropped.
  ~TaskGroup();

  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  template <class F>
  void run(F&& task) {
    if (cap_ > 1) {
      sched_.submit(*this, std::function<void()>(std::forward<F>(task)));
      return;
    }
    try {
      task();
    } catch (...) {
      if (!error_) error_ = std::current_exception();
    }
  }

  /// Blocks until every task of the group has finished, running the
  /// group's queued tasks on this thread meanwhile. Rethrows the group's
  /// first exception; the group is reusable afterwards.
  void wait();

 private:
  friend class Scheduler;

  Scheduler& sched_;
  const uint32_t cap_;
  std::deque<std::function<void()>> queue_;  // guarded by sched_.mu_
  uint32_t running_ = 0;                     // guarded by sched_.mu_
  uint64_t pending_ = 0;                     // queued + running, guarded
  std::exception_ptr error_;                 // guarded (inline groups: owner only)
  std::condition_variable changed_;          // a task finished
};

}  // namespace cb
