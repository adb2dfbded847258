// A small fixed-size worker pool for the daemon's connection handlers and
// batch work outside a profiling job (benchmark harnesses). Every fork
// inside a job goes to the process scheduler (support/scheduler.h)
// instead. Deliberately minimal: submit
// `void()` jobs, then `wait()` for the batch to drain. Results are
// communicated through pre-sized output slots owned by the caller, so jobs
// never contend on shared mutable state.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace cb {

class ThreadPool {
 public:
  /// Spawns `numThreads` workers (clamped to >= 1). A pool of size 1 still
  /// runs jobs on its single worker thread, preserving one code path.
  explicit ThreadPool(uint32_t numThreads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a job. Safe to call from any thread, including from inside a
  /// running job (jobs may fan out further work before the batch drains).
  void submit(std::function<void()> job);

  /// Blocks until every submitted job has finished. The pool is reusable
  /// afterwards: submit/wait cycles can repeat.
  ///
  /// Exception safety: if any job of the batch threw, the FIRST captured
  /// exception is rethrown here (the worker thread itself never terminates
  /// the process). Later exceptions of the same batch are dropped; the pool
  /// stays usable for the next submit/wait cycle.
  void wait();

  uint32_t size() const { return static_cast<uint32_t>(threads_.size()); }

  /// Hardware concurrency, clamped to >= 1 (hardware_concurrency() may
  /// return 0 on exotic platforms).
  static uint32_t defaultConcurrency();

  /// Width for a user-requested thread count: 0 means hardware
  /// concurrency, and no request gets more than the hardware has. Every
  /// width flag (--replay-threads, --pm-workers) resolves through this into
  /// a TaskGroup cap; widths are byte-invariant, so the cap never changes a
  /// result.
  static uint32_t boundedWidth(uint32_t requested);

 private:
  void workerLoop();

  std::vector<std::thread> threads_;
  std::deque<std::function<void()>> queue_;
  std::mutex mu_;
  std::condition_variable workAvailable_;
  std::condition_variable batchDone_;
  uint64_t pending_ = 0;  // queued + running jobs
  std::exception_ptr firstError_;  // first exception thrown by a job
  bool shutdown_ = false;
};

}  // namespace cb
