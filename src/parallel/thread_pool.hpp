// A small fixed-size thread pool. covstream runs on it the stream engine's
// shard workers (the pooled k-cover and sharded builds), the sketch ladder's
// distinct sketches, the greedy solver's large picks, the L0 bank, the serve
// fleet's connection tasks and bench sweeps. Results are bit-identical to
// serial execution because tasks touch disjoint state (DESIGN.md §5.5).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace covstream {

class ThreadPool {
 public:
  /// threads == 0 picks std::thread::hardware_concurrency() (at least 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t thread_count() const { return workers_.size(); }

  /// Enqueues a task. Tasks must not throw (std::terminate otherwise).
  void submit(std::function<void()> task);

  /// Blocks until every submitted task has finished.
  void wait_idle();

  /// Tasks submitted but not yet finished (queued + running). A live gauge
  /// for monitoring (the fleet server's `stats` reports it) — the value can
  /// be stale by the time the caller reads it.
  std::size_t pending_tasks() const;

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> queue_;
  mutable std::mutex mutex_;
  std::condition_variable work_available_;
  std::condition_variable all_done_;
  std::size_t in_flight_ = 0;
  bool shutting_down_ = false;
};

}  // namespace covstream
