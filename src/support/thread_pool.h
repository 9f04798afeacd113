// A small fixed-size thread pool.
//
// The shared-memory factorization path and the mpsim runtime both need
// structured concurrency; this pool provides it without any global state.
// Every task belongs to a TaskGroup — the pool's own for submit() — and
// the exceptions its tasks throw are captured and rethrown by that
// group's wait() only.
#pragma once

#include <condition_variable>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "support/error.h"

namespace parfact {

class ThreadPool;

/// The tasks one caller submits to a pool that other callers may share.
/// wait() returns as soon as *these* tasks are done and rethrows only their
/// errors: another caller's work on the pool neither delays it nor fails
/// it. Tasks of the group still queued behind other work when wait() is
/// called run on the waiting thread instead of waiting for a free worker.
class TaskGroup {
 public:
  explicit TaskGroup(ThreadPool& pool) : pool_(pool) {}
  /// Waits for the group's tasks so that none outlives what it references
  /// when the caller unwinds early; their errors are dropped.
  ~TaskGroup();

  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  void submit(std::function<void()> task);

  /// Blocks until every task submitted through this group has finished.
  /// Rethrows the first exception one of them raised (subsequent ones are
  /// dropped).
  void wait();

 private:
  friend class ThreadPool;
  /// Returns once no task of the group is pending, running the queued ones
  /// on this thread. `lock` holds pool_.mu_.
  void drain(std::unique_lock<std::mutex>& lock);

  ThreadPool& pool_;
  int pending_ = 0;                 // guarded by pool_.mu_
  std::exception_ptr first_error_;  // guarded by pool_.mu_
};

/// Fixed pool of worker threads executing queued tasks FIFO.
class ThreadPool {
 public:
  /// Creates `n_threads` workers (at least 1).
  explicit ThreadPool(int n_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task in the pool's own group.
  void submit(std::function<void()> task) { direct_.submit(std::move(task)); }

  /// wait() of the pool's own group: every task given to submit(), but not
  /// the tasks of other TaskGroups.
  void wait() { direct_.wait(); }

  [[nodiscard]] int size() const { return static_cast<int>(workers_.size()); }

 private:
  friend class TaskGroup;
  struct Task {
    std::function<void()> fn;
    TaskGroup* group = nullptr;
  };

  /// Runs a dequeued task and books its completion; called unlocked.
  void run(Task task);
  void worker_loop();

  std::mutex mu_;
  std::condition_variable work_available_;
  std::condition_variable group_progress_;
  std::deque<Task> queue_;
  std::vector<std::thread> workers_;
  bool shutting_down_ = false;
  TaskGroup direct_{*this};  // last: its destructor takes mu_
};

}  // namespace parfact
