#include "support/thread_pool.h"

#include <algorithm>
#include <utility>

namespace parfact {

ThreadPool::ThreadPool(int n_threads) {
  PARFACT_CHECK(n_threads >= 1);
  workers_.reserve(static_cast<std::size_t>(n_threads));
  for (int i = 0; i < n_threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutting_down_ = true;
  }
  work_available_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::run(Task task) {
  std::exception_ptr err;
  try {
    task.fn();
  } catch (...) {
    err = std::current_exception();
  }
  task.fn = nullptr;  // drop the captures before the owner may return
  std::lock_guard<std::mutex> lock(mu_);
  TaskGroup& group = *task.group;
  if (err && !group.first_error_) group.first_error_ = err;
  // The group may be destroyed as soon as its count reaches zero and the
  // lock is released: it is not touched after this point.
  if (--group.pending_ == 0) group_progress_.notify_all();
}

void ThreadPool::worker_loop() {
  for (;;) {
    Task task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_available_.wait(
          lock, [this] { return shutting_down_ || !queue_.empty(); });
      if (queue_.empty()) return;  // shutting down and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    run(std::move(task));
  }
}

TaskGroup::~TaskGroup() {
  // Tasks are still pending here only when the caller unwinds past wait()
  // with an error of its own; theirs is dropped with the group.
  std::unique_lock<std::mutex> lock(pool_.mu_);
  drain(lock);
}

void TaskGroup::submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(pool_.mu_);
    PARFACT_CHECK_MSG(!pool_.shutting_down_, "submit() after shutdown");
    pool_.queue_.push_back(ThreadPool::Task{std::move(task), this});
    ++pending_;
  }
  pool_.work_available_.notify_one();
  // A waiting group runs its own queued tasks, nested submissions included.
  pool_.group_progress_.notify_all();
}

void TaskGroup::wait() {
  std::unique_lock<std::mutex> lock(pool_.mu_);
  drain(lock);
  if (first_error_) {
    std::exception_ptr err = std::exchange(first_error_, nullptr);
    lock.unlock();
    std::rethrow_exception(err);
  }
}

void TaskGroup::drain(std::unique_lock<std::mutex>& lock) {
  while (pending_ > 0) {
    const auto mine = std::find_if(
        pool_.queue_.begin(), pool_.queue_.end(),
        [this](const ThreadPool::Task& t) { return t.group == this; });
    if (mine == pool_.queue_.end()) {
      // Every remaining task is running on a worker.
      pool_.group_progress_.wait(lock);
      continue;
    }
    ThreadPool::Task task = std::move(*mine);
    pool_.queue_.erase(mine);
    lock.unlock();
    pool_.run(std::move(task));
    lock.lock();
  }
}

}  // namespace parfact
