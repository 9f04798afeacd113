#include "runtime/scheduler.h"

#include <algorithm>
#include <exception>
#include <memory>
#include <utility>

#include "support/error.h"

namespace parfact::rt {
namespace {

/// Shared run state for one graph execution. Workers are the pool threads
/// plus the caller (worker 0); each owns a mutex-guarded binary max-heap of
/// ready task indices keyed by critical-path priority.
class Run {
 public:
  Run(TaskGraph& graph, int n_workers, CancelToken cancel)
      : graph_(graph),
        cancel_(std::move(cancel)),
        n_workers_(n_workers),
        workers_(static_cast<std::size_t>(n_workers)),
        remaining_(graph.n_tasks()),
        pending_(new std::atomic<index_t>[static_cast<std::size_t>(
            graph.n_tasks())]) {
    // Seed: initial ready tasks round-robin across workers so leaf subtrees
    // start spread out; stealing rebalances from there.
    int w = 0;
    for (index_t t = 0; t < graph_.n_tasks(); ++t) {
      const index_t deps = graph_.node(t).n_deps;
      pending_[static_cast<std::size_t>(t)].store(deps,
                                                  std::memory_order_relaxed);
      if (deps == 0) {
        workers_[static_cast<std::size_t>(w)].heap.push_back(t);
        w = (w + 1) % n_workers_;
      }
    }
    for (auto& wk : workers_)
      std::make_heap(wk.heap.begin(), wk.heap.end(), HeapLess{&graph_});
  }

  void worker_main(int id) {
    Worker& me = workers_[static_cast<std::size_t>(id)];
    while (!done()) {
      index_t t = kNone;
      {
        std::lock_guard<std::mutex> lk(me.mu);
        t = pop_locked(me);
      }
      if (t == kNone) t = steal(id);
      if (t == kNone) {
        park(id);
        continue;
      }
      execute(id, t);
    }
  }

  void collect(SchedulerStats& stats) const {
    for (const Worker& w : workers_) {
      stats.executed += w.executed;
      stats.steals += w.steals;
      stats.stolen += w.stolen;
    }
  }

  void rethrow_if_error() {
    if (error_) std::rethrow_exception(error_);
  }

 private:
  struct HeapLess {
    TaskGraph* g;
    bool operator()(index_t a, index_t b) const {
      const double pa = g->node(a).priority;
      const double pb = g->node(b).priority;
      if (pa != pb) return pa < pb;
      return a > b;  // FIFO among equal priorities
    }
  };

  struct alignas(64) Worker {
    std::mutex mu;
    std::vector<index_t> heap;
    std::int64_t executed = 0;
    std::int64_t steals = 0;
    std::int64_t stolen = 0;
  };

  [[nodiscard]] bool done() const {
    return stop_.load(std::memory_order_acquire) ||
           remaining_.load(std::memory_order_acquire) == 0;
  }

  index_t pop_locked(Worker& w) {
    if (w.heap.empty()) return kNone;
    std::pop_heap(w.heap.begin(), w.heap.end(), HeapLess{&graph_});
    const index_t t = w.heap.back();
    w.heap.pop_back();
    return t;
  }

  /// Scans victims starting after `id`; takes the top half of the first
  /// non-empty heap found (highest-priority tasks migrate with the thief,
  /// so a stranded critical-path chain resumes immediately).
  index_t steal(int id) {
    Worker& me = workers_[static_cast<std::size_t>(id)];
    for (int hop = 1; hop < n_workers_; ++hop) {
      Worker& victim = workers_[static_cast<std::size_t>((id + hop) %
                                                         n_workers_)];
      std::vector<index_t> loot;
      {
        std::lock_guard<std::mutex> lk(victim.mu);
        const std::size_t n = victim.heap.size();
        if (n == 0) continue;
        const std::size_t take = (n + 1) / 2;
        loot.reserve(take);
        for (std::size_t i = 0; i < take; ++i) {
          std::pop_heap(victim.heap.begin(), victim.heap.end(),
                        HeapLess{&graph_});
          loot.push_back(victim.heap.back());
          victim.heap.pop_back();
        }
      }
      me.steals += 1;
      me.stolen += static_cast<std::int64_t>(loot.size());
      const index_t t = loot.front();  // highest priority: run it now
      if (loot.size() > 1) {
        std::lock_guard<std::mutex> lk(me.mu);
        for (std::size_t i = 1; i < loot.size(); ++i)
          me.heap.push_back(loot[i]);
        std::make_heap(me.heap.begin(), me.heap.end(), HeapLess{&graph_});
      }
      return t;
    }
    return kNone;
  }

  void execute(int id, index_t t) {
    Worker& me = workers_[static_cast<std::size_t>(id)];
    TaskGraph::Node& node = graph_.node(t);
    try {
      // One cancellation poll per task keeps the response latency bounded
      // by a single task granule; the throw reuses the error-drain path.
      cancel_.throw_if_cancelled();
      if (node.fn) node.fn();
    } catch (...) {
      {
        std::lock_guard<std::mutex> lk(sleep_mu_);
        if (!error_) error_ = std::current_exception();
        stop_.store(true, std::memory_order_release);
        ++epoch_;
      }
      sleep_cv_.notify_all();
      return;
    }
    node.fn = nullptr;  // release captured buffers as the graph drains
    ++me.executed;

    // Completions release successors onto *this* worker's heap (cache
    // affinity along dependency chains); sleepers get woken if any.
    int released = 0;
    {
      std::lock_guard<std::mutex> lk(me.mu);
      for (index_t succ : node.out) {
        if (pending_[static_cast<std::size_t>(succ)].fetch_sub(
                1, std::memory_order_acq_rel) == 1) {
          me.heap.push_back(succ);
          std::push_heap(me.heap.begin(), me.heap.end(), HeapLess{&graph_});
          ++released;
        }
      }
    }
    const index_t left =
        remaining_.fetch_sub(1, std::memory_order_acq_rel) - 1;
    if (left == 0 || (released > 0 &&
                      sleepers_.load(std::memory_order_acquire) > 0)) {
      {
        std::lock_guard<std::mutex> lk(sleep_mu_);
        ++epoch_;
      }
      sleep_cv_.notify_all();
    }
  }

  /// Blocks until new work may exist. The final heap re-scan under
  /// sleep_mu_ closes the lost-wakeup window: a producer bumps epoch_ under
  /// the same mutex *after* publishing to a heap, so either the scan sees
  /// the task or the epoch change wakes us.
  void park(int id) {
    std::unique_lock<std::mutex> lk(sleep_mu_);
    const std::uint64_t seen = epoch_;
    if (done()) return;
    for (int w = 0; w < n_workers_; ++w) {
      Worker& other = workers_[static_cast<std::size_t>(w)];
      std::lock_guard<std::mutex> hk(other.mu);
      if (!other.heap.empty()) return;  // retry the pop/steal cycle
    }
    (void)id;
    sleepers_.fetch_add(1, std::memory_order_acq_rel);
    sleep_cv_.wait(lk, [&] { return epoch_ != seen || done(); });
    sleepers_.fetch_sub(1, std::memory_order_acq_rel);
  }

  TaskGraph& graph_;
  const CancelToken cancel_;
  const int n_workers_;
  std::vector<Worker> workers_;
  std::atomic<index_t> remaining_;
  std::unique_ptr<std::atomic<index_t>[]> pending_;
  std::atomic<bool> stop_{false};
  std::atomic<int> sleepers_{0};

  std::mutex sleep_mu_;
  std::condition_variable sleep_cv_;
  std::uint64_t epoch_ = 0;  // guarded by sleep_mu_
  std::exception_ptr error_;  // guarded by sleep_mu_
};

}  // namespace

SchedulerStats run_graph(TaskGraph& graph, ThreadPool& pool,
                         CancelToken cancel) {
  graph.seal();
  SchedulerStats stats;
  if (graph.n_tasks() == 0) return stats;

  const int n_workers = pool.size() + 1;  // pool threads + caller
  Run run(graph, n_workers, std::move(cancel));
  // Waits only for this run's workers: other callers may share the pool.
  // A worker task still queued when the run is drained returns at once.
  TaskGroup workers(pool);
  for (int w = 1; w < n_workers; ++w)
    workers.submit([&run, w] { run.worker_main(w); });
  run.worker_main(0);
  workers.wait();
  run.rethrow_if_error();
  run.collect(stats);
  return stats;
}

}  // namespace parfact::rt
