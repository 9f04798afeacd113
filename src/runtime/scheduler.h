// Work-stealing scheduler executing a sealed TaskGraph on a ThreadPool.
//
// Each worker owns a priority heap of ready tasks; completing a task
// decrements its successors' pending counters (atomics) and pushes newly
// ready tasks onto the *finishing* worker's heap, so dependency chains stay
// on one core (warm caches along the elimination path). An empty worker
// steals the top half of a victim's heap — highest-priority tasks included,
// so a long critical-path chain stranded behind a busy worker migrates
// instead of stalling the makespan. Idle workers park on a condition
// variable and are woken whenever new work appears.
//
// The scheduler never changes *what* is computed, only *when and where*:
// graphs built under the determinism contract (task_graph.h) produce
// bitwise-identical results under any steal interleaving.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <vector>

#include "runtime/task_graph.h"
#include "support/resource.h"
#include "support/thread_pool.h"
#include "support/types.h"

namespace parfact::rt {

/// Counters for tests and bench output (aggregated over all workers).
struct SchedulerStats {
  std::int64_t executed = 0;  ///< tasks run (== graph.n_tasks() on success)
  std::int64_t steals = 0;    ///< successful steal operations
  std::int64_t stolen = 0;    ///< tasks moved by those steals
};

/// Runs every task of `graph` (sealing it if needed) across `pool`'s
/// workers plus the calling thread. Blocks until the graph is drained.
/// Rethrows the first task exception; remaining tasks are abandoned (their
/// side effects may be partial — callers treat the operation as failed).
///
/// Cooperative cancellation: workers poll `cancel` once per task, before
/// running it. A tripped token stops the run within one task granule via
/// the same drain path as a task exception — in-flight tasks finish, the
/// rest are abandoned, and StatusError(kCancelled / kDeadlineExceeded) is
/// rethrown here with the pool immediately reusable.
SchedulerStats run_graph(TaskGraph& graph, ThreadPool& pool,
                         CancelToken cancel = {});

/// Reusable form for callers that want to run several graphs on one pool.
class WorkStealingScheduler {
 public:
  explicit WorkStealingScheduler(ThreadPool& pool) : pool_(pool) {}

  SchedulerStats run(TaskGraph& graph, CancelToken cancel = {});

 private:
  struct Worker;

  ThreadPool& pool_;
};

}  // namespace parfact::rt
