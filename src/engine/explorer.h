#ifndef ACCLTL_ENGINE_EXPLORER_H_
#define ACCLTL_ENGINE_EXPLORER_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <thread>
#include <type_traits>
#include <vector>

#include "src/engine/cancel.h"
#include "src/engine/thread_pool.h"
#include "src/engine/work_deque.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace accltl {
namespace engine {

namespace internal {
/// Process-wide explorer instruments, resolved once per process (the
/// registry lookup takes a lock; hot loops use these cached pointers).
/// All are write-only from the workers — see the no-perturbation
/// contract in DESIGN.md §8.
struct ExplorerMetrics {
  obs::Counter* pops;
  obs::Counter* steals;
  obs::Counter* levels;
  obs::Counter* idle_wait_us;
  obs::Histogram* deque_depth;
  static const ExplorerMetrics& Get() {
    static const ExplorerMetrics m{
        obs::Registry::Get().counter("engine.pops"),
        obs::Registry::Get().counter("engine.steals"),
        obs::Registry::Get().counter("engine.levels"),
        obs::Registry::Get().counter("engine.idle_wait_us"),
        obs::Registry::Get().histogram("engine.deque_depth"),
    };
    return m;
  }
};
}  // namespace internal

/// Generic parallel state-space exploration driver with two traversal
/// disciplines over the same worker/deque substrate.
///
/// `Run` is free-running: each worker depth-firsts its own Chase-Lev
/// deque (LIFO) and steals the oldest node from a sibling when idle.
/// With one worker this is exactly a deterministic depth-first search;
/// with several, the visit order is schedule-dependent — callers whose
/// result must not depend on scheduling use `RunLevels`.
///
/// `RunLevels` is level-synchronous (the discipline of multi-core BFS
/// reachability à la LTSmin): workers consume one depth level from the
/// work-stealing deques in any order, children are collected
/// per-worker, and a caller-supplied `reduce` runs at the barrier over
/// the *complete* child set — so deduplication and result reduction
/// see the same deterministic batch whatever the schedule, and the
/// surviving frontier (hence every per-level statistic) is identical
/// at every worker count.
///
/// Budget (both modes): pops are counted in one atomic; the pop that
/// exceeds `max_nodes` is counted, not visited, and aborts the
/// exploration — the same "count, then cut" semantics the serial
/// searches use, now enforced globally across workers.
///
/// Termination of `Run`: an atomic pending-node count (incremented
/// before a push becomes visible, decremented after its visit
/// completes) lets idle workers distinguish "no work anywhere" from
/// "work in flight". `RunLevels` terminates a level when its processed
/// count reaches the level size.
template <typename Node>
class Explorer {
 public:
  struct Options {
    size_t num_threads = 1;
    /// Budget over popped nodes; exceeding it aborts with
    /// budget_exhausted set.
    size_t max_nodes = static_cast<size_t>(-1);
    /// Cooperative stop, polled at the same count-then-cut points as
    /// the budget (before each pop). A token that never fires never
    /// perturbs the exploration (the poll is read-only); a fired token
    /// aborts all workers and sets Stats::cancelled.
    const CancelToken* cancel = nullptr;
  };

  struct Stats {
    size_t nodes_explored = 0;
    bool budget_exhausted = false;
    /// True when the exploration stopped on abort (budget, visitor, or
    /// cancellation) rather than by draining the frontier.
    bool aborted = false;
    /// True when Options::cancel fired and stopped the exploration.
    bool cancelled = false;
    /// Level mode only: number of completed level barriers (the depth
    /// of the deepest fully-reduced frontier).
    size_t levels_completed = 0;
  };

  class Context;

  /// Level-synchronous exploration. Per level: workers drain the
  /// frontier through the work-stealing deques, calling
  /// `visit(std::unique_ptr<Node>, Context&)` which emits children via
  /// Context::Emit; at the barrier, `reduce` maps the per-worker child
  /// batches (ownership transferred as raw pointers, one vector per
  /// worker so the reducer can preserve allocation affinity) to the
  /// next frontier — dedup, pruning, reordering are the caller's
  /// policy. `reduce` runs on the calling thread between levels and
  /// may itself use the thread pool.
  ///
  /// Per-level aggregation hook: a reducer may instead take
  /// `(size_t level, batches)` — `level` is the depth of the children
  /// being reduced (1 for the roots' children), so callers that keep
  /// per-level statistics record them at the barrier without
  /// maintaining their own counter across calls.
  template <typename Visit, typename Reduce>
  Stats RunLevels(std::vector<std::unique_ptr<Node>> roots,
                  const Options& options, const Visit& visit,
                  const Reduce& reduce) {
    size_t workers = options.num_threads < 1 ? 1 : options.num_threads;
    // Don't touch (or lazily construct) the global pool for a serial
    // exploration.
    if (workers > 1) {
      workers = std::min(workers, ThreadPool::Global().size() + 1);
    }
    Shared shared(workers, options.max_nodes, options.cancel);
    std::vector<std::unique_ptr<Node>> frontier = std::move(roots);
    size_t level = 0;
    while (!frontier.empty() &&
           !shared.abort.load(std::memory_order_acquire)) {
      shared.level_size = frontier.size();
      shared.processed.store(0, std::memory_order_relaxed);
      for (auto& buffer : shared.emitted) buffer.clear();
      {
        obs::Span level_span("level", static_cast<int64_t>(level));
        if (workers == 1) {
          // Inline — a serial exploration never touches the pool.
          LevelWorker(0, 1, &shared, &frontier, visit);
        } else {
          ThreadPool::Global().Run(workers, [&](size_t w) {
            LevelWorker(w, workers, &shared, &frontier, visit);
          });
        }
      }
      frontier.clear();
      std::vector<std::vector<Node*>> batches(workers);
      for (size_t w = 0; w < workers; ++w) {
        batches[w].swap(shared.emitted[w]);
      }
      // The barrier poll: the reduce of a large level runs for
      // milliseconds with no pops, so check the token here too rather
      // than paying a whole reduce after the deadline fired.
      shared.Cancelled();
      if (shared.abort.load(std::memory_order_acquire)) {
        for (auto& batch : batches) {
          for (Node* child : batch) delete child;
        }
        break;
      }
      ++level;
      {
        obs::Span reduce_span("barrier-reduce", static_cast<int64_t>(level));
        if constexpr (std::is_invocable_v<Reduce, size_t,
                                          std::vector<std::vector<Node*>>>) {
          frontier = reduce(level, std::move(batches));
        } else {
          frontier = reduce(std::move(batches));
        }
      }
      internal::ExplorerMetrics::Get().levels->Inc();
    }
    // An abort can leave seeded nodes in the deques — free them
    // (single-threaded again after the pool region).
    Node* leftover = nullptr;
    for (auto& deque : shared.deques) {
      while (deque->Pop(&leftover)) delete leftover;
    }
    Stats stats = shared.SnapshotStats();
    stats.levels_completed = level;
    return stats;
  }

  /// Explores from `roots`. `visit(std::unique_ptr<Node>, Context&)`
  /// must be callable concurrently from `num_threads` workers.
  template <typename Visit>
  Stats Run(std::vector<std::unique_ptr<Node>> roots, const Options& options,
            const Visit& visit) {
    // The pool caps real parallelism at size() + 1; ask for more and
    // the extra deques would never drain, so clamp here too (but do
    // not touch the global pool for a serial exploration).
    size_t workers = options.num_threads < 1 ? 1 : options.num_threads;
    if (workers > 1) {
      workers = std::min(workers, ThreadPool::Global().size() + 1);
    }
    Shared shared(workers, options.max_nodes, options.cancel);
    // Seed round-robin. Owner-only push is fine here: the workers have
    // not started, and starting them synchronizes-with these writes.
    for (size_t i = 0; i < roots.size(); ++i) {
      shared.pending.fetch_add(1, std::memory_order_relaxed);
      shared.deques[i % workers]->Push(roots[i].release());
    }
    if (workers == 1) {
      // Inline — a serial exploration never touches the pool.
      WorkerLoop(0, 1, &shared, visit);
    } else {
      ThreadPool::Global().Run(workers, [&](size_t w) {
        WorkerLoop(w, workers, &shared, visit);
      });
    }
    // Drain whatever an abort left behind (single-threaded again).
    Node* leftover = nullptr;
    for (auto& deque : shared.deques) {
      while (deque->Pop(&leftover)) delete leftover;
    }
    return shared.SnapshotStats();
  }

 private:
  struct Shared {
    Shared(size_t workers, size_t max_nodes_in, const CancelToken* cancel_in)
        : emitted(workers), max_nodes(max_nodes_in), cancel(cancel_in) {
      deques.reserve(workers);
      for (size_t i = 0; i < workers; ++i) {
        deques.push_back(std::make_unique<WorkStealingDeque<Node*>>());
      }
    }

    /// The per-pop cancellation poll: raises the shared abort (and the
    /// cancelled stat) once the token fires. Read-only until then.
    bool Cancelled() {
      if (cancel == nullptr || !cancel->ShouldStop()) return false;
      cancelled.store(true, std::memory_order_relaxed);
      abort.store(true, std::memory_order_release);
      return true;
    }

    /// The Stats fields both traversal modes read back identically
    /// (RunLevels adds levels_completed; the owning search fills the
    /// visited/treedb accounting).
    Stats SnapshotStats() const {
      Stats stats;
      stats.nodes_explored = popped.load(std::memory_order_relaxed);
      stats.budget_exhausted =
          budget_exhausted.load(std::memory_order_relaxed);
      stats.aborted = abort.load(std::memory_order_relaxed);
      stats.cancelled = cancelled.load(std::memory_order_relaxed);
      return stats;
    }

    std::vector<std::unique_ptr<WorkStealingDeque<Node*>>> deques;
    std::atomic<size_t> pending{0};
    std::atomic<size_t> popped{0};
    std::atomic<size_t> processed{0};
    std::atomic<bool> abort{false};
    std::atomic<bool> budget_exhausted{false};
    std::atomic<bool> cancelled{false};
    std::vector<std::vector<Node*>> emitted;  // per worker, level mode
    size_t level_size = 0;
    size_t max_nodes;
    const CancelToken* cancel;
  };

 public:
  class Context {
   public:
    size_t worker_id() const { return worker_; }

    /// Free-running mode: emits a child node onto this worker's deque.
    void Push(std::unique_ptr<Node> child) {
      shared_->pending.fetch_add(1, std::memory_order_release);
      shared_->deques[worker_]->Push(child.release());
    }

    /// Level mode: collects a child for the barrier reduction.
    void Emit(std::unique_ptr<Node> child) {
      shared_->emitted[worker_].push_back(child.release());
    }

    /// Raises the global cooperative stop.
    void Abort() { shared_->abort.store(true, std::memory_order_release); }

    /// True once the exploration is stopping. Also polls the cancel
    /// token, so visitors that check mid-expansion (long realization
    /// enumerations) observe a deadline without waiting for the next
    /// pop — an unfired token still costs only a read.
    bool aborted() const {
      if (shared_->abort.load(std::memory_order_acquire)) return true;
      return shared_->Cancelled();
    }

   private:
    friend class Explorer;
    Context(Shared* shared, size_t worker)
        : shared_(shared), worker_(worker) {}
    Shared* shared_;
    size_t worker_;
  };

 private:
  template <typename Visit>
  static void WorkerLoop(size_t w, size_t workers, Shared* shared,
                         const Visit& visit) {
    const internal::ExplorerMetrics& metrics = internal::ExplorerMetrics::Get();
    obs::SetThreadLane("worker", static_cast<int>(w));
    obs::Span drain_span("drain", static_cast<int64_t>(w));
    Context ctx(shared, w);
    Node* raw = nullptr;
    int idle_sweeps = 0;
    for (;;) {
      if (shared->abort.load(std::memory_order_acquire)) return;
      if (shared->Cancelled()) return;
      bool got = shared->deques[w]->Pop(&raw);
      if (!got) {
        for (size_t k = 1; !got && k < workers; ++k) {
          got = shared->deques[(w + k) % workers]->Steal(&raw);
        }
        if (got) {
          metrics.steals->Inc();
          obs::TraceInstant("steal");
        }
      }
      if (!got) {
        if (shared->pending.load(std::memory_order_acquire) == 0) return;
        TimedBackoff(&idle_sweeps, metrics);
        continue;
      }
      idle_sweeps = 0;
      std::unique_ptr<Node> node(raw);
      size_t n = shared->popped.fetch_add(1, std::memory_order_relaxed) + 1;
      metrics.pops->Inc();
      metrics.deque_depth->Record(
          static_cast<uint64_t>(std::max<int64_t>(0, shared->deques[w]->size())));
      if (n > shared->max_nodes) {
        // Counted but not visited — "count, then cut".
        shared->budget_exhausted.store(true, std::memory_order_relaxed);
        shared->abort.store(true, std::memory_order_release);
        shared->pending.fetch_sub(1, std::memory_order_release);
        return;
      }
      visit(std::move(node), ctx);
      shared->pending.fetch_sub(1, std::memory_order_release);
    }
  }

  /// Idle-wait ladder: brief yields, then escalating micro-sleeps. On
  /// shared or oversubscribed cores a pure yield-spin steals cycles
  /// from the worker actually finishing the tail of the level.
  static void Backoff(int* idle_sweeps) {
    ++*idle_sweeps;
    if (*idle_sweeps < 32) {
      std::this_thread::yield();
    } else {
      std::this_thread::sleep_for(std::chrono::microseconds(
          std::min(200, (*idle_sweeps - 32 + 1) * 20)));
    }
  }

  /// Backoff plus idle-time accounting (level mode: this is the
  /// barrier-wait time). The clock reads exist only to feed the
  /// counter, so they are skipped entirely when metrics are off.
  static void TimedBackoff(int* idle_sweeps,
                           const internal::ExplorerMetrics& metrics) {
    if (!obs::MetricsEnabled()) {
      Backoff(idle_sweeps);
      return;
    }
    auto t0 = std::chrono::steady_clock::now();
    Backoff(idle_sweeps);
    metrics.idle_wait_us->Inc(static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - t0)
            .count()));
  }

  template <typename Visit>
  static void LevelWorker(size_t w, size_t workers, Shared* shared,
                          std::vector<std::unique_ptr<Node>>* frontier,
                          const Visit& visit) {
    const internal::ExplorerMetrics& metrics = internal::ExplorerMetrics::Get();
    obs::SetThreadLane("worker", static_cast<int>(w));
    obs::Span drain_span("level-drain", static_cast<int64_t>(w));
    // Seed this worker's slice (owner-only pushes).
    for (size_t i = w; i < frontier->size(); i += workers) {
      shared->deques[w]->Push((*frontier)[i].release());
    }
    Context ctx(shared, w);
    Node* raw = nullptr;
    int idle_sweeps = 0;
    for (;;) {
      if (shared->abort.load(std::memory_order_acquire)) return;
      if (shared->Cancelled()) return;
      bool got = shared->deques[w]->Pop(&raw);
      if (!got) {
        for (size_t k = 1; !got && k < workers; ++k) {
          got = shared->deques[(w + k) % workers]->Steal(&raw);
        }
        if (got) {
          metrics.steals->Inc();
          obs::TraceInstant("steal");
        }
      }
      if (!got) {
        if (shared->processed.load(std::memory_order_acquire) >=
            shared->level_size) {
          return;  // level drained (a seed race cannot under-count:
                   // every seeded node is processed exactly once)
        }
        TimedBackoff(&idle_sweeps, metrics);
        continue;
      }
      idle_sweeps = 0;
      std::unique_ptr<Node> node(raw);
      size_t n = shared->popped.fetch_add(1, std::memory_order_relaxed) + 1;
      metrics.pops->Inc();
      metrics.deque_depth->Record(
          static_cast<uint64_t>(std::max<int64_t>(0, shared->deques[w]->size())));
      if (n > shared->max_nodes) {
        shared->budget_exhausted.store(true, std::memory_order_relaxed);
        shared->abort.store(true, std::memory_order_release);
        return;
      }
      visit(std::move(node), ctx);
      shared->processed.fetch_add(1, std::memory_order_release);
    }
  }
};

}  // namespace engine
}  // namespace accltl

#endif  // ACCLTL_ENGINE_EXPLORER_H_
