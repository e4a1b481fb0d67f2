#ifndef ACCLTL_ENGINE_EXPLORER_H_
#define ACCLTL_ENGINE_EXPLORER_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <vector>

#include "src/engine/cancel.h"
#include "src/engine/thread_pool.h"
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
  obs::Counter* levels;
  obs::Counter* idle_wait_us;
  static const ExplorerMetrics& Get() {
    static const ExplorerMetrics m{
        obs::Registry::Get().counter("engine.pops"),
        obs::Registry::Get().counter("engine.levels"),
        obs::Registry::Get().counter("engine.idle_wait_us"),
    };
    return m;
  }
};
}  // namespace internal

/// Generic state-space exploration driver with two traversals.
///
/// `Run` is a serial depth-first search over a plain stack: the node
/// pushed last is popped next, so a visitor that pushes its children
/// in descending key order visits the smallest first.
///
/// `RunLevels` is level-synchronous (the discipline of multi-core BFS
/// reachability à la LTSmin): workers claim the nodes of one depth
/// level through a shared cursor, in any order, children are collected
/// per worker, and a caller-supplied `reduce` runs at the barrier over
/// the *complete* child set — so deduplication and result reduction
/// see the same deterministic batch whatever the schedule, and the
/// surviving frontier (hence every per-level statistic) is identical
/// at every worker count.
///
/// Budget (both traversals): pops are counted; the pop that exceeds
/// `max_nodes` is counted, not visited, and stops the exploration —
/// "count, then cut". A fired cancel token stops it at the same
/// points (before each pop).
template <typename Node>
class Explorer {
 public:
  /// RunLevels' options.
  struct Options {
    size_t num_threads = 1;
    /// Budget over popped nodes; exceeding it aborts with
    /// budget_exhausted set.
    size_t max_nodes = static_cast<size_t>(-1);
    /// Cooperative stop, polled before each pop. A token that never
    /// fires never perturbs the exploration (the poll is read-only); a
    /// fired token aborts all workers and sets Stats::cancelled.
    const CancelToken* cancel = nullptr;
  };

  struct Stats {
    size_t nodes_explored = 0;
    bool budget_exhausted = false;
    /// True when the exploration stopped on abort (budget, visitor, or
    /// cancellation) rather than by draining the frontier.
    bool aborted = false;
    /// True when the cancel token fired and stopped the exploration.
    bool cancelled = false;
    /// Level mode only: number of completed level barriers (the depth
    /// of the deepest fully-reduced frontier).
    size_t levels_completed = 0;
  };

  class Context;

  /// Serial depth-first exploration from `roots` (the last root is
  /// popped first). `visit(std::unique_ptr<Node>, Context&)` pushes
  /// children with Context::Push. `max_nodes` and `cancel` are as in
  /// Options.
  template <typename Visit>
  Stats Run(std::vector<std::unique_ptr<Node>> roots, size_t max_nodes,
            const CancelToken* cancel, const Visit& visit) {
    const internal::ExplorerMetrics& metrics = internal::ExplorerMetrics::Get();
    obs::SetThreadLane("worker", 0);
    obs::Span drain_span("drain", 0);
    Shared shared(cancel);
    shared.nodes = std::move(roots);
    Context ctx(&shared, 0);
    while (!shared.Stopped() && !shared.nodes.empty()) {
      std::unique_ptr<Node> node = std::move(shared.nodes.back());
      shared.nodes.pop_back();
      metrics.pops->Inc();
      if (++shared.popped > max_nodes) {
        // Counted but not visited — "count, then cut".
        shared.CutBudget();
        break;
      }
      visit(std::move(node), ctx);
    }
    return shared.SnapshotStats();
  }

  /// Level-synchronous exploration. Per level: workers claim the
  /// frontier's nodes, calling `visit(std::unique_ptr<Node>, Context&)`
  /// which emits children via Context::Emit; at the barrier, `reduce`
  /// maps the per-worker child batches (ownership transferred as raw
  /// pointers, one vector per worker so the reducer can preserve
  /// allocation affinity) to the next frontier — dedup, pruning,
  /// reordering are the caller's policy. `reduce` runs on the calling
  /// thread between levels and may itself use the thread pool.
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
    Shared shared(options.cancel);
    shared.nodes = std::move(roots);
    shared.emitted.resize(workers);
    shared.claim_failed.resize(workers);
    auto level_worker = [&](size_t w) {
      LevelWorker(w, &shared, options.max_nodes, visit);
    };
    size_t level = 0;
    while (!shared.nodes.empty() &&
           !shared.abort.load(std::memory_order_acquire)) {
      shared.next.store(0, std::memory_order_relaxed);
      std::fill(shared.claim_failed.begin(), shared.claim_failed.end(),
                Clock::time_point());
      {
        obs::Span level_span("level", static_cast<int64_t>(level));
        // One worker runs inline — a serial exploration never touches
        // the pool. Otherwise the region's join is the level barrier.
        if (workers == 1) {
          level_worker(0);
        } else {
          ThreadPool::Global().Run(workers, level_worker);
        }
      }
      RecordBarrierWait(shared);
      // Every claim inside the frontier was a pop.
      shared.popped += std::min(shared.next.load(std::memory_order_relaxed),
                                shared.nodes.size());
      // Frees whatever an abort left unclaimed.
      shared.nodes.clear();
      std::vector<std::vector<Node*>> batches(workers);
      for (size_t w = 0; w < workers; ++w) {
        batches[w].swap(shared.emitted[w]);
      }
      // The barrier poll: the reduce of a large level runs for
      // milliseconds with no pops, so check the token here too rather
      // than paying a whole reduce after the deadline fired.
      if (shared.Stopped()) {
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
          shared.nodes = reduce(level, std::move(batches));
        } else {
          shared.nodes = reduce(std::move(batches));
        }
      }
      internal::ExplorerMetrics::Get().levels->Inc();
    }
    Stats stats = shared.SnapshotStats();
    stats.levels_completed = level;
    return stats;
  }

 private:
  using Clock = std::chrono::steady_clock;

  struct Shared {
    explicit Shared(const CancelToken* cancel_in) : cancel(cancel_in) {}

    /// The per-pop stop poll: true once the exploration is aborting.
    /// Raises the abort (and the cancelled stat) when the token fires;
    /// read-only until then.
    bool Stopped() {
      if (abort.load(std::memory_order_acquire)) return true;
      if (cancel == nullptr || !cancel->ShouldStop()) return false;
      cancelled.store(true, std::memory_order_relaxed);
      abort.store(true, std::memory_order_release);
      return true;
    }

    void CutBudget() {
      budget_exhausted.store(true, std::memory_order_relaxed);
      abort.store(true, std::memory_order_release);
    }

    /// The Stats both traversals report (RunLevels adds
    /// levels_completed).
    Stats SnapshotStats() const {
      Stats stats;
      stats.nodes_explored = popped;
      stats.budget_exhausted =
          budget_exhausted.load(std::memory_order_relaxed);
      stats.aborted = abort.load(std::memory_order_relaxed);
      stats.cancelled = cancelled.load(std::memory_order_relaxed);
      return stats;
    }

    /// Run: the stack. RunLevels: the level's frontier, fixed while
    /// the level runs; each index is claimed (moved out) by exactly
    /// one worker.
    std::vector<std::unique_ptr<Node>> nodes;
    std::atomic<size_t> next{0};  // RunLevels' claim cursor
    /// Pops so far; in RunLevels, before the current level (written
    /// between levels only).
    size_t popped = 0;
    std::atomic<bool> abort{false};
    std::atomic<bool> budget_exhausted{false};
    std::atomic<bool> cancelled{false};
    /// RunLevels, per worker: the children it emitted, and when its
    /// claim failed (unset if it stopped on abort; stamped only while
    /// metrics are on).
    std::vector<std::vector<Node*>> emitted;
    std::vector<Clock::time_point> claim_failed;
    const CancelToken* cancel;
  };

 public:
  class Context {
   public:
    size_t worker_id() const { return worker_; }

    /// Run only: pushes a child onto the stack.
    void Push(std::unique_ptr<Node> child) {
      shared_->nodes.push_back(std::move(child));
    }

    /// RunLevels only: collects a child for the barrier reduction.
    void Emit(std::unique_ptr<Node> child) {
      shared_->emitted[worker_].push_back(child.release());
    }

    /// Raises the global cooperative stop.
    void Abort() { shared_->abort.store(true, std::memory_order_release); }

    /// True once the exploration is stopping. Also polls the cancel
    /// token, so visitors that check mid-expansion (long realization
    /// enumerations) observe a deadline without waiting for the next
    /// pop — an unfired token still costs only a read.
    bool aborted() const { return shared_->Stopped(); }

   private:
    friend class Explorer;
    Context(Shared* shared, size_t worker)
        : shared_(shared), worker_(worker) {}
    Shared* shared_;
    size_t worker_;
  };

 private:
  template <typename Visit>
  static void LevelWorker(size_t w, Shared* shared, size_t max_nodes,
                          const Visit& visit) {
    const internal::ExplorerMetrics& metrics = internal::ExplorerMetrics::Get();
    obs::SetThreadLane("worker", static_cast<int>(w));
    obs::Span drain_span("level-drain", static_cast<int64_t>(w));
    Context ctx(shared, w);
    while (!shared->Stopped()) {
      size_t i = shared->next.fetch_add(1, std::memory_order_relaxed);
      if (i >= shared->nodes.size()) {
        if (obs::MetricsEnabled()) shared->claim_failed[w] = Clock::now();
        return;
      }
      std::unique_ptr<Node> node = std::move(shared->nodes[i]);
      metrics.pops->Inc();
      if (shared->popped + i + 1 > max_nodes) {
        shared->CutBudget();
        return;
      }
      visit(std::move(node), ctx);
    }
  }

  /// Adds up, over the workers whose claim failed, the time from that
  /// failure to the level's join: the wait at the barrier.
  static void RecordBarrierWait(const Shared& shared) {
    if (!obs::MetricsEnabled()) return;
    Clock::time_point joined = Clock::now();
    Clock::duration waited{0};
    for (Clock::time_point stamp : shared.claim_failed) {
      if (stamp != Clock::time_point()) waited += joined - stamp;
    }
    internal::ExplorerMetrics::Get().idle_wait_us->Inc(static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(waited)
            .count()));
  }
};

}  // namespace engine
}  // namespace accltl

#endif  // ACCLTL_ENGINE_EXPLORER_H_
