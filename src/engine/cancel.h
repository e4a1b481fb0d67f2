#ifndef ACCLTL_ENGINE_CANCEL_H_
#define ACCLTL_ENGINE_CANCEL_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>

namespace accltl {
namespace engine {

/// Cooperative cancellation token: an explicit cancel and/or a
/// wall-clock deadline, polled by the exploration workers at
/// node-expansion granularity (the same count-then-cut points as the
/// node budget).
///
/// Determinism contract: a token that never fires never changes any
/// result. `ShouldStop` on an unfired, deadline-free token is a single
/// relaxed atomic load — no writes, no fences, no clock reads — so
/// wiring a token through a search perturbs neither the schedule nor
/// the reduction. Once fired (from any thread), every worker observes
/// it at its next poll and the exploration aborts; the engines then
/// report `cancelled` instead of a definitive verdict (a witness found
/// *before* the cut is still returned — it is sound regardless).
///
/// Memory model: `Cancel()` (or the deadline poll that first observes
/// expiry) CASes the cause and then release-stores `fired_`; workers
/// acquire-load `fired_` and propagate through the explorer's existing
/// `abort` flag, which already carries a release/acquire edge to every
/// worker. The first cause to fire wins and is latched; later fires
/// are no-ops.
class CancelToken {
 public:
  enum class Cause : int {
    kNone = 0,
    kCancel = 1,
    kDeadline = 2,
  };

  CancelToken() = default;
  CancelToken(const CancelToken&) = delete;
  CancelToken& operator=(const CancelToken&) = delete;

  /// Explicit cancellation; safe from any thread, idempotent.
  void Cancel() const { Fire(Cause::kCancel); }

  /// Arms the deadline. Call before handing the token to a search; the
  /// workers' polls fire it once the steady clock passes `when`.
  void ArmDeadline(std::chrono::steady_clock::time_point when) {
    deadline_ns_.store(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            when.time_since_epoch())
            .count(),
        std::memory_order_release);
  }

  void ArmDeadlineAfter(std::chrono::milliseconds delay) {
    ArmDeadline(std::chrono::steady_clock::now() + delay);
  }

  bool fired() const { return fired_.load(std::memory_order_acquire); }

  /// Why the token fired (kNone while unfired). Latched: the first
  /// cause wins.
  Cause cause() const {
    return static_cast<Cause>(cause_.load(std::memory_order_acquire));
  }

  /// The worker-side poll: true once cancelled or past the deadline.
  /// Cheap when unfired (one load; plus one clock read when a deadline
  /// is armed) and write-free until the token actually fires.
  bool ShouldStop() const {
    if (fired_.load(std::memory_order_acquire)) return true;
    int64_t dl = deadline_ns_.load(std::memory_order_relaxed);
    if (dl != 0 &&
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
                .count() >= dl) {
      Fire(Cause::kDeadline);
      return true;
    }
    return false;
  }

 private:
  void Fire(Cause cause) const {
    int expected = static_cast<int>(Cause::kNone);
    cause_.compare_exchange_strong(expected, static_cast<int>(cause),
                                   std::memory_order_acq_rel,
                                   std::memory_order_acquire);
    fired_.store(true, std::memory_order_release);
  }

  mutable std::atomic<bool> fired_{false};
  mutable std::atomic<int> cause_{static_cast<int>(Cause::kNone)};
  std::atomic<int64_t> deadline_ns_{0};  // steady-clock ns; 0 = none
};

/// How the search engines store their visited set.
enum class VisitedMode {
  /// Full entries in the sharded visited table: each record keeps the
  /// exact (state, configuration) data, depth, and a materialized path
  /// for dominance checks.
  kExact,
  /// Tree-compressed entries: configurations fold into a store::TreeDb
  /// (shared subtrees stored once) and the visited table stores
  /// fixed-size tree-index slots (engine/compact_table.h). Verdicts,
  /// witnesses and node counts are byte-identical to kExact — ref
  /// equality is an exact identity check, never a lossy hash — the
  /// mode only changes the memory footprint (and is gated on that
  /// equivalence by the differential fuzzer's "compact" pair).
  kCompact,
};

/// The single source for execution-context knobs shared by every
/// search engine (worker count, cancellation, visited-set storage).
/// One ExecOptions flows from the caller — analysis::DecideOptions::
/// exec, or the service's per-request resolution — into every engine a
/// request touches, so two engines of one request can never disagree
/// on their worker count (the pre-service API hand-copied
/// `num_threads` into each engine's options struct, and a missed copy
/// silently changed results' timing).
struct ExecOptions {
  /// Search workers (engine::Explorer). 1 runs serially on the calling
  /// thread. Results are deterministic in this count — see the
  /// individual engines' schedule-independence notes.
  size_t num_threads = 1;
  /// Optional cooperative stop; null = not cancellable.
  const CancelToken* cancel = nullptr;
  /// Visited-set storage (exact records vs. tree-compressed indices).
  /// Never changes any verdict, witness, or node count — only bytes.
  VisitedMode visited_mode = VisitedMode::kExact;
  /// Budget over the visited set's accounted bytes (the results'
  /// `visited_bytes`: live entries, plus the treedb arena in compact
  /// mode; see engine/visited_store.h); 0 = unlimited. Exceeding it
  /// stops the search with exhausted_budget set, at the same
  /// count-then-cut points as the node budget — the knob that lets a fixed-RAM sweep truncate cleanly instead of
  /// OOMing, and the benchmarks show completing under kCompact where
  /// kExact is cut. Like a binding max_nodes, a binding byte budget is
  /// scoped out of the cross-thread-count determinism guarantee.
  size_t max_visited_bytes = 0;
};

}  // namespace engine
}  // namespace accltl

#endif  // ACCLTL_ENGINE_CANCEL_H_
