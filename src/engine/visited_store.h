#ifndef ACCLTL_ENGINE_VISITED_STORE_H_
#define ACCLTL_ENGINE_VISITED_STORE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <utility>

#include "src/engine/cancel.h"
#include "src/engine/compact_table.h"
#include "src/engine/path_link.h"
#include "src/engine/visited_table.h"
#include "src/store/treedb.h"

namespace accltl {
namespace engine {

/// The visited set of one witness search (automata::BoundedWitnessSearch
/// and the zero-ary solver): dominance check-and-insert in either
/// VisitedMode, the live-byte accounting, and the byte-budget cut.
///
/// Search nodes expose `ref` (their compact identity, interned into
/// `treedb()` by the engine), `depth`, and `path` (a
/// `std::shared_ptr<const PathLink<Step>>`). Under kExact the engine's
/// `ExactEntry` records live in a ShardedVisitedTable; the entry type
/// supplies everything engine-specific:
///
///  - `explicit ExactEntry(const Node&)`, the record of a search node;
///  - `uint64_t Hash() const`, its table key;
///  - `static bool Dominates(const ExactEntry& existing,
///    const ExactEntry& candidate)`, which must confirm the exact
///    identity the hash abbreviates;
///  - `size_t Bytes() const`, its logical footprint (sizes, never
///    capacities, so the sum is deterministic whenever the search is).
///
/// Under kCompact the node's ref *is* the exact identity (treedb.h), so
/// dominance is the same for every engine: no deeper, then no later in
/// path-content order. Each compact entry is charged its slot, and
/// `bytes()` adds the treedb arena.
template <typename ExactEntry>
class VisitedStore {
 public:
  /// `exec` selects the mode and the byte budget
  /// (`max_visited_bytes`, 0 = unlimited).
  VisitedStore(const ExecOptions& exec, size_t shard_count)
      : max_bytes_(exec.max_visited_bytes) {
    if (exec.visited_mode == VisitedMode::kCompact) {
      compact_.emplace(shard_count);
    } else {
      exact_.emplace(shard_count);
    }
  }

  VisitedStore(const VisitedStore&) = delete;
  VisitedStore& operator=(const VisitedStore&) = delete;

  /// Enters `node`. Returns false when an existing entry dominates it
  /// (redundant: do not explore). Otherwise inserts it, evicts the
  /// entries it dominates, and keeps `bytes()` the live entries'
  /// footprint (add on insert, subtract on evict), so the byte budget
  /// sees the set as it stands.
  template <typename Node>
  bool Register(const Node& node) {
    bool dominated;
    if (compact_) {
      using Link = typename decltype(node.path)::element_type;
      CompactEntry entry;
      entry.ref = node.ref;
      entry.depth = node.depth;
      entry.path = std::shared_ptr<const void>(node.path, node.path.get());
      dominated = compact_->visited.CheckAndInsert(
          std::move(entry),
          [](const CompactEntry& existing, const CompactEntry& candidate) {
            // Ref equality (checked by the table) is the exact
            // identity; only the tie-breakers remain.
            if (existing.depth > candidate.depth) return false;
            return CmpChains(static_cast<Link*>(existing.path.get()),
                             static_cast<Link*>(candidate.path.get())) <= 0;
          },
          [this](const CompactEntry&) { Release(sizeof(CompactEntry)); });
      if (!dominated) Charge(sizeof(CompactEntry));
    } else {
      ExactEntry entry(node);
      uint64_t hash = entry.Hash();
      size_t entry_bytes = entry.Bytes();
      dominated = exact_->CheckAndInsert(
          hash, std::move(entry), ExactEntry::Dominates,
          [this](const ExactEntry& evicted) { Release(evicted.Bytes()); });
      if (!dominated) Charge(entry_bytes);
    }
    return !dominated;
  }

  /// The byte budget's cut: true once `bytes()` exceeds a nonzero
  /// budget, latching `truncated()`. The serial depth-first search asks
  /// at every pop, the level sweep at every barrier.
  bool OverBudget() {
    if (max_bytes_ == 0 || bytes() <= max_bytes_) return false;
    truncated_.store(true, std::memory_order_relaxed);
    return true;
  }

  /// True once OverBudget() cut the search (reported as
  /// exhausted_budget).
  bool truncated() const { return truncated_.load(std::memory_order_relaxed); }

  /// Accounted footprint: the live entries plus, under kCompact, the
  /// treedb arena.
  size_t bytes() const {
    return live_bytes_.load(std::memory_order_relaxed) +
           (compact_ ? compact_->treedb.bytes() : 0);
  }

  /// Interned tree nodes (0 under kExact).
  size_t treedb_nodes() const {
    return compact_ ? compact_->treedb.num_nodes() : 0;
  }

  /// The tree database node refs intern into; null under kExact.
  store::TreeDb* treedb() { return compact_ ? &compact_->treedb : nullptr; }

  /// The pilot-reset hook's discard (quiescent callers only): entries,
  /// treedb, byte count and the cut latch. The sweep re-interns from its
  /// roots, so its final counts never depend on what the pilot touched.
  void Clear() {
    if (exact_) exact_->Clear();
    if (compact_) compact_->Clear();
    live_bytes_.store(0, std::memory_order_relaxed);
    truncated_.store(false, std::memory_order_relaxed);
  }

 private:
  void Charge(size_t bytes) {
    live_bytes_.fetch_add(bytes, std::memory_order_relaxed);
  }
  void Release(size_t bytes) {
    live_bytes_.fetch_sub(bytes, std::memory_order_relaxed);
  }

  /// Exactly one is engaged, by the mode: an exact-mode search
  /// constructs no treedb and no compact table, a compact-mode search
  /// no exact shards.
  std::optional<ShardedVisitedTable<ExactEntry>> exact_;
  std::optional<CompactSearchStorage> compact_;
  const size_t max_bytes_;
  std::atomic<size_t> live_bytes_{0};
  std::atomic<bool> truncated_{false};
};

}  // namespace engine
}  // namespace accltl

#endif  // ACCLTL_ENGINE_VISITED_STORE_H_
