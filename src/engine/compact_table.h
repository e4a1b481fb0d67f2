#ifndef ACCLTL_ENGINE_COMPACT_TABLE_H_
#define ACCLTL_ENGINE_COMPACT_TABLE_H_

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "src/obs/metrics.h"
#include "src/store/treedb.h"

namespace accltl {
namespace engine {

namespace internal {
/// Compact-table instruments; written relaxed after the shard lock is
/// released (no-perturbation contract, DESIGN.md §8).
struct CompactVisitedMetrics {
  obs::Counter* inserts;
  obs::Counter* dominated;
  obs::Histogram* probe_len;
  static const CompactVisitedMetrics& Get() {
    static const CompactVisitedMetrics m{
        obs::Registry::Get().counter("engine.cvisited.inserts"),
        obs::Registry::Get().counter("engine.cvisited.dominated"),
        obs::Registry::Get().histogram("engine.cvisited.probe_len"),
    };
    return m;
  }
};
}  // namespace internal

/// Entry of the compact visited table: the tree-compressed identity of
/// a search node plus the dominance tie-breakers. Where the exact
/// tables keep a full (state, Instance, depth, path, materialized
/// links) record per visited node — hundreds of bytes once the O(depth)
/// links vector and the per-relation handles are counted — a compact
/// entry is one fixed-size slot: the store::TreeDb ref *is* the exact
/// identity (ref equality ⇔ equal (state, configuration), see
/// treedb.h), and path comparisons walk the shared chain on the rare
/// ref-equal collision instead of keeping a per-entry pointer vector.
///
/// `path` is a type-erased pin of the engine::PathLink chain head (the
/// solvers know the concrete step type); it keeps the chain alive for
/// exactly as long as the entry can win a dominance comparison.
struct CompactEntry {
  store::TreeRef ref = store::kNilTreeRef;
  uint32_t depth = 0;
  std::shared_ptr<const void> path;
};

/// Cleary/quotient-style compact hash table over tree refs: sharded
/// open-addressing slot arrays storing CompactEntry values in place —
/// no per-bucket vectors, no node allocations, no stored 64-bit hash
/// (the ref quotient is the full identity, so the slot needs nothing
/// else). Preserves the ShardedVisitedTable contract exactly:
/// CheckAndInsert is atomic per shard, an existing dominating entry
/// suppresses the insert, and inserted entries evict entries they
/// dominate — reporting each to the evict hook first. Exact
/// confirmation is ref equality (false-positive-free by TreeDb
/// injectivity); a probe-sequence collision between distinct refs can
/// never conflate entries.
///
/// Deletion uses tombstones (kTombstoneRef), dropped on growth rehash.
class CompactVisitedTable {
 public:
  explicit CompactVisitedTable(size_t shard_count = 64);

  CompactVisitedTable(const CompactVisitedTable&) = delete;
  CompactVisitedTable& operator=(const CompactVisitedTable&) = delete;

  /// Atomically: if an existing entry with `entry.ref` dominates
  /// `entry` (per `dominates(existing, entry)`), returns true and
  /// inserts nothing. Otherwise inserts `entry`, drops existing
  /// same-ref entries it dominates — reporting each to `evict` first —
  /// and returns false. `dominates` is only ever called on entries
  /// with equal refs (the exact identity), mirroring the sharded
  /// table's "dominance only relates equal classes" discipline.
  ///
  /// Precondition: `entry.ref` is neither kNilTreeRef nor 0xffffffff —
  /// both are slot markers here. The searches satisfy this by
  /// construction: their entry refs come from TreeDb::InternPair over
  /// (state, configuration), which always allocates a real node; raw
  /// configuration refs, which CAN fold to kNilTreeRef, go through
  /// CompactRefSet instead.
  template <typename Dominates, typename Evict>
  bool CheckAndInsert(CompactEntry entry, const Dominates& dominates,
                      const Evict& evict) {
    assert(entry.ref != store::kNilTreeRef && entry.ref != kTombstoneRef);
    const internal::CompactVisitedMetrics& metrics =
        internal::CompactVisitedMetrics::Get();
    uint64_t probes = 0;
    bool hit = false;
    {
      Shard& shard = shards_[ShardIndex(entry.ref)];
      std::lock_guard<std::mutex> lock(shard.mu);
      MaybeGrow(&shard);
      size_t mask = shard.slots.size() - 1;
      size_t i = static_cast<size_t>(store::Mix64(entry.ref)) & mask;
      size_t insert_at = shard.slots.size();  // first reusable slot seen
      // Pass 1: suppression. Any dominating twin wins before we mutate.
      for (size_t probe = i;; probe = (probe + 1) & mask) {
        CompactEntry& slot = shard.slots[probe];
        ++probes;
        if (slot.ref == store::kNilTreeRef) break;
        if (slot.ref == kTombstoneRef) {
          if (insert_at == shard.slots.size()) insert_at = probe;
          continue;
        }
        if (slot.ref == entry.ref && dominates(slot, entry)) {
          hit = true;
          break;
        }
      }
      if (!hit) {
        // Pass 2: evict dominated twins, then insert.
        for (size_t probe = i;; probe = (probe + 1) & mask) {
          CompactEntry& slot = shard.slots[probe];
          if (slot.ref == store::kNilTreeRef) {
            if (insert_at == shard.slots.size()) insert_at = probe;
            break;
          }
          if (slot.ref == entry.ref && dominates(entry, slot)) {
            evict(slot);
            slot.ref = kTombstoneRef;
            slot.path.reset();
            ++shard.tombstones;
            --shard.live;
            if (insert_at == shard.slots.size()) insert_at = probe;
          }
        }
        CompactEntry& dest = shard.slots[insert_at];
        if (dest.ref == kTombstoneRef) --shard.tombstones;
        dest = std::move(entry);
        ++shard.live;
      }
    }
    metrics.probe_len->Record(probes);
    (hit ? metrics.dominated : metrics.inserts)->Inc();
    return hit;
  }

  template <typename Dominates>
  bool CheckAndInsert(CompactEntry entry, const Dominates& dominates) {
    return CheckAndInsert(std::move(entry), dominates,
                          [](const CompactEntry&) {});
  }

  /// Live entries across shards (quiescent callers only).
  size_t size() const;

  /// Deterministic footprint: live entries × slot size. (Allocated
  /// capacity additionally depends on how refs — whose values are
  /// schedule-dependent — spread over shards, so it is reported
  /// separately.)
  size_t bytes() const { return size() * sizeof(CompactEntry); }

  /// Allocated slot bytes (capacity × slot size, all shards).
  size_t capacity_bytes() const;

  void Clear();

 private:
  static constexpr store::TreeRef kTombstoneRef = 0xffffffffu;
  static constexpr size_t kInitialSlots = 16;  // per shard, power of two

  struct Shard {
    mutable std::mutex mu;
    std::vector<CompactEntry> slots;
    size_t live = 0;
    size_t tombstones = 0;
  };

  size_t ShardIndex(store::TreeRef ref) const {
    // Shard on high hash bits, probe on low: one ref's shard choice and
    // probe sequence stay independent.
    return static_cast<size_t>(store::Mix64(ref) >> 32) & shard_mask_;
  }

  /// Rehashes when live + tombstones crowd the slot array; grows only
  /// when live entries demand it (a tombstone-heavy shard rehashes in
  /// place). Caller holds the shard mutex.
  void MaybeGrow(Shard* shard);

  size_t shard_mask_;
  std::vector<Shard> shards_;
};

/// Compact-mode storage of one search: the tree database its node
/// identities intern into plus the visited table keyed by them. The
/// searches hold it in a std::optional engaged only under
/// VisitedMode::kCompact, so an exact-mode search constructs none of it.
struct CompactSearchStorage {
  explicit CompactSearchStorage(size_t shard_count) : visited(shard_count) {}

  /// The pilot-reset hook's discard (quiescent callers only).
  void Clear() {
    visited.Clear();
    treedb.Clear();
  }

  store::TreeDb treedb;
  CompactVisitedTable visited;
};

/// Serial quotient set of tree refs: the LTS explorer's seen-set,
/// consulted only inside the level barrier (one thread). Open
/// addressing over raw refs — ~4 bytes of payload per distinct
/// configuration versus a full Instance handle per entry in the exact
/// table. No deletions, so no tombstones. All ref values are legal
/// keys, including kNilTreeRef (a single-relation empty configuration
/// folds to it), which is held out of band of the slot array.
class CompactRefSet {
 public:
  CompactRefSet();

  CompactRefSet(const CompactRefSet&) = delete;
  CompactRefSet& operator=(const CompactRefSet&) = delete;

  /// True when `ref` was newly inserted; false when already present.
  bool Insert(store::TreeRef ref);

  size_t size() const { return live_; }
  /// Deterministic footprint: distinct refs × ref size.
  size_t bytes() const { return live_ * sizeof(store::TreeRef); }

 private:
  void Grow();

  std::vector<store::TreeRef> slots_;  // kNilTreeRef = empty
  bool has_nil_ = false;  // the out-of-band kNilTreeRef member bit
  size_t live_ = 0;
};

}  // namespace engine
}  // namespace accltl

#endif  // ACCLTL_ENGINE_COMPACT_TABLE_H_
