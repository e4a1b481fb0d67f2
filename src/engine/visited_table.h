#ifndef ACCLTL_ENGINE_VISITED_TABLE_H_
#define ACCLTL_ENGINE_VISITED_TABLE_H_

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/obs/metrics.h"

namespace accltl {
namespace engine {

namespace internal {
/// Visited-table instruments (shared by every ShardedVisitedTable
/// instantiation); resolved once, written relaxed off the hot path —
/// after the shard lock is released, never under it.
struct VisitedMetrics {
  obs::Counter* inserts;
  obs::Counter* dominated;
  obs::Histogram* probe_len;
  static const VisitedMetrics& Get() {
    static const VisitedMetrics m{
        obs::Registry::Get().counter("engine.visited.inserts"),
        obs::Registry::Get().counter("engine.visited.dominated"),
        obs::Registry::Get().histogram("engine.visited.probe_len"),
    };
    return m;
  }
};
}  // namespace internal

/// Sharded concurrent visited table for state-space exploration.
///
/// Keyed by a caller-supplied 64-bit hash (for the witness search:
/// Mix64 over (automaton state, configuration hash)); each hash bucket
/// keeps the full entries so the caller's dominance predicate can
/// confirm exactly on collision — a hash collision can never prune
/// wrongly. Buckets are striped over shards, each under its own mutex;
/// a check-and-insert is atomic per shard, so two workers racing the
/// same state resolve deterministically (one inserts, the other sees
/// the entry).
template <typename Entry>
class ShardedVisitedTable {
 public:
  explicit ShardedVisitedTable(size_t shard_count = 64)
      : mask_(RoundUpPow2(shard_count) - 1),
        shards_(RoundUpPow2(shard_count)) {}

  ShardedVisitedTable(const ShardedVisitedTable&) = delete;
  ShardedVisitedTable& operator=(const ShardedVisitedTable&) = delete;

  /// Atomically: if some existing entry with this hash dominates
  /// `entry` (per `dominates(existing, entry)` — which must include the
  /// exact-equality confirmation of whatever the hash abbreviates),
  /// returns true and inserts nothing. Otherwise inserts `entry`,
  /// drops existing entries that `entry` dominates — reporting each to
  /// `evict` first, so the caller can cancel in-flight work hanging
  /// off a superseded entry — and returns false.
  ///
  /// `dominates(a, b)` must mean "a's presence makes exploring b
  /// redundant" and be reflexive-compatible with the caller's search
  /// order (see DESIGN.md, deterministic reduction).
  template <typename Dominates, typename Evict>
  bool CheckAndInsert(uint64_t hash, Entry entry, const Dominates& dominates,
                      const Evict& evict) {
    const internal::VisitedMetrics& metrics = internal::VisitedMetrics::Get();
    size_t probes = 0;
    bool hit = false;
    {
      Shard& shard = shards_[static_cast<size_t>(hash) & mask_];
      std::lock_guard<std::mutex> lock(shard.mu);
      std::vector<Entry>& bucket = shard.buckets[hash];
      probes = bucket.size();
      for (const Entry& existing : bucket) {
        if (dominates(existing, entry)) {
          hit = true;
          break;
        }
      }
      if (!hit) {
        // Keep the bucket minimal: remove entries the newcomer
        // dominates.
        size_t kept = 0;
        for (size_t i = 0; i < bucket.size(); ++i) {
          if (dominates(entry, bucket[i])) {
            evict(bucket[i]);
          } else {
            if (kept != i) bucket[kept] = std::move(bucket[i]);
            ++kept;
          }
        }
        bucket.erase(bucket.begin() + static_cast<std::ptrdiff_t>(kept),
                     bucket.end());
        bucket.push_back(std::move(entry));
      }
    }
    metrics.probe_len->Record(probes);
    (hit ? metrics.dominated : metrics.inserts)->Inc();
    return hit;
  }

  template <typename Dominates>
  bool CheckAndInsert(uint64_t hash, Entry entry,
                      const Dominates& dominates) {
    return CheckAndInsert(hash, std::move(entry), dominates,
                          [](const Entry&) {});
  }

  /// Total entries across shards (quiescent callers only — counts
  /// under per-shard locks but not atomically across shards).
  size_t size() const {
    size_t total = 0;
    for (const Shard& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard.mu);
      for (const auto& [hash, bucket] : shard.buckets) {
        total += bucket.size();
      }
    }
    return total;
  }

  void Clear() {
    for (Shard& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard.mu);
      shard.buckets.clear();
    }
  }

 private:
  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<uint64_t, std::vector<Entry>> buckets;
  };

  static size_t RoundUpPow2(size_t n) {
    size_t p = 1;
    while (p < n) p <<= 1;
    return p;
  }

  size_t mask_;
  std::vector<Shard> shards_;
};

}  // namespace engine
}  // namespace accltl

#endif  // ACCLTL_ENGINE_VISITED_TABLE_H_
