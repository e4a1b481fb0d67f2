#ifndef ACCLTL_STORE_FACT_STORE_H_
#define ACCLTL_STORE_FACT_STORE_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "src/common/value.h"
#include "src/store/stable_vector.h"

namespace accltl {
namespace store {

/// Dense id of an interned Value. Ids are assigned in first-interning
/// order and never recycled, so an id obtained once stays valid for the
/// process lifetime.
using ValueId = uint32_t;
/// Dense id of an interned (canonical) tuple. Fact ids are
/// relation-agnostic: two relations containing the same tuple share one
/// id, and instances attach ids to relations.
using FactId = uint32_t;

inline constexpr ValueId kNoValueId = 0xffffffffu;
inline constexpr FactId kNoFactId = 0xffffffffu;

/// splitmix64 finalizer: cheap, well-distributed 64-bit mixing.
inline uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Process-global interner for values and canonical facts.
///
/// The store is append-only: interning assigns the next dense id, and
/// decoded payloads live at stable addresses (store::StableVector) so
/// `value()` and `tuple()` references never move.  Every fact carries a
/// precomputed 64-bit mixed hash over its value ids; configuration
/// hashes (schema::Instance, store::FactSet) are XOR-folds of these, so
/// adding a fact updates a configuration hash in O(1).
///
/// Thread-safety: fully concurrent. Interning is striped — the
/// value-id and fact-id maps are split into kShards shards, each under
/// its own mutex, so parallel search workers interning mostly-distinct
/// payloads rarely contend. Id-indexed lookups (`value`, `tuple`,
/// `fact_hash`, `fact_values`) take no lock: payloads are written into
/// block-stable storage *before* the id escapes the shard mutex, so any
/// id a thread legitimately holds (received over a happens-before edge:
/// the interning call itself, a shard-map hit, a thread-pool region's
/// start or join) denotes fully-constructed, immutable data.
class Store {
 public:
  /// The process-global store.
  static Store& Get();

  /// Interns through a per-thread hit cache (ids are stable, so
  /// replaying a previous answer needs no lock).
  ValueId InternValue(const Value& v);
  /// kNoValueId when `v` was never interned (then no interned fact and
  /// no instance can contain it).
  ValueId TryFindValue(const Value& v) const;
  const Value& value(ValueId id) const { return values_[id]; }

  FactId InternTuple(const Tuple& t);
  /// kNoFactId when `t` was never interned.
  FactId TryFindTuple(const Tuple& t) const;
  const Tuple& tuple(FactId id) const { return facts_[id].decoded; }
  /// The interned value ids of the fact, in position order.
  const std::vector<ValueId>& fact_values(FactId id) const {
    return facts_[id].values;
  }
  /// Precomputed mixed hash; already safe to XOR-fold.
  uint64_t fact_hash(FactId id) const { return facts_[id].hash; }

  size_t num_values() const {
    return next_value_id_.load(std::memory_order_acquire);
  }
  size_t num_facts() const {
    return next_fact_id_.load(std::memory_order_acquire);
  }

 private:
  static constexpr size_t kShards = 32;  // power of two

  Store() = default;
  Store(const Store&) = delete;
  Store& operator=(const Store&) = delete;

  struct FactRep {
    std::vector<ValueId> values;
    Tuple decoded;
    uint64_t hash = 0;
  };

  struct IdVectorHash {
    size_t operator()(const std::vector<ValueId>& ids) const {
      uint64_t h = Mix64(ids.size());
      for (ValueId v : ids) h = Mix64(h ^ v);
      return static_cast<size_t>(h);
    }
  };

  struct ValueShard {
    mutable std::mutex mu;
    std::unordered_map<Value, ValueId, ValueHash> ids;
  };
  struct FactShard {
    mutable std::mutex mu;
    std::unordered_map<std::vector<ValueId>, FactId, IdVectorHash> ids;
  };

  ValueId InternValueSlow(const Value& v);
  FactId InternTupleSlow(const Tuple& t);

  ValueShard& value_shard(const Value& v) const {
    return value_shards_[ValueHash{}(v)&(kShards - 1)];
  }
  FactShard& fact_shard(const std::vector<ValueId>& ids) const {
    return fact_shards_[IdVectorHash{}(ids) & (kShards - 1)];
  }

  mutable ValueShard value_shards_[kShards];
  mutable FactShard fact_shards_[kShards];
  std::atomic<size_t> next_value_id_{0};
  std::atomic<size_t> next_fact_id_{0};
  StableVector<Value> values_;
  StableVector<FactRep> facts_;
};

}  // namespace store
}  // namespace accltl

#endif  // ACCLTL_STORE_FACT_STORE_H_
