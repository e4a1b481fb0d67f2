#ifndef ACCLTL_STORE_FACT_SET_H_
#define ACCLTL_STORE_FACT_SET_H_

#include <algorithm>
#include <memory>
#include <vector>

#include "src/store/fact_store.h"

namespace accltl {
namespace store {

/// An immutable, shareable set of interned facts: the per-relation
/// building block of copy-on-write instances.
///
/// Invariants:
///  - `ids()` is strictly ascending (sorted by FactId, no duplicates);
///  - `hash()` is the XOR-fold of `Store::fact_hash` over the members,
///    maintained incrementally (commutative, so insertion order is
///    irrelevant and single-fact derivation is O(1) hash work);
///  - a FactSet never changes after construction — mutation derives a
///    new set (`WithFact`, `UnionWith`), so any number of instances can
///    alias one set safely.
class FactSet {
 public:
  using Ptr = std::shared_ptr<const FactSet>;

  /// The canonical empty set (shared; never null).
  static const Ptr& Empty();

  /// Sorts and deduplicates.
  static Ptr FromUnsorted(std::vector<FactId> ids);

  const std::vector<FactId>& ids() const { return ids_; }
  size_t size() const { return ids_.size(); }
  bool empty() const { return ids_.empty(); }
  uint64_t hash() const { return hash_; }

  bool Contains(FactId id) const {
    return std::binary_search(ids_.begin(), ids_.end(), id);
  }

  /// Derives `base` plus `id`. `*added` (optional) reports whether the
  /// fact was new; when it was not, `base` itself is returned (no copy).
  static Ptr WithFact(const Ptr& base, FactId id, bool* added = nullptr);

  /// Derives the union of `a` and `b` (sorted merge; returns an
  /// existing side unchanged when the other is a subset of it).
  static Ptr Union(const Ptr& a, const Ptr& b);

  bool SubsetOf(const FactSet& other) const;

  friend bool operator==(const FactSet& a, const FactSet& b) {
    return a.hash_ == b.hash_ && a.ids_ == b.ids_;
  }
  friend bool operator!=(const FactSet& a, const FactSet& b) {
    return !(a == b);
  }

 private:
  FactSet() = default;
  static Ptr Make(std::vector<FactId> sorted_ids);

  std::vector<FactId> ids_;
  uint64_t hash_ = 0;
};

}  // namespace store
}  // namespace accltl

#endif  // ACCLTL_STORE_FACT_SET_H_
