#ifndef ACCLTL_SCHEMA_INSTANCE_H_
#define ACCLTL_SCHEMA_INSTANCE_H_

#include <cstdint>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "src/common/value.h"
#include "src/schema/schema.h"
#include "src/store/fact_set.h"
#include "src/store/tuple_range.h"

namespace accltl {
namespace schema {

/// A (finite) instance of a schema: a set of facts per relation (§2).
///
/// Facts are interned in the process-global store::Store and each
/// relation is an immutable, shared store::FactSet, so
///  - copying an instance is O(#relations) shared_ptr copies
///    (copy-on-write: derivations share every untouched relation);
///  - `hash()` is an incrementally-maintained 64-bit configuration
///    hash, making visited-configuration dedup a hash lookup;
///  - equality compares hashes and fact-id vectors, never tuple data.
///
/// Iteration (`tuples`, `facts`) is in fact-id order: deterministic
/// within a process run (interning order), but NOT the value-sorted
/// order of older revisions. `ToString` sorts for stable rendering.
///
/// Mutation goes through `AddFact` (single-fact derivation) or
/// `Instance::Builder` (batch derivation; sorts/merges once).
class Instance {
 public:
  Instance() = default;
  /// Creates an empty instance with one (empty) fact-set per relation.
  explicit Instance(const Schema& schema)
      : relations_(static_cast<size_t>(schema.num_relations()),
                   store::FactSet::Empty()) {}

  int num_relations() const { return static_cast<int>(relations_.size()); }

  /// The facts of relation `id` as a decoding tuple range.
  store::TupleRange tuples(RelationId id) const {
    return store::TupleRange(relations_[static_cast<size_t>(id)].get());
  }

  /// The interned fact set of relation `id` (never null).
  const store::FactSet::Ptr& facts(RelationId id) const {
    return relations_[static_cast<size_t>(id)];
  }

  /// Adds a fact; returns true if it was new. Derives a fresh fact set
  /// for the relation (COW: other instances sharing it are unaffected).
  bool AddFact(RelationId id, const Tuple& t) {
    return AddFactId(id, store::Store::Get().InternTuple(t));
  }

  /// Adds an already-interned fact; returns true if it was new.
  bool AddFactId(RelationId id, store::FactId fact) {
    bool added = false;
    store::FactSet::Ptr& rel = relations_[static_cast<size_t>(id)];
    rel = store::FactSet::WithFact(rel, fact, &added);
    return added;
  }

  /// True iff the fact is present.
  bool Contains(RelationId id, const Tuple& t) const {
    store::FactId fact = store::Store::Get().TryFindTuple(t);
    return fact != store::kNoFactId &&
           relations_[static_cast<size_t>(id)]->Contains(fact);
  }

  /// Adds every fact of `other` (schemas must match).
  void UnionWith(const Instance& other);

  /// True iff every fact of this instance is in `other`.
  bool SubinstanceOf(const Instance& other) const;

  /// Total number of facts.
  size_t TotalFacts() const;

  /// All values appearing anywhere in the instance (the active domain).
  std::set<Value> ActiveDomain() const;

  /// Interned-id variant of ActiveDomain: sorted, duplicate-free value
  /// ids. No Value copies or string comparisons.
  std::vector<store::ValueId> ActiveDomainIds() const;

  /// Tuples of `id` that agree with `binding` on `positions`
  /// (pointwise; positions[i] carries binding[i]).
  std::vector<Tuple> Matching(RelationId id,
                              const std::vector<Position>& positions,
                              const Tuple& binding) const;

  /// Fact-id variant of Matching: no tuple decoding or copying.
  std::vector<store::FactId> MatchingIds(RelationId id,
                                         const std::vector<Position>& positions,
                                         const Tuple& binding) const;

  /// 64-bit configuration hash: XOR-folded per-relation fact hashes
  /// mixed with the relation index. Equal instances hash equally;
  /// unequal instances collide with probability ~2^-64.
  uint64_t hash() const;

  friend bool operator==(const Instance& a, const Instance& b);
  friend bool operator!=(const Instance& a, const Instance& b) {
    return !(a == b);
  }
  /// Strict weak order over fact-id vectors (NOT value-lexicographic;
  /// use only for deterministic containers, not for semantic order).
  friend bool operator<(const Instance& a, const Instance& b);

  /// Renders facts grouped by relation, using names from `schema`;
  /// tuples are value-sorted for stable output.
  std::string ToString(const Schema& schema) const;

  /// Batch construction/derivation: collects facts, then sorts and
  /// merges once per touched relation on Build. Defined below.
  class Builder;

 private:
  std::vector<store::FactSet::Ptr> relations_;
};

class Instance::Builder {
 public:
  explicit Builder(const Schema& schema) : base_(schema) {
    pending_.resize(static_cast<size_t>(base_.num_relations()));
  }
  /// Starts from an existing instance (COW derivation).
  explicit Builder(Instance base) : base_(std::move(base)) {
    pending_.resize(static_cast<size_t>(base_.num_relations()));
  }

  Builder& Add(RelationId id, const Tuple& t) {
    return Add(id, store::Store::Get().InternTuple(t));
  }
  Builder& Add(RelationId id, store::FactId fact) {
    pending_[static_cast<size_t>(id)].push_back(fact);
    return *this;
  }

  Instance Build() &&;

 private:
  Instance base_;
  std::vector<std::vector<store::FactId>> pending_;
};

/// An instance's active domain, computed on first use and then reused.
/// The search engines consult it only in grounded mode; one per
/// expanded node bounds the cost to one scan of the configuration.
class LazyActiveDomain {
 public:
  explicit LazyActiveDomain(const Instance& instance) : instance_(instance) {}

  const std::set<Value>& get() {
    if (!domain_.has_value()) domain_ = instance_.ActiveDomain();
    return *domain_;
  }

 private:
  const Instance& instance_;
  std::optional<std::set<Value>> domain_;
};

struct InstanceHash {
  size_t operator()(const Instance& i) const {
    return static_cast<size_t>(i.hash());
  }
};

}  // namespace schema
}  // namespace accltl

#endif  // ACCLTL_SCHEMA_INSTANCE_H_
