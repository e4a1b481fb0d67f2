#ifndef ACCLTL_LOGIC_STRUCTURE_H_
#define ACCLTL_LOGIC_STRUCTURE_H_

#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/common/value.h"
#include "src/logic/predicate.h"
#include "src/schema/lts.h"
#include "src/store/match_index.h"
#include "src/store/tuple_range.h"

namespace accltl {
namespace logic {

/// Read-only view of a relational structure over (a subset of) the
/// SchAcc vocabulary. The evaluator (eval.h) works against this
/// interface, so instances, transitions and canonical databases are all
/// queried uniformly.
class StructureView {
 public:
  virtual ~StructureView() = default;

  /// Tuples interpreting `pred`; an empty range is the empty
  /// interpretation (instances serve interned fact spans, databases
  /// serve plain tuple sets — see store::TupleRange).
  virtual store::TupleRange GetTuples(const PredicateRef& pred) const = 0;

  /// The 0-ary IsBind_AcM proposition of the Sch0−Acc vocabulary
  /// (§4.2): did this position's transition use method `m`?
  virtual bool MethodUsed(schema::AccessMethodId m) const {
    (void)m;
    return false;
  }

  /// Optional index acceleration: the ascending fact ids of the tuples
  /// interpreting `pred` whose value at `position` is `v`, or nullptr
  /// when this view serves no index for the predicate (the evaluator
  /// then falls back to scanning GetTuples). An implementation must
  /// return exactly the subset of GetTuples with that value, in
  /// GetTuples (fact-id) order, so the indexed path enumerates the
  /// same matches in the same order as the scan.
  virtual const std::vector<store::FactId>* FactIdIndex(
      const PredicateRef& pred, int position, store::ValueId v) const {
    (void)pred;
    (void)position;
    (void)v;
    return nullptr;
  }
};

/// Views a plain instance: interprets only the kPlain space.
class InstanceView : public StructureView {
 public:
  explicit InstanceView(const schema::Instance& instance)
      : instance_(instance) {}

  store::TupleRange GetTuples(const PredicateRef& pred) const override {
    if (pred.space != PredSpace::kPlain) return store::TupleRange();
    return instance_.tuples(pred.id);
  }

 private:
  const schema::Instance& instance_;
};

/// Views the structure M(t) of a transition t = (I, (AcM, b̄), I′) (§2):
/// Rpre ↦ I(R), Rpost ↦ I′(R), IsBind_AcM ↦ {b̄}, other IsBind empty.
/// Also serves as M′(t) for the 0-ary vocabulary via MethodUsed.
class TransitionView : public StructureView {
 public:
  explicit TransitionView(const schema::Transition& t) : t_(t) {}

  store::TupleRange GetTuples(const PredicateRef& pred) const override {
    switch (pred.space) {
      case PredSpace::kPre:
        return t_.pre.tuples(pred.id);
      case PredSpace::kPost:
        return t_.post.tuples(pred.id);
      case PredSpace::kBind:
        return pred.id == t_.access.method
                   ? store::TupleRange::Single(&t_.access.binding)
                   : store::TupleRange();
      case PredSpace::kPlain:
        return store::TupleRange();
    }
    return store::TupleRange();
  }

  bool MethodUsed(schema::AccessMethodId m) const override {
    return m == t_.access.method;
  }

 private:
  const schema::Transition& t_;
};

/// Views M(t) of a *candidate* transition before its post-instance
/// exists: the pre-instance, the access and the response fact ids.
/// Rpost of the accessed relation reads as pre's fact set followed by
/// the response ids pre lacks (a two-span store::TupleRange); every
/// other Rpost is Rpre. The search engines decide each candidate access
/// on this view and build the post-instance only for survivors.
/// Constructing or evaluating on the view interns nothing. The view
/// keeps the response ids pre lacks in the caller's `scratch`, so a
/// candidate loop that reuses one buffer allocates nothing per view.
/// The pre instance, binding, response and scratch must outlive the
/// view.
class CandidateView : public StructureView {
 public:
  CandidateView(const schema::Schema& schema, const schema::Instance& pre,
                const schema::Access& access,
                const std::vector<store::FactId>& response_ids,
                std::vector<store::FactId>* scratch);

  store::TupleRange GetTuples(const PredicateRef& pred) const override {
    switch (pred.space) {
      case PredSpace::kPre:
        return pre_.tuples(pred.id);
      case PredSpace::kPost:
        if (pred.id != relation_) return pre_.tuples(pred.id);
        return store::TupleRange(pre_.facts(pred.id).get(), new_ids_.data(),
                                 new_ids_.size());
      case PredSpace::kBind:
        return pred.id == access_.method
                   ? store::TupleRange::Single(&access_.binding)
                   : store::TupleRange();
      case PredSpace::kPlain:
        return store::TupleRange();
    }
    return store::TupleRange();
  }

  bool MethodUsed(schema::AccessMethodId m) const override {
    return m == access_.method;
  }

 private:
  const schema::Instance& pre_;
  const schema::Access& access_;
  schema::RelationId relation_;
  /// The response ids not already in pre, ascending, duplicate-free
  /// (the caller's scratch).
  const std::vector<store::FactId>& new_ids_;
};

/// TransitionView with store::MatchIndexCache acceleration: pre/post
/// relation atoms answer bound-position lookups through the cache's
/// per-(FactSet, position) value indexes, so evaluating a guard costs
/// the matching tuples, not a scan of the whole configuration.
/// Copy-on-write instances share unchanged FactSets, so a long-lived
/// cache (e.g. one per monitored session) reuses every index across
/// steps and only ever indexes the one relation a step touched.
/// The view holds the caller's LocalView; both must outlive it.
class IndexedTransitionView : public TransitionView {
 public:
  IndexedTransitionView(const schema::Transition& t,
                        store::MatchIndexCache::LocalView* index)
      : TransitionView(t), transition_(t), index_(index) {}

  const std::vector<store::FactId>* FactIdIndex(
      const PredicateRef& pred, int position,
      store::ValueId v) const override {
    const store::FactSet::Ptr* set = nullptr;
    switch (pred.space) {
      case PredSpace::kPre:
        set = &transition_.pre.facts(pred.id);
        break;
      case PredSpace::kPost:
        set = &transition_.post.facts(pred.id);
        break;
      default:
        // IsBind is a singleton and kPlain is empty on M(t): nothing
        // worth indexing.
        return nullptr;
    }
    return &index_->Lookup(*set, position, v);
  }

 private:
  const schema::Transition& transition_;
  store::MatchIndexCache::LocalView* index_;
};

/// A free-form database over any mix of vocabulary spaces; used for
/// canonical databases of queries and for the Datalog machinery.
class Database {
 public:
  /// Adds a fact; returns true if new.
  bool AddFact(const PredicateRef& pred, Tuple t) {
    return rels_[pred].insert(std::move(t)).second;
  }

  bool Contains(const PredicateRef& pred, const Tuple& t) const {
    auto it = rels_.find(pred);
    return it != rels_.end() && it->second.count(t) > 0;
  }

  const std::set<Tuple>* GetTuples(const PredicateRef& pred) const {
    auto it = rels_.find(pred);
    return it == rels_.end() ? nullptr : &it->second;
  }

  const std::map<PredicateRef, std::set<Tuple>>& relations() const {
    return rels_;
  }

  size_t TotalFacts() const {
    size_t n = 0;
    for (const auto& [pred, tuples] : rels_) n += tuples.size();
    return n;
  }

  void UnionWith(const Database& other) {
    for (const auto& [pred, tuples] : other.rels_) {
      rels_[pred].insert(tuples.begin(), tuples.end());
    }
  }

  std::set<Value> ActiveDomain() const {
    std::set<Value> dom;
    for (const auto& [pred, tuples] : rels_) {
      for (const Tuple& t : tuples) dom.insert(t.begin(), t.end());
    }
    return dom;
  }

  friend bool operator==(const Database& a, const Database& b) {
    return a.rels_ == b.rels_;
  }
  friend bool operator<(const Database& a, const Database& b) {
    return a.rels_ < b.rels_;
  }

  std::string ToString(const schema::Schema& schema) const;

 private:
  std::map<PredicateRef, std::set<Tuple>> rels_;
};

/// Views a Database. The 0-ary IsBind proposition holds when the
/// database contains the empty tuple for the bind predicate.
class DatabaseView : public StructureView {
 public:
  explicit DatabaseView(const Database& db) : db_(db) {}

  store::TupleRange GetTuples(const PredicateRef& pred) const override {
    return store::TupleRange(db_.GetTuples(pred));
  }

  bool MethodUsed(schema::AccessMethodId m) const override {
    return db_.Contains(logic::Bind(m), Tuple{});
  }

 private:
  const Database& db_;
};

}  // namespace logic
}  // namespace accltl

#endif  // ACCLTL_LOGIC_STRUCTURE_H_
