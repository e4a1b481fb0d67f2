#include "src/logic/containment.h"

#include <functional>

#include <algorithm>
#include <cassert>
#include <optional>
#include <vector>

namespace accltl {
namespace logic {

namespace {

/// One identification of the left query's variables: a partition of the
/// variables where each block is either "generic" (a fresh value) or
/// pinned to one constant.
struct Identification {
  /// Variable -> value under this identification.
  std::map<std::string, Value> assignment;
};

/// Enumerates identifications of `vars` (restricted-growth partitions),
/// each block optionally pinned to a type-compatible constant from
/// `const_pool`, and calls `fn` for each. `fn` returning true stops the
/// enumeration (a counterexample was found).
class IdentificationEnumerator {
 public:
  IdentificationEnumerator(std::vector<std::string> vars,
                           std::map<std::string, ValueType> types,
                           std::vector<Value> const_pool)
      : vars_(std::move(vars)),
        types_(std::move(types)),
        const_pool_(std::move(const_pool)) {}

  /// Returns true iff `fn` returned true for some identification.
  bool ForEach(const std::function<bool(const Identification&)>& fn) {
    block_of_.assign(vars_.size(), 0);
    return Rec(0, 0, fn);
  }

 private:
  bool Rec(size_t i, int num_blocks,
           const std::function<bool(const Identification&)>& fn) {
    if (i == vars_.size()) return EmitBlocks(num_blocks, fn);
    for (int b = 0; b <= num_blocks; ++b) {
      block_of_[i] = b;
      if (Rec(i + 1, std::max(num_blocks, b + 1), fn)) return true;
    }
    return false;
  }

  /// For a fixed partition, enumerate the pinning of each block to
  /// "fresh" or to one constant, and emit assignments.
  bool EmitBlocks(int num_blocks,
                  const std::function<bool(const Identification&)>& fn) {
    // Type of each block: all member variables must agree.
    std::vector<std::optional<ValueType>> block_type(
        static_cast<size_t>(num_blocks));
    for (size_t i = 0; i < vars_.size(); ++i) {
      auto it = types_.find(vars_[i]);
      if (it == types_.end()) continue;
      auto& bt = block_type[static_cast<size_t>(block_of_[i])];
      if (!bt.has_value()) {
        bt = it->second;
      } else if (*bt != it->second) {
        return false;  // type clash: partition impossible
      }
    }
    std::vector<std::optional<Value>> pin(static_cast<size_t>(num_blocks));
    return PinRec(0, num_blocks, block_type, &pin, fn);
  }

  bool PinRec(int b, int num_blocks,
              const std::vector<std::optional<ValueType>>& block_type,
              std::vector<std::optional<Value>>* pin,
              const std::function<bool(const Identification&)>& fn) {
    if (b == num_blocks) {
      Identification id;
      FreshValueFactory factory;
      std::vector<Value> block_value(static_cast<size_t>(num_blocks));
      for (int k = 0; k < num_blocks; ++k) {
        const auto& p = (*pin)[static_cast<size_t>(k)];
        if (p.has_value()) {
          block_value[static_cast<size_t>(k)] = *p;
        } else {
          ValueType t = block_type[static_cast<size_t>(k)].value_or(
              ValueType::kInt);
          block_value[static_cast<size_t>(k)] = factory.Fresh(t);
        }
      }
      for (size_t i = 0; i < vars_.size(); ++i) {
        id.assignment[vars_[i]] =
            block_value[static_cast<size_t>(block_of_[i])];
      }
      return fn(id);
    }
    // Option 1: generic (fresh value).
    (*pin)[static_cast<size_t>(b)] = std::nullopt;
    if (PinRec(b + 1, num_blocks, block_type, pin, fn)) return true;
    // Option 2: one of the type-compatible constants.
    for (const Value& c : const_pool_) {
      const auto& bt = block_type[static_cast<size_t>(b)];
      if (bt.has_value() && c.type() != *bt) continue;
      (*pin)[static_cast<size_t>(b)] = c;
      if (PinRec(b + 1, num_blocks, block_type, pin, fn)) return true;
    }
    (*pin)[static_cast<size_t>(b)] = std::nullopt;
    return false;
  }

  std::vector<std::string> vars_;
  std::map<std::string, ValueType> types_;
  std::vector<Value> const_pool_;
  std::vector<int> block_of_;
};

/// Does the identification satisfy all ≠ atoms of `q`?
bool NeqsHold(const Cq& q, const std::map<std::string, Value>& assignment) {
  auto value_of = [&](const Term& t) -> Value {
    if (t.is_const()) return t.value();
    auto it = assignment.find(t.var_name());
    assert(it != assignment.end());
    return it->second;
  };
  for (const auto& [l, r] : q.neqs) {
    if (value_of(l) == value_of(r)) return false;
  }
  for (const auto& [l, r] : q.head_eqs) {
    if (assignment.at(l) != assignment.at(r)) return false;
  }
  for (const auto& [v, c] : q.head_consts) {
    if (assignment.at(v) != c) return false;
  }
  return true;
}

/// Builds the database of `q` under `assignment`.
Database Collapse(const Cq& q,
                  const std::map<std::string, Value>& assignment) {
  Database db;
  for (const CqAtom& a : q.atoms) {
    Tuple t;
    t.reserve(a.terms.size());
    for (const Term& term : a.terms) {
      t.push_back(term.is_const() ? term.value()
                                  : assignment.at(term.var_name()));
    }
    db.AddFact(a.pred, std::move(t));
  }
  return db;
}

/// Does some disjunct of `rhs` hold on `db` with the given head values?
bool RhsHolds(const Ucq& rhs, const Database& db, const Tuple& head_values) {
  DatabaseView view(db);
  for (const Cq& d : rhs.disjuncts) {
    Env seed;
    bool arity_ok = d.head.size() == head_values.size();
    assert(arity_ok);
    if (!arity_ok) continue;
    bool consistent = true;
    for (size_t i = 0; i < d.head.size(); ++i) {
      auto [it, inserted] = seed.emplace(d.head[i], head_values[i]);
      if (!inserted && it->second != head_values[i]) {
        consistent = false;
        break;
      }
    }
    if (!consistent) continue;
    if (EvalWithEnv(d.ToFormula(), view, seed)) return true;
  }
  return false;
}

}  // namespace

Result<bool> CqContainedInUcq(const Cq& q1, const Ucq& q2,
                              const schema::Schema& schema) {
  if (q1.head.size() != q2.head.size()) {
    return Status::InvalidArgument("containment: head arity mismatch");
  }
  Result<std::map<std::string, ValueType>> types = InferVarTypes(q1, schema);
  if (!types.ok()) return types.status();

  bool needs_identifications = q1.UsesInequality() || q2.UsesInequality();
  // Constants from both sides matter: a left variable mapping onto a
  // right-hand constant is a real possibility in some database.
  std::set<Value> const_set = q1.Constants();
  for (const Cq& d : q2.disjuncts) {
    std::set<Value> cs = d.Constants();
    const_set.insert(cs.begin(), cs.end());
  }

  auto counterexample = [&](const std::map<std::string, Value>& assignment) {
    if (!NeqsHold(q1, assignment)) return false;  // not a valid q1 model
    Database db = Collapse(q1, assignment);
    Tuple head_values;
    head_values.reserve(q1.head.size());
    for (const std::string& h : q1.head) {
      head_values.push_back(assignment.at(h));
    }
    return !RhsHolds(q2, db, head_values);
  };

  if (!needs_identifications) {
    // Chandra–Merlin: the single all-distinct canonical database decides.
    FreshValueFactory factory;
    std::map<std::string, Value> assignment;
    for (const auto& [var, type] : types.value()) {
      assignment[var] = factory.Fresh(type);
    }
    return !counterexample(assignment);
  }

  std::set<std::string> var_set = q1.Vars();
  std::vector<std::string> vars(var_set.begin(), var_set.end());
  IdentificationEnumerator en(vars, types.value(),
                              std::vector<Value>(const_set.begin(),
                                                 const_set.end()));
  bool found_counterexample =
      en.ForEach([&](const Identification& id) {
        return counterexample(id.assignment);
      });
  return !found_counterexample;
}

Result<bool> CqContained(const Cq& q1, const Cq& q2,
                         const schema::Schema& schema) {
  Ucq rhs;
  rhs.head = q2.head;
  rhs.disjuncts = {q2};
  return CqContainedInUcq(q1, rhs, schema);
}

Result<bool> UcqContained(const Ucq& q1, const Ucq& q2,
                          const schema::Schema& schema) {
  for (const Cq& d : q1.disjuncts) {
    Result<bool> r = CqContainedInUcq(d, q2, schema);
    if (!r.ok()) return r;
    if (!r.value()) return false;
  }
  return true;
}

Result<bool> SentenceContained(const PosFormulaPtr& f1,
                               const PosFormulaPtr& f2,
                               const schema::Schema& schema) {
  Result<Ucq> u1 = NormalizeToUcq(f1, {}, schema);
  if (!u1.ok()) return u1.status();
  Result<Ucq> u2 = NormalizeToUcq(f2, {}, schema);
  if (!u2.ok()) return u2.status();
  return UcqContained(u1.value(), u2.value(), schema);
}

}  // namespace logic
}  // namespace accltl
