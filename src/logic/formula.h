#ifndef ACCLTL_LOGIC_FORMULA_H_
#define ACCLTL_LOGIC_FORMULA_H_

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/logic/predicate.h"
#include "src/logic/term.h"

namespace accltl {
namespace logic {

/// Node kinds of the positive-existential tier FO∃+ (optionally with
/// inequalities, §5.1). There is deliberately no negation node: the
/// paper's lower-tier languages are positive; negation lives in the
/// temporal tier (AccLTL) or in automaton guards (ψ− parts).
enum class NodeKind {
  kTrue,
  kFalse,
  kAtom,    // R_pre(x, "a", y) / IsBind_AcM(x) / IsBind_AcM() [0-ary]
  kEq,      // t1 = t2
  kNeq,     // t1 != t2   (only in the ≠ extensions)
  kAnd,
  kOr,
  kExists,  // EXISTS x, y . body
};

class PosFormula;
/// Formulas are immutable and shared; copying a pointer is O(1).
using PosFormulaPtr = std::shared_ptr<const PosFormula>;

/// An FO∃+(≠) formula over SchAcc or the plain schema vocabulary.
///
/// Build with the static factories:
///   auto f = PosFormula::Exists({"n"},
///       PosFormula::MakeAtom(Bind(acm1), {Term::Var("n")}));
class PosFormula {
 public:
  static PosFormulaPtr True();
  static PosFormulaPtr False();
  static PosFormulaPtr MakeAtom(PredicateRef pred, std::vector<Term> terms);
  static PosFormulaPtr Eq(Term lhs, Term rhs);
  static PosFormulaPtr Neq(Term lhs, Term rhs);
  /// Conjunction; flattens nested Ands and absorbs True/False.
  static PosFormulaPtr And(std::vector<PosFormulaPtr> children);
  /// Disjunction; flattens nested Ors and absorbs True/False.
  static PosFormulaPtr Or(std::vector<PosFormulaPtr> children);
  /// Existential quantification; merges directly nested Exists.
  static PosFormulaPtr Exists(std::vector<std::string> vars,
                              PosFormulaPtr body);

  NodeKind kind() const { return kind_; }

  // kAtom accessors.
  const PredicateRef& pred() const { return pred_; }
  const std::vector<Term>& terms() const { return terms_; }

  // kEq / kNeq accessors.
  const Term& lhs() const { return lhs_; }
  const Term& rhs() const { return rhs_; }

  // kAnd / kOr accessors.
  const std::vector<PosFormulaPtr>& children() const { return children_; }

  // kExists accessors.
  const std::vector<std::string>& bound_vars() const { return vars_; }
  const PosFormulaPtr& body() const { return body_; }

  /// Free variables of the formula.
  std::set<std::string> FreeVars() const;

  /// True iff the formula has no free variables (is a sentence).
  bool IsSentence() const { return FreeVars().empty(); }

  /// True iff some kNeq node occurs (the ≠ extensions of §5.1).
  bool UsesInequality() const;

  /// True iff some IsBind atom occurs with a non-empty term list, i.e.
  /// the formula needs the full SchAcc vocabulary rather than Sch0−Acc
  /// (§4.2).
  bool UsesNAryBind() const;

  /// True iff some IsBind atom occurs at all (any arity).
  bool UsesBind() const;

  /// True iff some atom lies in the kPlain space (ordinary query) —
  /// such formulas are queries over instances, not transitions.
  bool UsesPlainSpace() const;

  /// All predicates occurring in the formula.
  std::set<PredicateRef> Predicates() const;

  /// All constants occurring in the formula.
  std::set<Value> Constants() const;

  /// Structural equality.
  static bool Equal(const PosFormulaPtr& a, const PosFormulaPtr& b);

  /// Renders using predicate names from `schema`.
  std::string ToString(const schema::Schema& schema) const;

  /// Validates arities and position types of all atoms against `schema`,
  /// assuming atoms are in the spaces allowed by `allow_plain` /
  /// `allow_transition` (pre/post/bind).
  Status Validate(const schema::Schema& schema) const;

 private:
  PosFormula() = default;

  static std::shared_ptr<PosFormula> NewNode();

  void CollectFreeVars(std::set<std::string>* bound,
                       std::set<std::string>* free) const;

  NodeKind kind_ = NodeKind::kTrue;
  PredicateRef pred_;
  std::vector<Term> terms_;
  Term lhs_, rhs_;
  std::vector<PosFormulaPtr> children_;
  std::vector<std::string> vars_;
  PosFormulaPtr body_;
};

/// Rewrites every kPlain atom into `target` space (kPre or kPost):
/// the Qpre / Qpost operation of Example 2.2.
PosFormulaPtr ShiftPlainSpace(const PosFormulaPtr& f, PredSpace target);

}  // namespace logic
}  // namespace accltl

#endif  // ACCLTL_LOGIC_FORMULA_H_
