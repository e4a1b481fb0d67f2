#ifndef ACCLTL_LOGIC_EVAL_H_
#define ACCLTL_LOGIC_EVAL_H_

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/logic/formula.h"
#include "src/logic/structure.h"

namespace accltl {
namespace logic {

/// A partial assignment of values to variables.
using Env = std::map<std::string, Value>;

/// An FO∃+(≠) formula compiled once for repeated evaluation.
///
/// Compilation maps every variable to a dense slot (each quantifier
/// gets its own slots, so shadowing is resolved statically), fixes the
/// order of every conjunction, and decides for each atom position
/// whether it checks an already-bound value or binds a fresh one.
/// Evaluation is then a backtracking join over slots holding
/// store::ValueIds: fact-id ranges compare through
/// Store::fact_values without decoding a tuple, and a view's
/// FactIdIndex serves the first bound position of an atom.
///
/// Conjunction order: an equality runs as soon as one side is bound,
/// an inequality as soon as both are; other conjuncts keep their
/// written order. Formulas whose every variable is guarded by an atom —
/// all formulas in this library — never meet an unguarded equality (it
/// evaluates to false).
///
/// Evaluation never interns. Values the store has not seen (constants,
/// binding values, canonical-database values) get local ids private
/// to one evaluation, so two occurrences of the same unseen value still
/// compare equal. A compiled formula is immutable and safe to evaluate
/// from several threads at once; copies share the program.
class CompiledFormula {
 public:
  /// The formula TRUE.
  CompiledFormula();
  /// `params`: free variables the caller binds at each evaluation, in
  /// this order; any other free variable starts unbound.
  explicit CompiledFormula(const PosFormulaPtr& f,
                           const std::vector<std::string>& params = {});

  /// Truth on `view`, with `args` bound to the params (same order).
  bool Eval(const StructureView& view,
            const std::vector<Value>& args = {}) const;

  /// All assignments of the free variables `head` that satisfy the
  /// formula; assignments leaving a head variable unbound are skipped.
  std::set<Tuple> Answers(const StructureView& view,
                          const std::vector<std::string>& head) const;

  /// Sentences compiled into one program: one set of allocations and
  /// one constant table for all of them, for callers that keep many
  /// small sentences and always evaluate them together. Evaluate it
  /// with EvalEach only.
  static CompiledFormula Sentences(
      const std::vector<PosFormulaPtr>& sentences);

  /// For a Sentences program: (*truth)[i] is 1 when sentence i holds on
  /// `view`, else 0.
  void EvalEach(const StructureView& view, std::vector<char>* truth) const;

  /// Formulas compiled into one program of numbered entries, for
  /// callers that stream the matches of many small queries (Stream).
  /// The entries share their free variables by name — FreeSlot gives
  /// the slot — and each entry starts with all of them unbound.
  static CompiledFormula Entries(const std::vector<PosFormulaPtr>& formulas);

  /// The slot of free variable `name`, or -1 when the program has none.
  int FreeSlot(const std::string& name) const;

  /// Streams the matches of entry `entry` of an Entries program on
  /// `view`, in match order (a conjunction's atoms in written order,
  /// each atom's facts in GetTuples order): calls `k(slots)` once per
  /// satisfying assignment, with `slots[FreeSlot(name)]` the store id
  /// bound to `name` (a value the store has never seen gets an id no
  /// fact holds). Stops at the first `k` that returns true, and returns
  /// whether one did. Interns nothing, and allocates nothing on views
  /// that serve fact ids for programs of at most 24 slots.
  template <typename K>
  bool Stream(const StructureView& view, uint32_t entry, K& k) const {
    return StreamEntry(
        view, entry,
        [](void* f, const store::ValueId* slots) {
          return (*static_cast<K*>(f))(slots);
        },
        &k);
  }

  /// The compiled program (defined in eval.cc).
  struct Program;

 private:
  /// Compiles `formulas` to one entry each, recorded after the
  /// program's own branches.
  static CompiledFormula MultiEntry(const std::vector<const PosFormula*>& fs);
  bool StreamEntry(const StructureView& view, uint32_t entry,
                   bool (*k)(void*, const store::ValueId*),
                   void* ctx) const;

  std::shared_ptr<const Program> program_;
};

/// Evaluates a sentence (closed formula) of FO∃+(≠) against a structure.
/// Compiles per call; callers evaluating one formula many times hold a
/// CompiledFormula instead.
bool EvalSentence(const PosFormulaPtr& f, const StructureView& view);

/// Evaluates a formula with free variables pre-bound by `env`.
bool EvalWithEnv(const PosFormulaPtr& f, const StructureView& view,
                 const Env& env);

/// Enumerates the answers of an open formula: all assignments of
/// `head` (the answer variables, each free in `f`) that satisfy `f`.
std::set<Tuple> EnumerateAnswers(const PosFormulaPtr& f,
                                 const std::vector<std::string>& head,
                                 const StructureView& view);

/// Convenience: evaluates a boolean query over the kPlain vocabulary on
/// an instance.
bool EvalOnInstance(const PosFormulaPtr& f, const schema::Instance& instance);

/// Convenience: evaluates a SchAcc sentence on a transition (M(t), §2).
bool EvalOnTransition(const PosFormulaPtr& f, const schema::Transition& t);

}  // namespace logic
}  // namespace accltl

#endif  // ACCLTL_LOGIC_EVAL_H_
