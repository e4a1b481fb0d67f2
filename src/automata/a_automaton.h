#ifndef ACCLTL_AUTOMATA_A_AUTOMATON_H_
#define ACCLTL_AUTOMATA_A_AUTOMATON_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/logic/eval.h"
#include "src/logic/formula.h"
#include "src/logic/structure.h"
#include "src/schema/access.h"
#include "src/schema/lts.h"

namespace accltl {
namespace automata {

/// A transition guard ψ− ∧ ψ+ (Def. 4.3): ψ+ is an FO∃+ sentence over
/// SchAcc (may mention IsBind); ψ− is a conjunction of negated FO∃+
/// sentences that must not mention IsBind.
///
/// The first evaluation compiles both parts (logic::CompiledFormula)
/// and later evaluations reuse them, so the formula fields must not
/// change once the guard has been evaluated. A copy starts uncompiled.
/// Eval serves Accepts, the online monitor and witness shrinking; the
/// emptiness search never calls it: it decides guards through its
/// search plan, which compiles each distinct sentence of the
/// automaton's guards once (automata/emptiness.cc).
struct Guard {
  /// ψ+ (TRUE when absent).
  logic::PosFormulaPtr positive;
  /// The γ of each ¬γ conjunct of ψ−.
  std::vector<logic::PosFormulaPtr> negated;

  Guard() = default;
  Guard(const Guard& other)
      : positive(other.positive), negated(other.negated) {}
  Guard(Guard&& other) noexcept
      : positive(std::move(other.positive)),
        negated(std::move(other.negated)),
        compiled_(other.compiled_.exchange(nullptr)) {}
  Guard& operator=(Guard other) noexcept {
    positive = std::move(other.positive);
    negated = std::move(other.negated);
    delete compiled_.exchange(other.compiled_.exchange(nullptr));
    return *this;
  }
  ~Guard();

  /// Evaluates the guard on the transition structure M(t).
  bool Eval(const schema::Transition& t) const;

  /// Evaluates the guard against an arbitrary structure view — e.g. a
  /// logic::IndexedTransitionView, which answers bound-position atom
  /// probes through a MatchIndexCache instead of scanning (the online
  /// monitor's per-step path), or a logic::CandidateView (an access
  /// and its response before the post-instance is built).
  bool Eval(const logic::StructureView& view) const;

  /// ψ+ as sentences that must all hold: its conjuncts when it is a
  /// conjunction of sentences, else ψ+ itself; none for TRUE.
  std::vector<logic::PosFormulaPtr> PositiveSentences() const;

  std::string ToString(const schema::Schema& schema) const;

 private:
  /// PositiveSentences() and each γ of ψ−, compiled.
  struct Compiled {
    std::vector<logic::CompiledFormula> positive;
    std::vector<logic::CompiledFormula> negated;
  };
  /// The compiled parts, built on first use (racing first evaluations
  /// keep one build and discard the other).
  const Compiled& compiled() const;

  mutable std::atomic<const Compiled*> compiled_{nullptr};
};

struct ATransition {
  int from = 0;
  Guard guard;
  int to = 0;
};

/// The emptiness engine's compiled form of an automaton
/// (automata/emptiness.cc).
struct SearchPlan;

/// An Access-automaton (Def. 4.3): finite control running over access
/// paths; each path transition must satisfy the guard of the automaton
/// transition taken.
///
/// The automaton owns its search plan: the first BoundedWitnessSearch
/// builds it and later searches reuse it. The plan reads only the
/// transitions, so copies share it and AddTransition drops it.
class AAutomaton {
 public:
  AAutomaton() = default;

  /// Adds a state; returns its id.
  int AddState() { return num_states_++; }

  void SetInitial(int s) { initial_ = s; }
  void AddAccepting(int s) { accepting_.insert(s); }
  void AddTransition(int from, Guard guard, int to) {
    // A fresh slot unless this one is unshared and still unbuilt (a
    // moved-from automaton has none).
    if (plan_.use_count() != 1 || plan_->plan != nullptr) {
      plan_ = std::make_shared<PlanSlot>();
    }
    transitions_.push_back(ATransition{from, std::move(guard), to});
  }

  int num_states() const { return num_states_; }
  int initial() const { return initial_; }
  const std::set<int>& accepting() const { return accepting_; }
  bool IsAccepting(int s) const { return accepting_.count(s) > 0; }
  const std::vector<ATransition>& transitions() const { return transitions_; }

  /// Checks Def. 4.3's well-formedness: state ids in range and no
  /// IsBind predicate inside the negated guard parts.
  Status Validate() const;

  std::string ToString(const schema::Schema& schema) const;

 private:
  /// The search plan, built under `once` by its first reader.
  struct PlanSlot {
    std::once_flag once;
    std::shared_ptr<const SearchPlan> plan;
  };
  friend std::shared_ptr<const SearchPlan> PlanFor(
      const AAutomaton& automaton, const schema::Schema& schema);

  int num_states_ = 0;
  int initial_ = 0;
  std::set<int> accepting_;
  std::vector<ATransition> transitions_;
  std::shared_ptr<PlanSlot> plan_ = std::make_shared<PlanSlot>();
};

/// Does the automaton accept this access path (some run over all
/// transitions ending in an accepting state)? NFA subset simulation;
/// guards evaluated on each M(ti).
bool Accepts(const AAutomaton& automaton, const schema::Schema& schema,
             const schema::AccessPath& path,
             const schema::Instance& initial);

/// Same over pre-materialized transitions.
bool AcceptsTransitions(const AAutomaton& automaton,
                        const std::vector<schema::Transition>& transitions);

}  // namespace automata
}  // namespace accltl

#endif  // ACCLTL_AUTOMATA_A_AUTOMATON_H_
