#include "src/automata/a_automaton.h"

#include <memory>

#include "src/accltl/semantics.h"
#include "src/common/strings.h"
#include "src/logic/eval.h"

namespace accltl {
namespace automata {

Guard::~Guard() { delete compiled_.load(std::memory_order_relaxed); }

const Guard::Compiled& Guard::compiled() const {
  const Compiled* c = compiled_.load(std::memory_order_acquire);
  if (c != nullptr) return *c;
  auto built = std::make_unique<Compiled>();
  for (const logic::PosFormulaPtr& part : PositiveSentences()) {
    built->positive.emplace_back(part);
  }
  for (const logic::PosFormulaPtr& gamma : negated) {
    built->negated.emplace_back(gamma);
  }
  if (compiled_.compare_exchange_strong(c, built.get(),
                                        std::memory_order_acq_rel)) {
    return *built.release();
  }
  return *c;  // another thread won the race
}

std::vector<logic::PosFormulaPtr> Guard::PositiveSentences() const {
  if (positive == nullptr || positive->kind() == logic::NodeKind::kTrue) {
    return {};
  }
  bool conjuncts = positive->kind() == logic::NodeKind::kAnd;
  for (const logic::PosFormulaPtr& part : positive->children()) {
    conjuncts = conjuncts && part->IsSentence();
  }
  if (conjuncts) return positive->children();
  return {positive};
}

bool Guard::Eval(const schema::Transition& t) const {
  logic::TransitionView view(t);
  return Eval(view);
}

bool Guard::Eval(const logic::StructureView& view) const {
  for (const logic::CompiledFormula& part : compiled().positive) {
    if (!part.Eval(view)) return false;
  }
  for (const logic::CompiledFormula& gamma : compiled().negated) {
    if (gamma.Eval(view)) return false;
  }
  return true;
}

std::string Guard::ToString(const schema::Schema& schema) const {
  std::vector<std::string> parts;
  if (positive != nullptr) parts.push_back(positive->ToString(schema));
  for (const logic::PosFormulaPtr& gamma : negated) {
    parts.push_back("NOT(" + gamma->ToString(schema) + ")");
  }
  if (parts.empty()) return "TRUE";
  return Join(parts, " AND ");
}

Status AAutomaton::Validate() const {
  if (initial_ < 0 || initial_ >= num_states_) {
    return Status::InvalidArgument("initial state out of range");
  }
  for (int s : accepting_) {
    if (s < 0 || s >= num_states_) {
      return Status::InvalidArgument("accepting state out of range");
    }
  }
  for (const ATransition& t : transitions_) {
    if (t.from < 0 || t.from >= num_states_ || t.to < 0 ||
        t.to >= num_states_) {
      return Status::InvalidArgument("transition state out of range");
    }
    for (const logic::PosFormulaPtr& gamma : t.guard.negated) {
      if (gamma->UsesBind()) {
        return Status::InvalidArgument(
            "negated guard component mentions IsBind (violates Def. 4.3)");
      }
      if (!gamma->IsSentence()) {
        return Status::InvalidArgument("guard component is not a sentence");
      }
    }
    if (t.guard.positive != nullptr && !t.guard.positive->IsSentence()) {
      return Status::InvalidArgument("guard component is not a sentence");
    }
  }
  return Status::OK();
}

std::string AAutomaton::ToString(const schema::Schema& schema) const {
  std::string out = "states: " + std::to_string(num_states_) +
                    ", initial: " + std::to_string(initial_) + ", accepting:";
  for (int s : accepting_) out += " " + std::to_string(s);
  out += "\n";
  for (const ATransition& t : transitions_) {
    out += "  " + std::to_string(t.from) + " --[" +
           t.guard.ToString(schema) + "]--> " + std::to_string(t.to) + "\n";
  }
  return out;
}

bool AcceptsTransitions(const AAutomaton& automaton,
                        const std::vector<schema::Transition>& transitions) {
  std::set<int> current = {automaton.initial()};
  for (const schema::Transition& t : transitions) {
    std::set<int> next;
    for (const ATransition& at : automaton.transitions()) {
      if (current.count(at.from) == 0) continue;
      if (next.count(at.to) > 0) continue;
      if (at.guard.Eval(t)) next.insert(at.to);
    }
    current = std::move(next);
    if (current.empty()) return false;
  }
  for (int s : current) {
    if (automaton.IsAccepting(s)) return true;
  }
  return false;
}

bool Accepts(const AAutomaton& automaton, const schema::Schema& schema,
             const schema::AccessPath& path,
             const schema::Instance& initial) {
  std::vector<schema::Transition> transitions =
      acc::PathTransitions(schema, path, initial);
  return AcceptsTransitions(automaton, transitions);
}

}  // namespace automata
}  // namespace accltl
