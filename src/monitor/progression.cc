#include "src/monitor/progression.h"

#include <cassert>

#include "src/logic/eval.h"

namespace accltl {
namespace monitor {

const char* VerdictName(Verdict v) {
  switch (v) {
    case Verdict::kSatisfied:
      return "satisfied";
    case Verdict::kViolated:
      return "violated";
    case Verdict::kCurrentlyTrue:
      return "currently-true";
    case Verdict::kCurrentlyFalse:
      return "currently-false";
  }
  return "?";
}

/// Residual-obligation nodes. `kDefer` wraps an original subformula
/// whose evaluation starts at the *next* position; it is the only leaf
/// that survives a step, so the residual never mentions past letters.
struct ProgressionMonitor::Prog {
  enum class Kind { kConst, kDefer, kNot, kAnd, kOr };

  Kind kind = Kind::kConst;
  bool const_value = false;
  acc::AccPtr deferred;            // kDefer
  std::vector<ProgPtr> children;   // kNot (1), kAnd, kOr

  static ProgPtr Const(bool b) {
    auto n = std::make_shared<Prog>();
    n->kind = Kind::kConst;
    n->const_value = b;
    return n;
  }

  static ProgPtr Defer(acc::AccPtr f) {
    auto n = std::make_shared<Prog>();
    n->kind = Kind::kDefer;
    n->deferred = std::move(f);
    return n;
  }

  static ProgPtr Not(ProgPtr c) {
    if (c->kind == Kind::kConst) return Const(!c->const_value);
    if (c->kind == Kind::kNot) return c->children[0];  // ¬¬φ = φ
    auto n = std::make_shared<Prog>();
    n->kind = Kind::kNot;
    n->children = {std::move(c)};
    return n;
  }

  static ProgPtr And(std::vector<ProgPtr> cs) {
    std::vector<ProgPtr> kept;
    for (ProgPtr& c : cs) {
      if (c->kind == Kind::kConst) {
        if (!c->const_value) return Const(false);
        continue;  // drop neutral true
      }
      kept.push_back(std::move(c));
    }
    if (kept.empty()) return Const(true);
    if (kept.size() == 1) return kept[0];
    auto n = std::make_shared<Prog>();
    n->kind = Kind::kAnd;
    n->children = std::move(kept);
    return n;
  }

  static ProgPtr Or(std::vector<ProgPtr> cs) {
    std::vector<ProgPtr> kept;
    for (ProgPtr& c : cs) {
      if (c->kind == Kind::kConst) {
        if (c->const_value) return Const(true);
        continue;  // drop neutral false
      }
      kept.push_back(std::move(c));
    }
    if (kept.empty()) return Const(false);
    if (kept.size() == 1) return kept[0];
    auto n = std::make_shared<Prog>();
    n->kind = Kind::kOr;
    n->children = std::move(kept);
    return n;
  }

  /// Value when the path ends here: deferred obligations are strong
  /// (X/U past the end fail), matching acc::EvalOnTransitions.
  bool EndValue() const {
    switch (kind) {
      case Kind::kConst:
        return const_value;
      case Kind::kDefer:
        return false;
      case Kind::kNot:
        return !children[0]->EndValue();
      case Kind::kAnd:
        for (const ProgPtr& c : children) {
          if (!c->EndValue()) return false;
        }
        return true;
      case Kind::kOr:
        for (const ProgPtr& c : children) {
          if (c->EndValue()) return true;
        }
        return false;
    }
    return false;
  }

  size_t Size() const {
    size_t n = 1;
    for (const ProgPtr& c : children) n += c->Size();
    return n;
  }

  std::string ToString() const {
    switch (kind) {
      case Kind::kConst:
        return const_value ? "true" : "false";
      case Kind::kDefer:
        return "<defer>";
      case Kind::kNot:
        return "!" + children[0]->ToString();
      case Kind::kAnd:
      case Kind::kOr: {
        std::string sep = kind == Kind::kAnd ? " & " : " | ";
        std::string out = "(";
        for (size_t i = 0; i < children.size(); ++i) {
          if (i > 0) out += sep;
          out += children[i]->ToString();
        }
        return out + ")";
      }
    }
    return "?";
  }
};

ProgressionMonitor::ProgressionMonitor(acc::AccPtr formula,
                                       const schema::Schema& schema,
                                       schema::Instance initial)
    : schema_(schema), current_(std::move(initial)) {
  residual_ = Prog::Defer(std::move(formula));
  RecomputeVerdict();
}

ProgressionMonitor::ProgPtr ProgressionMonitor::ProgressFormula(
    const acc::AccFormula* f, const schema::Transition& t) const {
  switch (f->kind()) {
    case acc::AccKind::kAtom:
      return Prog::Const(logic::EvalOnTransition(f->sentence(), t));
    case acc::AccKind::kNot:
      return Prog::Not(ProgressFormula(f->child().get(), t));
    case acc::AccKind::kAnd: {
      std::vector<ProgPtr> cs;
      cs.reserve(f->children().size());
      for (const acc::AccPtr& c : f->children()) {
        cs.push_back(ProgressFormula(c.get(), t));
      }
      return Prog::And(std::move(cs));
    }
    case acc::AccKind::kOr: {
      std::vector<ProgPtr> cs;
      cs.reserve(f->children().size());
      for (const acc::AccPtr& c : f->children()) {
        cs.push_back(ProgressFormula(c.get(), t));
      }
      return Prog::Or(std::move(cs));
    }
    case acc::AccKind::kNext:
      return Prog::Defer(f->child());
    case acc::AccKind::kUntil: {
      // φ U ψ = ψ ∨ (φ ∧ X(φ U ψ)), with a strong X.
      ProgPtr now = ProgressFormula(f->rhs().get(), t);
      ProgPtr keep = ProgressFormula(f->lhs().get(), t);
      // Defer the *same node* so the residual shares structure.
      ProgPtr later = Prog::Defer(
          acc::AccFormula::Until(f->lhs(), f->rhs()));
      return Prog::Or({std::move(now),
                       Prog::And({std::move(keep), std::move(later)})});
    }
  }
  return Prog::Const(false);
}

ProgressionMonitor::ProgPtr ProgressionMonitor::ProgressResidual(
    const ProgPtr& s, const schema::Transition& t) const {
  switch (s->kind) {
    case Prog::Kind::kConst:
      return s;
    case Prog::Kind::kDefer:
      return ProgressFormula(s->deferred.get(), t);
    case Prog::Kind::kNot:
      return Prog::Not(ProgressResidual(s->children[0], t));
    case Prog::Kind::kAnd: {
      std::vector<ProgPtr> cs;
      cs.reserve(s->children.size());
      for (const ProgPtr& c : s->children) {
        cs.push_back(ProgressResidual(c, t));
      }
      return Prog::And(std::move(cs));
    }
    case Prog::Kind::kOr: {
      std::vector<ProgPtr> cs;
      cs.reserve(s->children.size());
      for (const ProgPtr& c : s->children) {
        cs.push_back(ProgressResidual(c, t));
      }
      return Prog::Or(std::move(cs));
    }
  }
  return s;
}

void ProgressionMonitor::Step(const schema::Access& access,
                              const schema::Response& response) {
  schema::Transition t =
      schema::MakeTransition(schema_, current_, access, response);
  StepTransition(t);
}

void ProgressionMonitor::StepTransition(const schema::Transition& t) {
  residual_ = ProgressResidual(residual_, t);
  current_ = t.post;
  ++num_steps_;
  RecomputeVerdict();
}

bool ProgressionMonitor::TryStep(const schema::Access& access,
                                 const schema::Response& response,
                                 const engine::CancelToken* cancel) {
  if (cancel != nullptr && cancel->ShouldStop()) return false;
  schema::Transition t =
      schema::MakeTransition(schema_, current_, access, response);
  return TryStepTransition(t, cancel);
}

bool ProgressionMonitor::TryStepTransition(const schema::Transition& t,
                                           const engine::CancelToken* cancel) {
  if (cancel != nullptr && cancel->ShouldStop()) return false;
  StepTransition(t);
  return true;
}

void ProgressionMonitor::RecomputeVerdict() {
  if (residual_->kind == Prog::Kind::kConst) {
    verdict_ =
        residual_->const_value ? Verdict::kSatisfied : Verdict::kViolated;
    return;
  }
  verdict_ = residual_->EndValue() ? Verdict::kCurrentlyTrue
                                   : Verdict::kCurrentlyFalse;
}

size_t ProgressionMonitor::ResidualSize() const { return residual_->Size(); }

std::vector<Verdict> MonitorPath(const acc::AccPtr& formula,
                                 const schema::Schema& schema,
                                 const schema::AccessPath& path,
                                 const schema::Instance& initial) {
  ProgressionMonitor m(formula, schema, initial);
  std::vector<Verdict> out;
  out.reserve(path.size());
  for (const schema::AccessStep& step : path.steps()) {
    m.Step(step.access, step.response);
    out.push_back(m.verdict());
  }
  return out;
}

}  // namespace monitor
}  // namespace accltl
