#include "src/logic/formula.h"

#include <algorithm>

#include "src/common/strings.h"

namespace accltl {
namespace logic {

std::shared_ptr<PosFormula> PosFormula::NewNode() {
  // std::make_shared cannot reach the private constructor; plain new
  // inside this private static member can.
  return std::shared_ptr<PosFormula>(new PosFormula());
}

PosFormulaPtr PosFormula::True() {
  static const PosFormulaPtr kTrueNode = [] {
    auto n = NewNode();
    n->kind_ = NodeKind::kTrue;
    return n;
  }();
  return kTrueNode;
}

PosFormulaPtr PosFormula::False() {
  static const PosFormulaPtr kFalseNode = [] {
    auto n = NewNode();
    n->kind_ = NodeKind::kFalse;
    return n;
  }();
  return kFalseNode;
}

PosFormulaPtr PosFormula::MakeAtom(PredicateRef pred,
                                   std::vector<Term> terms) {
  auto n = NewNode();
  n->kind_ = NodeKind::kAtom;
  n->pred_ = pred;
  n->terms_ = std::move(terms);
  return n;
}

PosFormulaPtr PosFormula::Eq(Term lhs, Term rhs) {
  auto n = NewNode();
  n->kind_ = NodeKind::kEq;
  n->lhs_ = std::move(lhs);
  n->rhs_ = std::move(rhs);
  return n;
}

PosFormulaPtr PosFormula::Neq(Term lhs, Term rhs) {
  auto n = NewNode();
  n->kind_ = NodeKind::kNeq;
  n->lhs_ = std::move(lhs);
  n->rhs_ = std::move(rhs);
  return n;
}

PosFormulaPtr PosFormula::And(std::vector<PosFormulaPtr> children) {
  std::vector<PosFormulaPtr> flat;
  for (PosFormulaPtr& c : children) {
    if (c->kind() == NodeKind::kFalse) return False();
    if (c->kind() == NodeKind::kTrue) continue;
    if (c->kind() == NodeKind::kAnd) {
      flat.insert(flat.end(), c->children_.begin(), c->children_.end());
    } else {
      flat.push_back(std::move(c));
    }
  }
  if (flat.empty()) return True();
  if (flat.size() == 1) return flat[0];
  auto n = NewNode();
  n->kind_ = NodeKind::kAnd;
  n->children_ = std::move(flat);
  return n;
}

PosFormulaPtr PosFormula::Or(std::vector<PosFormulaPtr> children) {
  std::vector<PosFormulaPtr> flat;
  for (PosFormulaPtr& c : children) {
    if (c->kind() == NodeKind::kTrue) return True();
    if (c->kind() == NodeKind::kFalse) continue;
    if (c->kind() == NodeKind::kOr) {
      flat.insert(flat.end(), c->children_.begin(), c->children_.end());
    } else {
      flat.push_back(std::move(c));
    }
  }
  if (flat.empty()) return False();
  if (flat.size() == 1) return flat[0];
  auto n = NewNode();
  n->kind_ = NodeKind::kOr;
  n->children_ = std::move(flat);
  return n;
}

PosFormulaPtr PosFormula::Exists(std::vector<std::string> vars,
                                 PosFormulaPtr body) {
  if (vars.empty()) return body;
  if (body->kind() == NodeKind::kExists) {
    vars.insert(vars.end(), body->vars_.begin(), body->vars_.end());
    body = body->body_;
  }
  auto n = NewNode();
  n->kind_ = NodeKind::kExists;
  n->vars_ = std::move(vars);
  n->body_ = std::move(body);
  return n;
}

void PosFormula::CollectFreeVars(std::set<std::string>* bound,
                                 std::set<std::string>* free) const {
  switch (kind_) {
    case NodeKind::kTrue:
    case NodeKind::kFalse:
      return;
    case NodeKind::kAtom:
      for (const Term& t : terms_) {
        if (t.is_var() && bound->count(t.var_name()) == 0) {
          free->insert(t.var_name());
        }
      }
      return;
    case NodeKind::kEq:
    case NodeKind::kNeq:
      for (const Term* t : {&lhs_, &rhs_}) {
        if (t->is_var() && bound->count(t->var_name()) == 0) {
          free->insert(t->var_name());
        }
      }
      return;
    case NodeKind::kAnd:
    case NodeKind::kOr:
      for (const PosFormulaPtr& c : children_) {
        c->CollectFreeVars(bound, free);
      }
      return;
    case NodeKind::kExists: {
      std::vector<std::string> newly;
      for (const std::string& v : vars_) {
        if (bound->insert(v).second) newly.push_back(v);
      }
      body_->CollectFreeVars(bound, free);
      for (const std::string& v : newly) bound->erase(v);
      return;
    }
  }
}

std::set<std::string> PosFormula::FreeVars() const {
  std::set<std::string> bound, free;
  CollectFreeVars(&bound, &free);
  return free;
}

bool PosFormula::UsesInequality() const {
  switch (kind_) {
    case NodeKind::kNeq:
      return true;
    case NodeKind::kAnd:
    case NodeKind::kOr:
      return std::any_of(children_.begin(), children_.end(),
                         [](const PosFormulaPtr& c) {
                           return c->UsesInequality();
                         });
    case NodeKind::kExists:
      return body_->UsesInequality();
    default:
      return false;
  }
}

bool PosFormula::UsesNAryBind() const {
  switch (kind_) {
    case NodeKind::kAtom:
      return pred_.space == PredSpace::kBind && !terms_.empty();
    case NodeKind::kAnd:
    case NodeKind::kOr:
      return std::any_of(children_.begin(), children_.end(),
                         [](const PosFormulaPtr& c) {
                           return c->UsesNAryBind();
                         });
    case NodeKind::kExists:
      return body_->UsesNAryBind();
    default:
      return false;
  }
}

bool PosFormula::UsesBind() const {
  switch (kind_) {
    case NodeKind::kAtom:
      return pred_.space == PredSpace::kBind;
    case NodeKind::kAnd:
    case NodeKind::kOr:
      return std::any_of(
          children_.begin(), children_.end(),
          [](const PosFormulaPtr& c) { return c->UsesBind(); });
    case NodeKind::kExists:
      return body_->UsesBind();
    default:
      return false;
  }
}

bool PosFormula::UsesPlainSpace() const {
  switch (kind_) {
    case NodeKind::kAtom:
      return pred_.space == PredSpace::kPlain;
    case NodeKind::kAnd:
    case NodeKind::kOr:
      return std::any_of(
          children_.begin(), children_.end(),
          [](const PosFormulaPtr& c) { return c->UsesPlainSpace(); });
    case NodeKind::kExists:
      return body_->UsesPlainSpace();
    default:
      return false;
  }
}

std::set<PredicateRef> PosFormula::Predicates() const {
  std::set<PredicateRef> out;
  switch (kind_) {
    case NodeKind::kAtom:
      out.insert(pred_);
      break;
    case NodeKind::kAnd:
    case NodeKind::kOr:
      for (const PosFormulaPtr& c : children_) {
        auto sub = c->Predicates();
        out.insert(sub.begin(), sub.end());
      }
      break;
    case NodeKind::kExists: {
      auto sub = body_->Predicates();
      out.insert(sub.begin(), sub.end());
      break;
    }
    default:
      break;
  }
  return out;
}

std::set<Value> PosFormula::Constants() const {
  std::set<Value> out;
  switch (kind_) {
    case NodeKind::kAtom:
      for (const Term& t : terms_) {
        if (t.is_const()) out.insert(t.value());
      }
      break;
    case NodeKind::kEq:
    case NodeKind::kNeq:
      if (lhs_.is_const()) out.insert(lhs_.value());
      if (rhs_.is_const()) out.insert(rhs_.value());
      break;
    case NodeKind::kAnd:
    case NodeKind::kOr:
      for (const PosFormulaPtr& c : children_) {
        auto sub = c->Constants();
        out.insert(sub.begin(), sub.end());
      }
      break;
    case NodeKind::kExists: {
      auto sub = body_->Constants();
      out.insert(sub.begin(), sub.end());
      break;
    }
    default:
      break;
  }
  return out;
}

bool PosFormula::Equal(const PosFormulaPtr& a, const PosFormulaPtr& b) {
  if (a.get() == b.get()) return true;
  if (a->kind_ != b->kind_) return false;
  switch (a->kind_) {
    case NodeKind::kTrue:
    case NodeKind::kFalse:
      return true;
    case NodeKind::kAtom:
      return a->pred_ == b->pred_ && a->terms_ == b->terms_;
    case NodeKind::kEq:
    case NodeKind::kNeq:
      return a->lhs_ == b->lhs_ && a->rhs_ == b->rhs_;
    case NodeKind::kAnd:
    case NodeKind::kOr: {
      if (a->children_.size() != b->children_.size()) return false;
      for (size_t i = 0; i < a->children_.size(); ++i) {
        if (!Equal(a->children_[i], b->children_[i])) return false;
      }
      return true;
    }
    case NodeKind::kExists:
      return a->vars_ == b->vars_ && Equal(a->body_, b->body_);
  }
  return false;
}

std::string PosFormula::ToString(const schema::Schema& schema) const {
  switch (kind_) {
    case NodeKind::kTrue:
      return "TRUE";
    case NodeKind::kFalse:
      return "FALSE";
    case NodeKind::kAtom: {
      std::vector<std::string> parts;
      parts.reserve(terms_.size());
      for (const Term& t : terms_) parts.push_back(t.ToString());
      return PredicateName(pred_, schema) + "(" + Join(parts, ", ") + ")";
    }
    case NodeKind::kEq:
      return lhs_.ToString() + " = " + rhs_.ToString();
    case NodeKind::kNeq:
      return lhs_.ToString() + " != " + rhs_.ToString();
    case NodeKind::kAnd:
    case NodeKind::kOr: {
      std::vector<std::string> parts;
      parts.reserve(children_.size());
      for (const PosFormulaPtr& c : children_) {
        parts.push_back("(" + c->ToString(schema) + ")");
      }
      return Join(parts, kind_ == NodeKind::kAnd ? " AND " : " OR ");
    }
    case NodeKind::kExists:
      return "EXISTS " + Join(vars_, ", ") + " . (" +
             body_->ToString(schema) + ")";
  }
  return "?";
}

Status PosFormula::Validate(const schema::Schema& schema) const {
  switch (kind_) {
    case NodeKind::kAtom: {
      if (pred_.space == PredSpace::kBind) {
        if (pred_.id < 0 || pred_.id >= schema.num_access_methods()) {
          return Status::InvalidArgument("bind predicate: bad method id");
        }
        // 0 terms = the 0-ary vocabulary Sch0−Acc; otherwise full arity.
        int want = schema.method(pred_.id).num_inputs();
        if (!terms_.empty() && static_cast<int>(terms_.size()) != want) {
          return Status::InvalidArgument(
              "IsBind arity mismatch for method " +
              schema.method(pred_.id).name);
        }
      } else {
        if (pred_.id < 0 || pred_.id >= schema.num_relations()) {
          return Status::InvalidArgument("relation predicate: bad id");
        }
        if (static_cast<int>(terms_.size()) !=
            schema.relation(pred_.id).arity()) {
          return Status::InvalidArgument(
              "atom arity mismatch for " + schema.relation(pred_.id).name);
        }
      }
      for (size_t i = 0; i < terms_.size(); ++i) {
        if (terms_[i].is_const()) {
          ValueType want =
              PredicatePositionType(pred_, static_cast<int>(i), schema);
          if (terms_[i].value().type() != want) {
            return Status::InvalidArgument(
                "constant type mismatch in atom " +
                PredicateName(pred_, schema));
          }
        }
      }
      return Status::OK();
    }
    case NodeKind::kAnd:
    case NodeKind::kOr:
      for (const PosFormulaPtr& c : children_) {
        ACCLTL_RETURN_IF_ERROR(c->Validate(schema));
      }
      return Status::OK();
    case NodeKind::kExists:
      return body_->Validate(schema);
    default:
      return Status::OK();
  }
}

PosFormulaPtr ShiftPlainSpace(const PosFormulaPtr& f, PredSpace target) {
  switch (f->kind()) {
    case NodeKind::kAtom: {
      if (f->pred().space == PredSpace::kPlain) {
        return PosFormula::MakeAtom(PredicateRef{target, f->pred().id},
                                    f->terms());
      }
      return f;
    }
    case NodeKind::kAnd:
    case NodeKind::kOr: {
      std::vector<PosFormulaPtr> kids;
      kids.reserve(f->children().size());
      for (const PosFormulaPtr& c : f->children()) {
        kids.push_back(ShiftPlainSpace(c, target));
      }
      return f->kind() == NodeKind::kAnd ? PosFormula::And(std::move(kids))
                                         : PosFormula::Or(std::move(kids));
    }
    case NodeKind::kExists:
      return PosFormula::Exists(f->bound_vars(),
                                ShiftPlainSpace(f->body(), target));
    default:
      return f;
  }
}

}  // namespace logic
}  // namespace accltl
