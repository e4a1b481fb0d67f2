#include "src/ltl/sat.h"

#include <map>
#include <set>
#include <vector>

#include "src/ltl/tableau.h"

namespace accltl {
namespace ltl {

namespace {

/// One tableau branch at a position: consistent literals plus the
/// obligations shifted to the next position (subformula ids).
struct Branch {
  std::set<int> pos_lits;
  std::set<int> neg_lits;
  /// Obligations under strong X: the word must continue.
  std::set<int> next_strong;
  /// Obligations under weak N: honored only if the word continues.
  std::set<int> next_weak;
};

/// An obligation set: ids of NNF subformulas.
using State = std::set<int>;

/// The NNF of a formula with every subformula numbered once, in a
/// pre-order walk. States and obligations are sets of those ids, so the
/// order Expand walks them in — hence edge order, state numbering and
/// everything compiled from the automaton — depends on the formula's
/// structure only, never on where its nodes were allocated.
class Tableau {
 public:
  explicit Tableau(const LtlPtr& root) : root_(LtlFormula::Nnf(root)) {
    std::map<const LtlFormula*, int> ids;
    Number(root_.get(), &ids);
  }

  /// The id of the NNF root (always 0).
  int root() const { return 0; }

  /// Expands a set of NNF formulas into all consistent branches.
  std::vector<Branch> Expand(const State& state) const {
    std::vector<Branch> out;
    std::vector<int> pending(state.begin(), state.end());
    Branch current;
    Rec(&pending, 0, &current, &out);
    return out;
  }

 private:
  struct Node {
    const LtlFormula* f;
    /// Operand ids: the children of AND/OR, the child of NOT/X/N, and
    /// (lhs, rhs) of U/R.
    std::vector<int> kids;
  };

  int Number(const LtlFormula* f, std::map<const LtlFormula*, int>* ids) {
    auto [it, fresh] = ids->emplace(f, static_cast<int>(nodes_.size()));
    if (!fresh) return it->second;
    int id = it->second;
    nodes_.push_back(Node{f, {}});
    std::vector<int> kids;
    switch (f->kind()) {
      case LtlKind::kAnd:
      case LtlKind::kOr:
        for (const LtlPtr& c : f->children()) {
          kids.push_back(Number(c.get(), ids));
        }
        break;
      case LtlKind::kNot:
      case LtlKind::kNext:
      case LtlKind::kWeakNext:
        kids.push_back(Number(f->child().get(), ids));
        break;
      case LtlKind::kUntil:
      case LtlKind::kRelease:
        kids.push_back(Number(f->lhs().get(), ids));
        kids.push_back(Number(f->rhs().get(), ids));
        break;
      default:
        break;
    }
    nodes_[static_cast<size_t>(id)].kids = std::move(kids);
    return id;
  }

  void Rec(std::vector<int>* pending, size_t idx, Branch* current,
           std::vector<Branch>* out) const {
    if (idx == pending->size()) {
      out->push_back(*current);
      return;
    }
    const int id = (*pending)[idx];
    const Node& node = nodes_[static_cast<size_t>(id)];
    const LtlFormula* f = node.f;
    switch (f->kind()) {
      case LtlKind::kTrue:
        Rec(pending, idx + 1, current, out);
        return;
      case LtlKind::kFalse:
        return;  // inconsistent branch
      case LtlKind::kProp: {
        if (current->neg_lits.count(f->prop())) return;
        bool added = current->pos_lits.insert(f->prop()).second;
        Rec(pending, idx + 1, current, out);
        if (added) current->pos_lits.erase(f->prop());
        return;
      }
      case LtlKind::kNot: {
        // NNF: child is a proposition.
        int p = f->child()->prop();
        if (current->pos_lits.count(p)) return;
        bool added = current->neg_lits.insert(p).second;
        Rec(pending, idx + 1, current, out);
        if (added) current->neg_lits.erase(p);
        return;
      }
      case LtlKind::kAnd: {
        size_t old_size = pending->size();
        for (int c : node.kids) pending->push_back(c);
        Rec(pending, idx + 1, current, out);
        pending->resize(old_size);
        return;
      }
      case LtlKind::kOr: {
        for (int c : node.kids) {
          size_t old_size = pending->size();
          pending->push_back(c);
          Rec(pending, idx + 1, current, out);
          pending->resize(old_size);
        }
        return;
      }
      case LtlKind::kNext: {
        bool added = current->next_strong.insert(node.kids[0]).second;
        Rec(pending, idx + 1, current, out);
        if (added) current->next_strong.erase(node.kids[0]);
        return;
      }
      case LtlKind::kWeakNext: {
        bool added = current->next_weak.insert(node.kids[0]).second;
        Rec(pending, idx + 1, current, out);
        if (added) current->next_weak.erase(node.kids[0]);
        return;
      }
      case LtlKind::kUntil: {
        // φ U ψ ≡ ψ ∨ (φ ∧ X(φ U ψ))
        const int lhs = node.kids[0], rhs = node.kids[1];
        {
          size_t old_size = pending->size();
          pending->push_back(rhs);
          Rec(pending, idx + 1, current, out);
          pending->resize(old_size);
        }
        {
          size_t old_size = pending->size();
          pending->push_back(lhs);
          bool added = current->next_strong.insert(id).second;
          Rec(pending, idx + 1, current, out);
          if (added) current->next_strong.erase(id);
          pending->resize(old_size);
        }
        return;
      }
      case LtlKind::kRelease: {
        // φ R ψ ≡ ψ ∧ (φ ∨ N(φ R ψ))
        const int lhs = node.kids[0], rhs = node.kids[1];
        {
          size_t old_size = pending->size();
          pending->push_back(rhs);
          pending->push_back(lhs);
          Rec(pending, idx + 1, current, out);
          pending->resize(old_size);
        }
        {
          size_t old_size = pending->size();
          pending->push_back(rhs);
          bool added = current->next_weak.insert(id).second;
          Rec(pending, idx + 1, current, out);
          if (added) current->next_weak.erase(id);
          pending->resize(old_size);
        }
        return;
      }
    }
  }

  /// Keeps the NNF's nodes alive while `nodes_` points into it.
  LtlPtr root_;
  /// Subformula id -> node, in pre-order.
  std::vector<Node> nodes_;
};

}  // namespace

Result<TableauAutomaton> BuildTableau(const LtlPtr& f, size_t max_states) {
  Tableau tableau(f);
  TableauAutomaton out;
  std::map<State, int> state_ids;
  std::vector<State> worklist;

  auto intern = [&](const State& s) -> int {
    auto it = state_ids.find(s);
    if (it != state_ids.end()) return it->second;
    int id = static_cast<int>(state_ids.size());
    state_ids.emplace(s, id);
    worklist.push_back(s);
    return id;
  };

  State initial = {tableau.root()};
  out.initial = intern(initial);
  for (size_t next = 0; next < worklist.size(); ++next) {
    if (state_ids.size() > max_states) {
      return Status::ResourceExhausted("tableau exceeded max_states");
    }
    State state = worklist[next];
    int id = state_ids[state];
    for (const Branch& b : tableau.Expand(state)) {
      TableauEdge e;
      e.from = id;
      e.pos_lits = b.pos_lits;
      e.neg_lits = b.neg_lits;
      e.may_end = b.next_strong.empty();
      State succ = b.next_strong;
      succ.insert(b.next_weak.begin(), b.next_weak.end());
      e.to = intern(succ);
      out.edges.push_back(std::move(e));
    }
  }
  out.num_states = static_cast<int>(state_ids.size());
  return out;
}

SatResult CheckSatFinite(const LtlPtr& f, size_t max_states) {
  SatResult result;
  Tableau tableau(f);

  // Phase 1: forward-explore the reachable obligation-set graph.
  struct Edge {
    std::set<int> pos_lits;
    int successor = -1;  // -1: the word may end on this branch
  };
  std::map<State, int> state_ids;
  std::vector<std::vector<Edge>> edges;
  std::vector<State> worklist;

  auto intern = [&](const State& s) -> int {
    auto it = state_ids.find(s);
    if (it != state_ids.end()) return it->second;
    int id = static_cast<int>(edges.size());
    state_ids.emplace(s, id);
    edges.emplace_back();
    worklist.push_back(s);
    return id;
  };

  State initial = {tableau.root()};
  intern(initial);
  for (size_t next = 0; next < worklist.size(); ++next) {
    if (state_ids.size() > max_states) {
      result.resource_exhausted = true;
      break;
    }
    State state = worklist[next];
    int id = state_ids[state];
    ++result.states_explored;
    for (const Branch& b : tableau.Expand(state)) {
      Edge e;
      e.pos_lits = b.pos_lits;
      if (b.next_strong.empty()) {
        e.successor = -1;  // can end here
      } else {
        State succ = b.next_strong;
        succ.insert(b.next_weak.begin(), b.next_weak.end());
        e.successor = intern(succ);
      }
      edges[static_cast<size_t>(id)].push_back(std::move(e));
    }
  }

  // Phase 2: backward fixpoint — distance (in steps) from each state to
  // a branch where the word may end. Works on the explored subgraph, so
  // a positive answer is sound even when exploration was truncated.
  constexpr int kInf = 1 << 30;
  std::vector<int> dist(edges.size(), kInf);
  bool changed = true;
  while (changed) {
    changed = false;
    for (size_t i = 0; i < edges.size(); ++i) {
      int best = dist[i];
      for (const Edge& e : edges[i]) {
        int candidate =
            e.successor < 0
                ? 0
                : (dist[static_cast<size_t>(e.successor)] == kInf
                       ? kInf
                       : dist[static_cast<size_t>(e.successor)] + 1);
        if (candidate < best) best = candidate;
      }
      if (best < dist[i]) {
        dist[i] = best;
        changed = true;
      }
    }
  }

  int init_id = state_ids[initial];
  result.satisfiable = dist[static_cast<size_t>(init_id)] != kInf;
  if (!result.satisfiable) {
    // A truncated graph cannot prove unsatisfiability.
    if (result.resource_exhausted) result.satisfiable = false;
  } else {
    result.resource_exhausted = false;
    // Phase 3: extract a shortest witness by walking distance downhill.
    int cur = init_id;
    while (true) {
      const std::vector<Edge>& out = edges[static_cast<size_t>(cur)];
      const Edge* chosen = nullptr;
      int want = dist[static_cast<size_t>(cur)];
      for (const Edge& e : out) {
        if (want == 0 && e.successor < 0) {
          chosen = &e;
          break;
        }
        if (e.successor >= 0 &&
            dist[static_cast<size_t>(e.successor)] == want - 1) {
          chosen = &e;
          break;
        }
      }
      result.witness.push_back(chosen->pos_lits);
      if (chosen->successor < 0) break;
      cur = chosen->successor;
    }
  }
  return result;
}

}  // namespace ltl
}  // namespace accltl
