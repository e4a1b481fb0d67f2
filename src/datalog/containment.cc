#include "src/datalog/containment.h"

#include <algorithm>
#include <cassert>
#include <functional>
#include <map>
#include <optional>
#include <set>

#include "src/common/strings.h"

namespace accltl {
namespace datalog {

std::string DlCq::ToString() const {
  std::vector<std::string> parts;
  parts.reserve(atoms.size());
  for (const DlAtom& a : atoms) parts.push_back(a.ToString());
  return Join(parts, " AND ");
}

namespace {

// ---------------------------------------------------------------------------
// Shared small helpers
// ---------------------------------------------------------------------------

using Env = std::map<std::string, Value>;

bool MatchDlAtom(const DlAtom& atom, const DlDatabase& db, Env* env,
                 const std::function<bool()>& k) {
  const std::set<Tuple>* tuples = db.GetTuples(atom.pred);
  if (tuples == nullptr) return false;
  for (const Tuple& tuple : *tuples) {
    if (tuple.size() != atom.terms.size()) continue;
    std::vector<std::string> newly;
    bool ok = true;
    for (size_t i = 0; i < tuple.size(); ++i) {
      const logic::Term& t = atom.terms[i];
      if (t.is_const()) {
        if (t.value() != tuple[i]) {
          ok = false;
          break;
        }
      } else {
        auto it = env->find(t.var_name());
        if (it != env->end()) {
          if (it->second != tuple[i]) {
            ok = false;
            break;
          }
        } else {
          (*env)[t.var_name()] = tuple[i];
          newly.push_back(t.var_name());
        }
      }
    }
    if (ok && k()) return true;
    for (const std::string& v : newly) env->erase(v);
  }
  return false;
}

bool CqHoldsOnDb(const DlCq& q, const DlDatabase& db) {
  Env env;
  std::function<bool(size_t)> rec = [&](size_t i) -> bool {
    if (i == q.atoms.size()) return true;
    return MatchDlAtom(q.atoms[i], db, &env, [&] { return rec(i + 1); });
  };
  return rec(0);
}

}  // namespace

bool UcqHoldsOnDb(const DlUcq& query, const DlDatabase& db) {
  for (const DlCq& q : query) {
    if (CqHoldsOnDb(q, db)) return true;
  }
  return false;
}

bool DlUcqContained(const DlUcq& lhs, const DlUcq& rhs) {
  // Freeze each lhs disjunct (vars -> distinct fresh values) and check
  // rhs on the canonical database. Exact for ≠-free queries.
  for (const DlCq& q : lhs) {
    DlDatabase db;
    int counter = 0;
    std::map<std::string, Value> frozen;
    for (const DlAtom& a : q.atoms) {
      Tuple t;
      t.reserve(a.terms.size());
      for (const logic::Term& term : a.terms) {
        if (term.is_const()) {
          t.push_back(term.value());
        } else {
          auto [it, inserted] = frozen.emplace(
              term.var_name(), Value::Str("~dl" + std::to_string(counter)));
          if (inserted) ++counter;
          t.push_back(it->second);
        }
      }
      db.AddFact(a.pred, std::move(t));
    }
    if (!UcqHoldsOnDb(rhs, db)) return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// UnfoldToUcq
// ---------------------------------------------------------------------------

namespace {

/// Most-general unifier of two term vectors (variables on both sides are
/// from disjoint namespaces thanks to renaming). Returns false on clash.
bool UnifyTerms(const std::vector<logic::Term>& a,
                const std::vector<logic::Term>& b,
                std::map<std::string, logic::Term>* subst) {
  auto resolve = [&](logic::Term t) {
    while (t.is_var()) {
      auto it = subst->find(t.var_name());
      if (it == subst->end()) break;
      t = it->second;
    }
    return t;
  };
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    logic::Term x = resolve(a[i]);
    logic::Term y = resolve(b[i]);
    if (x == y) continue;
    if (x.is_var()) {
      (*subst)[x.var_name()] = y;
    } else if (y.is_var()) {
      (*subst)[y.var_name()] = x;
    } else {
      return false;  // distinct constants
    }
  }
  return true;
}

logic::Term ApplySubstTerm(const std::map<std::string, logic::Term>& subst,
                           logic::Term t) {
  while (t.is_var()) {
    auto it = subst.find(t.var_name());
    if (it == subst.end()) break;
    t = it->second;
  }
  return t;
}

}  // namespace

Result<DlUcq> UnfoldToUcq(const Program& p, size_t max_disjuncts) {
  if (p.IsRecursive()) {
    return Status::Unsupported("UnfoldToUcq requires a nonrecursive program");
  }
  // Work items: partially unfolded bodies.
  std::vector<std::vector<DlAtom>> pending;
  int rename_counter = 0;

  // Seed with each goal rule's body. The goal head terms are irrelevant
  // for the boolean query.
  for (const DlRule* r : p.RulesFor(p.goal())) {
    std::vector<DlAtom> body;
    std::map<std::string, logic::Term> rename;
    std::string prefix = "u" + std::to_string(rename_counter++) + "$";
    for (const DlAtom& a : r->body) {
      DlAtom copy = a;
      for (logic::Term& t : copy.terms) {
        if (t.is_var()) t = logic::Term::Var(prefix + t.var_name());
      }
      body.push_back(std::move(copy));
    }
    pending.push_back(std::move(body));
  }
  if (p.RulesFor(p.goal()).empty()) {
    return DlUcq{};  // goal underivable: empty union (FALSE)
  }

  DlUcq out;
  while (!pending.empty()) {
    if (pending.size() + out.size() > max_disjuncts) {
      return Status::ResourceExhausted("UnfoldToUcq exceeded max_disjuncts");
    }
    std::vector<DlAtom> body = std::move(pending.back());
    pending.pop_back();
    // Find the first IDB atom.
    size_t idx = body.size();
    for (size_t i = 0; i < body.size(); ++i) {
      if (p.IsIdb(body[i].pred)) {
        idx = i;
        break;
      }
    }
    if (idx == body.size()) {
      DlCq q;
      q.atoms = std::move(body);
      out.push_back(std::move(q));
      continue;
    }
    DlAtom target = body[idx];
    for (const DlRule* r : p.RulesFor(target.pred)) {
      std::string prefix = "u" + std::to_string(rename_counter++) + "$";
      auto rename_term = [&](logic::Term t) {
        return t.is_var() ? logic::Term::Var(prefix + t.var_name()) : t;
      };
      std::vector<logic::Term> head_terms;
      head_terms.reserve(r->head.terms.size());
      for (const logic::Term& t : r->head.terms) {
        head_terms.push_back(rename_term(t));
      }
      std::map<std::string, logic::Term> subst;
      if (!UnifyTerms(head_terms, target.terms, &subst)) continue;
      std::vector<DlAtom> next;
      next.reserve(body.size() - 1 + r->body.size());
      for (size_t i = 0; i < body.size(); ++i) {
        if (i == idx) continue;
        DlAtom copy = body[i];
        for (logic::Term& t : copy.terms) t = ApplySubstTerm(subst, t);
        next.push_back(std::move(copy));
      }
      for (const DlAtom& a : r->body) {
        DlAtom copy = a;
        for (logic::Term& t : copy.terms) {
          t = ApplySubstTerm(subst, rename_term(t));
        }
        next.push_back(std::move(copy));
      }
      pending.push_back(std::move(next));
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// ContainedInPositive: the type fixpoint of Prop. 4.11
// ---------------------------------------------------------------------------

namespace {

/// The image of one query variable under a partial embedding, expressed
/// against the expansion's interface.
///
/// Invariants (after canonicalization against the profile):
///  - internal => no slots, no constant; the variable maps to a value
///    created strictly inside the expansion and occurs in no query atom
///    outside the embedding's atom set.
///  - slots hold profile-class representatives; |slots| >= 2 is a
///    *requirement* that the parent pass equal values to those classes.
///  - constant + nonempty slots is a requirement that those interface
///    classes carry that constant.
struct ImageSpec {
  bool internal = false;
  std::set<int> slots;
  std::optional<Value> constant;

  friend bool operator<(const ImageSpec& a, const ImageSpec& b) {
    if (a.internal != b.internal) return a.internal < b.internal;
    if (a.slots != b.slots) return a.slots < b.slots;
    if (a.constant.has_value() != b.constant.has_value()) {
      return a.constant.has_value() < b.constant.has_value();
    }
    if (a.constant.has_value() && !(*a.constant == *b.constant)) {
      return *a.constant < *b.constant;
    }
    return false;
  }
  friend bool operator==(const ImageSpec& a, const ImageSpec& b) {
    return !(a < b) && !(b < a);
  }
};

/// A partial embedding of query disjunct `disjunct` into an expansion.
struct Embedding {
  int disjunct = 0;
  std::set<int> atoms;  // indices into query[disjunct].atoms
  std::map<std::string, ImageSpec> vars;
  /// Interface classes required to carry a constant.
  std::map<int, Value> slot_consts;

  bool Unconditional() const {
    if (!slot_consts.empty()) return false;
    for (const auto& [v, spec] : vars) {
      if (spec.slots.size() >= 2) return false;
      if (spec.constant.has_value() && !spec.slots.empty()) return false;
    }
    return true;
  }

  friend bool operator<(const Embedding& a, const Embedding& b) {
    if (a.disjunct != b.disjunct) return a.disjunct < b.disjunct;
    if (a.atoms != b.atoms) return a.atoms < b.atoms;
    if (a.vars != b.vars) return a.vars < b.vars;
    return a.slot_consts < b.slot_consts;
  }
  friend bool operator==(const Embedding& a, const Embedding& b) {
    return !(a < b) && !(b < a);
  }
};

/// Equalities/constants an expansion forces on its own interface.
struct Profile {
  /// slot -> class representative (smallest slot of the class).
  std::vector<int> cls;
  /// class representative -> forced constant.
  std::map<int, Value> cls_const;

  friend bool operator<(const Profile& a, const Profile& b) {
    if (a.cls != b.cls) return a.cls < b.cls;
    return a.cls_const < b.cls_const;
  }
  friend bool operator==(const Profile& a, const Profile& b) {
    return a.cls == b.cls && a.cls_const == b.cls_const;
  }
};

struct TypeEntry {
  Profile profile;
  std::set<Embedding> embeddings;

  friend bool operator<(const TypeEntry& a, const TypeEntry& b) {
    if (!(a.profile == b.profile)) return a.profile < b.profile;
    return a.embeddings < b.embeddings;
  }
};

/// Union-find over rule terms (variables and constants).
class TermUf {
 public:
  int NodeOfVar(const std::string& v) {
    auto [it, inserted] = var_ids_.emplace(v, next_id_);
    if (inserted) {
      ++next_id_;
      parent_.push_back(it->second);
      const_of_.emplace_back();
      is_local_.push_back(false);
    }
    return it->second;
  }

  int NodeOfConst(const Value& c) {
    auto [it, inserted] = const_ids_.emplace(c, next_id_);
    if (inserted) {
      ++next_id_;
      parent_.push_back(it->second);
      const_of_.emplace_back(c);
      is_local_.push_back(false);
    }
    return it->second;
  }

  int NodeOfTerm(const logic::Term& t) {
    return t.is_var() ? NodeOfVar(t.var_name()) : NodeOfConst(t.value());
  }

  int Find(int x) {
    while (parent_[static_cast<size_t>(x)] != x) {
      parent_[static_cast<size_t>(x)] =
          parent_[static_cast<size_t>(parent_[static_cast<size_t>(x)])];
      x = parent_[static_cast<size_t>(x)];
    }
    return x;
  }

  /// Returns false on constant clash.
  bool Union(int a, int b) {
    a = Find(a);
    b = Find(b);
    if (a == b) return true;
    // Merge b into a.
    if (const_of_[static_cast<size_t>(b)].has_value()) {
      if (const_of_[static_cast<size_t>(a)].has_value()) {
        if (!(*const_of_[static_cast<size_t>(a)] ==
              *const_of_[static_cast<size_t>(b)])) {
          return false;
        }
      } else {
        const_of_[static_cast<size_t>(a)] = const_of_[static_cast<size_t>(b)];
      }
    }
    parent_[static_cast<size_t>(b)] = a;
    return true;
  }

  const std::optional<Value>& ConstOf(int x) {
    return const_of_[static_cast<size_t>(Find(x))];
  }

 private:
  std::map<std::string, int> var_ids_;
  std::map<Value, int> const_ids_;
  int next_id_ = 0;
  std::vector<int> parent_;
  std::vector<std::optional<Value>> const_of_;
  std::vector<bool> is_local_;
};

/// The fixpoint engine.
class TypeFixpoint {
 public:
  TypeFixpoint(const Program& program, const DlUcq& query,
               const ContainmentOptions& options, ContainmentStats* stats)
      : program_(program), query_(query), options_(options), stats_(stats) {}

  Result<bool> Run() {
    // Index variables per disjunct atom for the "internal vars stay
    // inside" check.
    for (const DlCq& q : query_) {
      if (q.atoms.empty()) return true;  // TRUE disjunct: always contained
    }

    bool changed = true;
    while (changed) {
      changed = false;
      if (stats_ != nullptr) ++stats_->iterations;
      for (const DlRule& rule : program_.rules()) {
        Result<bool> r = ProcessRule(rule, &changed);
        if (!r.ok()) return r.status();
      }
    }
    // Contained iff no counterexample type survives for the goal.
    auto it = types_.find(program_.goal());
    return it == types_.end() || it->second.empty();
  }

 private:
  /// Enumerates all ways to compose `rule` from current child types and
  /// inserts the results.
  Result<bool> ProcessRule(const DlRule& rule, bool* changed) {
    // Split the body.
    std::vector<const DlAtom*> idb_atoms, edb_atoms;
    for (const DlAtom& a : rule.body) {
      (program_.IsIdb(a.pred) ? idb_atoms : edb_atoms).push_back(&a);
    }
    // Pick one TypeEntry per IDB atom.
    std::vector<const std::vector<TypeEntry>*> pools;
    pools.reserve(idb_atoms.size());
    for (const DlAtom* a : idb_atoms) {
      auto it = types_.find(a->pred);
      if (it == types_.end() || it->second.empty()) return false;  // no-op
      pools.push_back(&it->second);
    }
    std::vector<size_t> choice(idb_atoms.size(), 0);
    while (true) {
      if (stats_ != nullptr &&
          ++stats_->compositions > options_.max_compositions) {
        return Status::ResourceExhausted(
            "containment: composition budget exhausted");
      }
      std::vector<const TypeEntry*> chosen;
      chosen.reserve(choice.size());
      for (size_t i = 0; i < choice.size(); ++i) {
        chosen.push_back(&(*pools[i])[choice[i]]);
      }
      ACCLTL_RETURN_IF_ERROR(
          Compose(rule, idb_atoms, edb_atoms, chosen, changed));
      // Advance the product iterator.
      size_t k = 0;
      for (; k < choice.size(); ++k) {
        if (++choice[k] < pools[k]->size()) break;
        choice[k] = 0;
      }
      if (k == choice.size()) break;
      if (choice.empty()) break;
    }
    if (choice.empty()) {
      // No IDB atoms: single composition already done above via the
      // empty-product iteration (the loop body ran once).
    }
    return false;
  }

  Status Compose(const DlRule& rule, const std::vector<const DlAtom*>& idb,
                 const std::vector<const DlAtom*>& edb,
                 const std::vector<const TypeEntry*>& chosen, bool* changed) {
    // --- Structural value classes -------------------------------------
    TermUf uf;
    // Make sure every rule term has a node.
    for (const logic::Term& t : rule.head.terms) uf.NodeOfTerm(t);
    for (const DlAtom& a : rule.body) {
      for (const logic::Term& t : a.terms) uf.NodeOfTerm(t);
    }
    // Child profiles constrain this node's terms.
    for (size_t i = 0; i < idb.size(); ++i) {
      const Profile& prof = chosen[i]->profile;
      const std::vector<logic::Term>& args = idb[i]->terms;
      for (size_t s = 0; s < args.size(); ++s) {
        int rep = prof.cls[s];
        if (rep != static_cast<int>(s)) {
          if (!uf.Union(uf.NodeOfTerm(args[s]),
                        uf.NodeOfTerm(args[static_cast<size_t>(rep)]))) {
            return Status::OK();  // constant clash: combo unrealizable
          }
        }
      }
      for (const auto& [rep, c] : prof.cls_const) {
        if (!uf.Union(uf.NodeOfTerm(args[static_cast<size_t>(rep)]),
                      uf.NodeOfConst(c))) {
          return Status::OK();
        }
      }
    }

    // --- Head profile ---------------------------------------------------
    Profile profile;
    int head_arity = static_cast<int>(rule.head.terms.size());
    profile.cls.resize(static_cast<size_t>(head_arity));
    std::map<int, int> class_to_first_slot;  // uf class -> first slot
    for (int j = 0; j < head_arity; ++j) {
      int cls = uf.Find(uf.NodeOfTerm(rule.head.terms[static_cast<size_t>(j)]));
      auto [it, inserted] = class_to_first_slot.emplace(cls, j);
      profile.cls[static_cast<size_t>(j)] = it->second;
      if (inserted) {
        const std::optional<Value>& c = uf.ConstOf(cls);
        if (c.has_value()) profile.cls_const[j] = *c;
      }
    }
    // Exposure map: uf class -> profile representative slot (if exposed).
    const std::map<int, int>& exposure = class_to_first_slot;

    // --- Embeddings ------------------------------------------------------
    TypeEntry entry;
    entry.profile = profile;
    bool discard_entry = false;  // set when an unconditional full is found

    for (int d = 0; d < static_cast<int>(query_.size()) && !discard_entry;
         ++d) {
      ComposeDisjunct(rule, idb, edb, chosen, &uf, exposure, profile, d,
                      &entry, &discard_entry);
    }
    if (discard_entry) return Status::OK();

    InsertEntry(rule.head.pred, std::move(entry), changed);
    return Status::OK();
  }

  /// Enumerates composed embeddings for disjunct `d` and adds them to
  /// `entry`. Sets `*discard` when an unconditional full embedding
  /// arises (the expansion then always satisfies the query).
  void ComposeDisjunct(const DlRule& rule,
                       const std::vector<const DlAtom*>& idb,
                       const std::vector<const DlAtom*>& edb,
                       const std::vector<const TypeEntry*>& chosen,
                       TermUf* uf, const std::map<int, int>& exposure,
                       const Profile& profile, int d, TypeEntry* entry,
                       bool* discard) {
    // Candidate embeddings per child for this disjunct (+ the empty one).
    std::vector<std::vector<const Embedding*>> child_cands(idb.size());
    for (size_t i = 0; i < idb.size(); ++i) {
      child_cands[i].push_back(nullptr);  // nullptr = empty embedding
      for (const Embedding& e : chosen[i]->embeddings) {
        if (e.disjunct == d) child_cands[i].push_back(&e);
      }
    }

    std::vector<size_t> pick(idb.size(), 0);
    while (true) {
      TryChildCombo(rule, idb, edb, chosen, uf, exposure, profile, d,
                    child_cands, pick, entry, discard);
      if (*discard) return;
      size_t k = 0;
      for (; k < pick.size(); ++k) {
        if (++pick[k] < child_cands[k].size()) break;
        pick[k] = 0;
      }
      if (k == pick.size()) break;
      if (pick.empty()) break;
    }
  }

  /// Requirements collected while composing one embedding.
  struct Requirements {
    /// Per query variable: structural classes it must equal.
    std::map<std::string, std::set<int>> var_classes;
    /// Per query variable: constants it must equal.
    std::map<std::string, Value> var_consts;
    /// Query variables pinned internal (by child index).
    std::map<std::string, size_t> var_internal;
    /// Structural classes required to carry constants.
    std::map<int, Value> class_consts;
    bool failed = false;
  };

  void RequireVarClass(Requirements* req, const std::string& v, int cls) {
    req->var_classes[v].insert(cls);
  }
  void RequireVarConst(Requirements* req, const std::string& v,
                       const Value& c) {
    auto [it, inserted] = req->var_consts.emplace(v, c);
    if (!inserted && !(it->second == c)) req->failed = true;
  }
  void RequireClassConst(Requirements* req, int cls, const Value& c,
                         TermUf* uf) {
    const std::optional<Value>& structural = uf->ConstOf(cls);
    if (structural.has_value()) {
      if (!(*structural == c)) req->failed = true;
      return;  // already satisfied structurally
    }
    auto [it, inserted] = req->class_consts.emplace(cls, c);
    if (!inserted && !(it->second == c)) req->failed = true;
  }

  void TryChildCombo(const DlRule& rule, const std::vector<const DlAtom*>& idb,
                     const std::vector<const DlAtom*>& edb,
                     const std::vector<const TypeEntry*>& chosen, TermUf* uf,
                     const std::map<int, int>& exposure,
                     const Profile& profile, int d,
                     const std::vector<std::vector<const Embedding*>>& cands,
                     const std::vector<size_t>& pick, TypeEntry* entry,
                     bool* discard) {
    (void)chosen;
    const DlCq& q = query_[static_cast<size_t>(d)];
    std::set<int> covered;
    Requirements req;
    // 1. Child embeddings.
    for (size_t i = 0; i < idb.size() && !req.failed; ++i) {
      const Embedding* e = cands[i][pick[i]];
      if (e == nullptr) continue;
      // Atom sets must be disjoint.
      for (int a : e->atoms) {
        if (!covered.insert(a).second) {
          req.failed = true;
          break;
        }
      }
      if (req.failed) break;
      const std::vector<logic::Term>& args = idb[i]->terms;
      for (const auto& [v, spec] : e->vars) {
        if (spec.internal) {
          auto [it, inserted] = req.var_internal.emplace(v, i);
          if (!inserted) req.failed = true;
          continue;
        }
        for (int s : spec.slots) {
          RequireVarClass(&req, v,
                          uf->Find(uf->NodeOfTerm(args[static_cast<size_t>(
                              s)])));
        }
        if (spec.constant.has_value()) {
          RequireVarConst(&req, v, *spec.constant);
        }
      }
      for (const auto& [s, c] : e->slot_consts) {
        RequireClassConst(
            &req, uf->Find(uf->NodeOfTerm(args[static_cast<size_t>(s)])), c,
            uf);
      }
    }
    if (req.failed) return;

    // 2. Local EDB part: each uncovered atom may map to a local atom.
    // Backtracking enumeration; each full assignment yields a candidate.
    std::vector<int> uncovered;
    for (int a = 0; a < static_cast<int>(q.atoms.size()); ++a) {
      if (covered.count(a) == 0) uncovered.push_back(a);
    }

    std::function<void(size_t, std::set<int>*, Requirements*)> rec =
        [&](size_t idx, std::set<int>* local_atoms, Requirements* current) {
          if (*discard) return;
          if (current->failed) return;
          if (idx == uncovered.size()) {
            FinishEmbedding(rule, uf, exposure, profile, d, covered,
                            *local_atoms, *current, entry, discard);
            return;
          }
          int qa = uncovered[idx];
          // Option A: leave the atom unmapped.
          rec(idx + 1, local_atoms, current);
          if (*discard) return;
          // Option B: map it onto one of the rule's local EDB atoms.
          const DlAtom& qatom = q.atoms[static_cast<size_t>(qa)];
          for (const DlAtom* latom : edb) {
            if (latom->pred != qatom.pred ||
                latom->terms.size() != qatom.terms.size()) {
              continue;
            }
            Requirements next = *current;
            for (size_t pos = 0; pos < qatom.terms.size() && !next.failed;
                 ++pos) {
              const logic::Term& qt = qatom.terms[pos];
              const logic::Term& lt = latom->terms[pos];
              int cls = uf->Find(uf->NodeOfTerm(lt));
              if (qt.is_var()) {
                RequireVarClass(&next, qt.var_name(), cls);
              } else {
                RequireClassConst(&next, cls, qt.value(), uf);
              }
            }
            if (next.failed) continue;
            local_atoms->insert(qa);
            rec(idx + 1, local_atoms, &next);
            local_atoms->erase(qa);
            if (*discard) return;
          }
        };
    std::set<int> local_atoms;
    rec(0, &local_atoms, &req);
  }

  /// Resolves requirements into a parent-level embedding.
  void FinishEmbedding(const DlRule& rule, TermUf* uf,
                       const std::map<int, int>& exposure,
                       const Profile& profile, int d,
                       const std::set<int>& child_atoms,
                       const std::set<int>& local_atoms,
                       const Requirements& req, TypeEntry* entry,
                       bool* discard) {
    (void)rule;
    (void)profile;
    const DlCq& q = query_[static_cast<size_t>(d)];
    Embedding out;
    out.disjunct = d;
    out.atoms = child_atoms;
    out.atoms.insert(local_atoms.begin(), local_atoms.end());

    // Internal variables must not occur outside the embedding.
    for (const auto& [v, child] : req.var_internal) {
      (void)child;
      if (req.var_classes.count(v) > 0 || req.var_consts.count(v) > 0) {
        return;  // internal value can't equal anything else
      }
      for (int a = 0; a < static_cast<int>(q.atoms.size()); ++a) {
        if (out.atoms.count(a) > 0) continue;
        for (const logic::Term& t : q.atoms[static_cast<size_t>(a)].terms) {
          if (t.is_var() && t.var_name() == v) return;
        }
      }
      ImageSpec spec;
      spec.internal = true;
      out.vars[v] = spec;
    }

    // Per-variable class/constant resolution.
    std::set<std::string> vars_seen;
    for (const auto& [v, classes] : req.var_classes) vars_seen.insert(v);
    for (const auto& [v, c] : req.var_consts) vars_seen.insert(v);
    for (const std::string& v : vars_seen) {
      std::optional<Value> c;
      auto cit = req.var_consts.find(v);
      if (cit != req.var_consts.end()) c = cit->second;
      ImageSpec spec;
      auto vit = req.var_classes.find(v);
      if (vit != req.var_classes.end()) {
        for (int cls : vit->second) {
          const std::optional<Value>& structural = uf->ConstOf(cls);
          if (structural.has_value()) {
            if (c.has_value()) {
              if (!(*structural == *c)) return;  // clash
            } else {
              c = structural;
            }
            continue;  // class value known: no interface dependence
          }
          auto eit = exposure.find(cls);
          if (eit == exposure.end()) {
            // Hidden fresh class: its value can equal nothing else.
            if (c.has_value() || vit->second.size() >= 2) return;
            spec.internal = true;
            // Must not occur outside the embedding (same check as above).
            for (int a = 0; a < static_cast<int>(q.atoms.size()); ++a) {
              if (out.atoms.count(a) > 0) continue;
              for (const logic::Term& t :
                   q.atoms[static_cast<size_t>(a)].terms) {
                if (t.is_var() && t.var_name() == v) return;
              }
            }
            break;
          }
          spec.slots.insert(eit->second);
        }
      }
      if (!spec.internal) {
        spec.constant = c;
        if (spec.slots.empty() && !c.has_value()) {
          // Unreachable: a variable in vars_seen has a class or constant
          // requirement, and classes without constants were either
          // exposed (slots) or hidden (internal/early return).
          return;
        }
      }
      out.vars[v] = spec;
    }

    // Residual class-constant requirements become slot constraints.
    for (const auto& [cls, c] : req.class_consts) {
      const std::optional<Value>& structural = uf->ConstOf(cls);
      if (structural.has_value()) {
        if (!(*structural == c)) return;
        continue;
      }
      auto eit = exposure.find(cls);
      if (eit == exposure.end()) return;  // hidden fresh value != constant
      auto [it, inserted] = out.slot_consts.emplace(eit->second, c);
      if (!inserted && !(it->second == c)) return;
    }

    if (static_cast<int>(out.atoms.size()) ==
            static_cast<int>(q.atoms.size()) &&
        out.Unconditional()) {
      *discard = true;
      return;
    }
    entry->embeddings.insert(std::move(out));
  }

  /// Antichain insertion: keep only ⊆-minimal embedding sets per profile.
  void InsertEntry(const std::string& pred, TypeEntry entry, bool* changed) {
    std::vector<TypeEntry>& pool = types_[pred];
    for (const TypeEntry& existing : pool) {
      if (existing.profile == entry.profile &&
          std::includes(entry.embeddings.begin(), entry.embeddings.end(),
                        existing.embeddings.begin(),
                        existing.embeddings.end())) {
        return;  // dominated by an existing smaller entry
      }
    }
    pool.erase(std::remove_if(pool.begin(), pool.end(),
                              [&](const TypeEntry& existing) {
                                return existing.profile == entry.profile &&
                                       std::includes(
                                           existing.embeddings.begin(),
                                           existing.embeddings.end(),
                                           entry.embeddings.begin(),
                                           entry.embeddings.end());
                              }),
               pool.end());
    pool.push_back(std::move(entry));
    if (stats_ != nullptr) ++stats_->type_entries;
    *changed = true;
  }

  const Program& program_;
  const DlUcq& query_;
  const ContainmentOptions& options_;
  ContainmentStats* stats_;
  std::map<std::string, std::vector<TypeEntry>> types_;
};

}  // namespace

Result<bool> ContainedInPositive(const Program& p, const DlUcq& query,
                                 const ContainmentOptions& options,
                                 ContainmentStats* stats) {
  ACCLTL_RETURN_IF_ERROR(p.Validate());
  // Wrap the goal so the top-level interface is 0-ary: every residual
  // interface requirement must then have been resolved inside.
  Program wrapped = p;
  const std::string kGoal0 = "$goal0";
  {
    // Find the goal arity from some rule; a goal with no rules is the
    // empty program (trivially contained).
    std::vector<const DlRule*> goal_rules = p.RulesFor(p.goal());
    if (goal_rules.empty()) return true;
    DlRule wrapper;
    wrapper.head = DlAtom{kGoal0, {}};
    DlAtom body_atom;
    body_atom.pred = p.goal();
    size_t arity = goal_rules[0]->head.terms.size();
    for (size_t i = 0; i < arity; ++i) {
      body_atom.terms.push_back(logic::Term::Var("g$" + std::to_string(i)));
    }
    wrapper.body.push_back(std::move(body_atom));
    wrapped.AddRule(std::move(wrapper));
    wrapped.SetGoal(kGoal0);
  }
  // An empty union (FALSE) is only contained if the program accepts
  // nothing; handled naturally by the fixpoint (any surviving goal type
  // is a counterexample).
  TypeFixpoint fix(wrapped, query, options, stats);
  return fix.Run();
}

}  // namespace datalog
}  // namespace accltl
