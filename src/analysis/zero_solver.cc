#include "src/analysis/zero_solver.h"

#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "src/accltl/abstraction.h"
#include "src/accltl/semantics.h"
#include "src/engine/explorer.h"
#include "src/engine/path_link.h"
#include "src/engine/two_phase.h"
#include "src/engine/visited_store.h"
#include "src/logic/cq.h"
#include "src/logic/eval.h"
#include "src/ltl/tableau.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/store/fact_store.h"

namespace accltl {
namespace analysis {

namespace {
/// Zero-solver instruments (write-only; DESIGN.md §8).
struct ZeroMetrics {
  obs::Counter* expansions;
  obs::Counter* candidates;  // accesses the atoms were evaluated on
  obs::Counter* children;
  obs::Counter* plan_builds;
  static const ZeroMetrics& Get() {
    static const ZeroMetrics m{
        obs::Registry::Get().counter("analysis.zero.expansions"),
        obs::Registry::Get().counter("analysis.zero.candidates"),
        obs::Registry::Get().counter("analysis.zero.children"),
        obs::Registry::Get().counter("analysis.zero.plan_builds"),
    };
    return m;
  }
};
}  // namespace

/// One pool fact: a concrete tuple for a relation, plus (when the
/// witness disjunct constrains the access) the method/binding that must
/// reveal it. External linkage (it is a member of ZeroPlan, which the
/// header exposes by forward declaration), defined only in this TU.
struct ZeroPoolFact {
  schema::RelationId relation = 0;
  /// Method forced by a constant-only IsBind atom of the disjunct
  /// (-1: any method on the relation).
  int forced_method = -1;
  /// The tuple: ZeroPlan::pool_values[values_begin, +arity).
  uint32_t values_begin = 0;
  uint32_t arity = 0;
};

/// The prepared, options-independent state (see zero_solver.h). The
/// header only forward-declares the class; callers hold it through
/// shared_ptr<const ZeroPlan> and never see the members.
class ZeroPlan {
 public:
  /// One tableau edge; its literals are lits[lits_begin, +num_pos)
  /// (must hold) then [.., +num_neg) (must not hold).
  struct Edge {
    int to = 0;
    bool may_end = false;
    uint32_t lits_begin = 0;
    uint32_t num_pos = 0;
    uint32_t num_neg = 0;
  };

  /// The abstraction's atoms (proposition id i ↔ atoms[i]).
  std::vector<logic::PosFormulaPtr> atoms;
  /// The canonical-witness pool. Its values are interned at plan time
  /// (a few shared fresh values and the formula's constants); its facts
  /// are interned only when a search first uses them (PoolId).
  std::vector<ZeroPoolFact> pool;
  std::vector<store::ValueId> pool_values;

  /// Value `pos` of pool fact `i`.
  const Value& PoolValue(size_t i, size_t pos) const {
    return store::Store::Get().value(pool_values[pool[i].values_begin + pos]);
  }
  Tuple PoolTuple(size_t i) const {
    Tuple t;
    t.reserve(pool[i].arity);
    for (size_t pos = 0; pos < pool[i].arity; ++pos) {
      t.push_back(PoolValue(i, pos));
    }
    return t;
  }
  /// The skeleton's tableau, flattened: the edges leaving state s are
  /// edges[state_edges[s], state_edges[s + 1]).
  int initial_state = 0;
  std::vector<uint32_t> state_edges;
  std::vector<Edge> edges;
  std::vector<int> lits;
  /// True when the fusion-quotient enumeration (see BuildPool) was cut
  /// by a cap: the pool may be missing fused witnesses, so an
  /// unsatisfiable sweep must report exhausted_budget (kUnknown), never
  /// a definitive "no".
  bool pool_fusion_truncated = false;

  /// The search-side form of the fields above. A prepared query owns
  /// its compiled state: the first search builds it (Searchable) and
  /// every later search of the plan's life reuses it.
  struct Compiled {
    /// The atoms, compiled into one program (sentence i is atoms[i]).
    logic::CompiledFormula atoms;
    /// The candidate layout: per method, the pool facts it may reveal,
    /// grouped by binding (their input-position projection), each group
    /// a mask over pool indices. Method m's groups are
    /// groups[method_groups[m], method_groups[m + 1]), in binding value
    /// order.
    std::vector<uint32_t> method_groups;
    std::vector<uint64_t> groups;
    /// Pool fact i's rank in tuple order: sorting a response's facts
    /// by rank sorts them by tuple.
    std::vector<uint8_t> tuple_rank;
    /// Pool fact i's interned id (kNoFactId until a search first uses
    /// it). Racing searches intern the same tuple to the same id.
    std::unique_ptr<std::atomic<store::FactId>[]> pool_ids;
  };

  /// The compiled state, built on the first call. `schema` must be the
  /// one the plan was prepared against (the layout reads its methods).
  const Compiled& Searchable(const schema::Schema& schema) const {
    std::call_once(compile_once_, [&] { Compile(schema); });
    return compiled_;
  }

  /// The interned id of pool fact `i` (Searchable must have run).
  store::FactId PoolId(size_t i) const {
    std::atomic<store::FactId>& slot = compiled_.pool_ids[i];
    store::FactId id = slot.load(std::memory_order_acquire);
    if (id == store::kNoFactId) {
      id = store::Store::Get().InternTuple(PoolTuple(i));
      slot.store(id, std::memory_order_release);
    }
    return id;
  }

 private:
  void Compile(const schema::Schema& schema) const;

  mutable std::once_flag compile_once_;
  mutable Compiled compiled_;
};

void ZeroPlan::Compile(const schema::Schema& schema) const {
  Compiled& c = compiled_;
  c.atoms = logic::CompiledFormula::Sentences(atoms);
  c.method_groups.push_back(0);
  for (schema::AccessMethodId m = 0; m < schema.num_access_methods(); ++m) {
    const schema::AccessMethod& am = schema.method(m);
    // std::map keys give the deterministic, value-sorted group order.
    std::map<Tuple, uint64_t> by_binding;
    for (size_t i = 0; i < pool.size(); ++i) {
      if (pool[i].relation != am.relation) continue;
      if (pool[i].forced_method >= 0 &&
          pool[i].forced_method != static_cast<int>(m)) {
        continue;
      }
      Tuple b;
      for (schema::Position p : am.input_positions) {
        b.push_back(PoolValue(i, static_cast<size_t>(p)));
      }
      by_binding[std::move(b)] |= uint64_t{1} << i;
    }
    for (const auto& [binding, group] : by_binding) c.groups.push_back(group);
    c.method_groups.push_back(static_cast<uint32_t>(c.groups.size()));
  }
  std::vector<uint8_t> by_tuple(pool.size());
  for (size_t i = 0; i < pool.size(); ++i) {
    by_tuple[i] = static_cast<uint8_t>(i);
  }
  std::stable_sort(by_tuple.begin(), by_tuple.end(),
                   [&](uint8_t a, uint8_t b) {
                     return PoolTuple(a) < PoolTuple(b);
                   });
  c.tuple_rank.resize(pool.size());
  for (size_t r = 0; r < by_tuple.size(); ++r) {
    c.tuple_rank[by_tuple[r]] = static_cast<uint8_t>(r);
  }
  c.pool_ids = std::make_unique<std::atomic<store::FactId>[]>(pool.size());
  for (size_t i = 0; i < pool.size(); ++i) {
    c.pool_ids[i].store(store::kNoFactId, std::memory_order_relaxed);
  }
}

namespace {

using logic::PredSpace;
using schema::AccessMethodId;
using schema::RelationId;

using PathLink = engine::PathLink<schema::AccessStep>;
using engine::CmpPathKeys;

/// A pool fact while the pool is built (ZeroPoolFact is its compact,
/// plan-resident form).
struct PoolFact {
  RelationId relation = 0;
  Tuple tuple;
  int forced_method = -1;
};

/// One frontier node of the engine-based search. The node's
/// configuration is a pure function of `facts` (the empty initial
/// instance plus the injected pool facts), so the (facts, tableau)
/// pair is the full search state of the original recursive solver.
struct ZeroNode {
  /// Bitmask over pool facts injected so far.
  uint64_t facts = 0;
  /// Active tableau states (sorted, duplicate-free NFA subset).
  std::vector<int> tableau;
  schema::Instance config;
  uint32_t depth = 0;
  /// True when the incoming edge had `may_end`: the path ending here
  /// is accepting (finite-word tableau acceptance is edge-local).
  bool accepting = false;
  std::shared_ptr<const PathLink> path;
  /// Root-to-node materialization of `path` (pointers into the chain,
  /// kept alive by it).
  std::vector<const PathLink*> links;
  /// Compact mode only: tree-compressed identity
  /// pair(pair(facts_lo, facts_hi), set(tableau)).
  store::TreeRef ref = store::kNilTreeRef;
};

/// Rejects formulas outside the (constant-extended) 0-ary fragment.
Status CheckZeroAry(const logic::PosFormulaPtr& f) {
  switch (f->kind()) {
    case logic::NodeKind::kAtom:
      if (f->pred().space == PredSpace::kBind) {
        for (const logic::Term& t : f->terms()) {
          if (t.is_var()) {
            return Status::Unsupported(
                "IsBind atom with variable terms: formula is outside "
                "AccLTL(FO^E+_0-Acc); use the AccLTL+ automata engine");
          }
        }
      }
      if (f->pred().space == PredSpace::kPlain) {
        return Status::InvalidArgument(
            "plain-schema atom in a transition formula (use _pre/_post)");
      }
      return Status::OK();
    case logic::NodeKind::kAnd:
    case logic::NodeKind::kOr: {
      for (const logic::PosFormulaPtr& c : f->children()) {
        ACCLTL_RETURN_IF_ERROR(CheckZeroAry(c));
      }
      return Status::OK();
    }
    case logic::NodeKind::kExists:
      return CheckZeroAry(f->body());
    default:
      return Status::OK();
  }
}

/// Freezes one (possibly quotiented) disjunct into the pool.
Status FreezeDisjunctIntoPool(const logic::Cq& d,
                              const schema::Schema& schema,
                              logic::FreshValueFactory* factory,
                              std::vector<PoolFact>* pool) {
  // Method forced by constant-only bind atoms (at most one per
  // disjunct is satisfiable on a transition, but facts of the
  // disjunct may span several transitions; the forced method
  // applies to facts of that method's relation).
  std::map<RelationId, int> forced;
  for (const logic::CqAtom& a : d.atoms) {
    if (a.pred.space == PredSpace::kBind) {
      forced[schema.method(a.pred.id).relation] = a.pred.id;
    }
  }
  Result<logic::FrozenCq> frozen = logic::FreezeCq(d, schema, factory);
  if (!frozen.ok()) return frozen.status();
  for (const auto& [pred, tuples] : frozen.value().db.relations()) {
    if (pred.space == PredSpace::kBind) continue;
    for (const Tuple& t : tuples) {
      PoolFact f;
      f.relation = pred.id;
      f.tuple = t;
      auto it = forced.find(pred.id);
      f.forced_method = it == forced.end() ? -1 : it->second;
      // Dedupe identical facts.
      bool dup = false;
      for (const PoolFact& existing : *pool) {
        if (existing.relation == f.relation && existing.tuple == f.tuple) {
          dup = true;
          break;
        }
      }
      if (!dup) pool->push_back(std::move(f));
    }
  }
  return Status::OK();
}

/// Fusion quotients of a disjunct: every substitution mapping each
/// variable to an earlier same-type representative variable, a
/// same-type constant of the disjunct, or itself (restricted-growth
/// enumeration of typed set partitions, extended by constants). The
/// identity substitution is enumerated first.
///
/// Why quotients at all: the canonical database freezes every variable
/// to a DISTINCT fresh value, but a real witness may be a homomorphic
/// image that fuses values — and the fused variant can be realizable
/// where the all-fresh one is not. Concretely, an all-input access
/// method returns at most the binding tuple itself, so a first-step
/// sentence with two same-relation post atoms is satisfiable only via
/// the quotient that unifies them; the all-fresh pool made the solver
/// report a *definitive* "no" for that satisfiable formula (found by
/// differential fuzzing against the oracle and the Datalog certifier;
/// see tests/corpus/zero_fusion_single_response.repro).
///
/// `max_variants` caps the enumeration; `*truncated` is set when the
/// cap cuts it (the caller then degrades unsatisfiable sweeps to
/// kUnknown — incompleteness must never be silent).
std::vector<logic::Cq> FusionQuotients(
    const logic::Cq& d, const std::map<std::string, ValueType>& var_types,
    size_t max_variants, bool* truncated) {
  // Deterministic variable order: sorted names.
  std::vector<std::string> vars;
  for (const auto& [v, t] : var_types) {
    (void)t;
    vars.push_back(v);
  }
  std::sort(vars.begin(), vars.end());
  // Same-type constants of the disjunct (targets for variable fusion).
  std::vector<Value> consts;
  for (const logic::CqAtom& a : d.atoms) {
    for (const logic::Term& t : a.terms) {
      if (!t.is_const()) continue;
      if (std::find(consts.begin(), consts.end(), t.value()) == consts.end()) {
        consts.push_back(t.value());
      }
    }
  }

  std::vector<logic::Cq> out;
  // subst[i]: -1 self (class representative), j >= 0 fuse onto
  // vars[j], or -(k + 2) fuse onto consts[k] (NOT ~k: ~0 == -1 would
  // collide with the self sentinel and silently skip the first
  // constant).
  std::vector<int> subst(vars.size(), -1);
  std::function<void(size_t)> rec = [&](size_t i) {
    if (*truncated) return;
    if (i == vars.size()) {
      if (out.size() >= max_variants) {
        *truncated = true;
        return;
      }
      logic::Cq q = d;
      auto apply = [&](logic::Term& term) {
        if (!term.is_var()) return;
        auto it = std::lower_bound(vars.begin(), vars.end(),
                                   term.var_name());
        if (it == vars.end() || *it != term.var_name()) return;
        int choice = subst[static_cast<size_t>(it - vars.begin())];
        if (choice == -1) return;
        term = choice >= 0
                   ? logic::Term::Var(vars[static_cast<size_t>(choice)])
                   : logic::Term::Const(
                         consts[static_cast<size_t>(-choice - 2)]);
      };
      for (logic::CqAtom& a : q.atoms) {
        for (logic::Term& term : a.terms) apply(term);
      }
      for (auto& [l, r] : q.neqs) {
        apply(l);
        apply(r);
      }
      out.push_back(std::move(q));
      return;
    }
    ValueType my_type = var_types.at(vars[i]);
    // Self first: the identity substitution leads the enumeration, so
    // the historical all-fresh pool facts always survive a cap.
    subst[i] = -1;
    rec(i + 1);
    for (size_t j = 0; j < i && !*truncated; ++j) {
      if (subst[j] != -1) continue;  // fuse onto representatives only
      if (var_types.at(vars[j]) != my_type) continue;
      subst[i] = static_cast<int>(j);
      rec(i + 1);
    }
    for (size_t k = 0; k < consts.size() && !*truncated; ++k) {
      if (consts[k].type() != my_type) continue;
      subst[i] = -static_cast<int>(k) - 2;
      rec(i + 1);
    }
    subst[i] = -1;
  };
  rec(0);
  return out;
}

/// Freezes every UCQ disjunct of every atom into pool facts: first the
/// all-fresh canonical databases (the historical pool), then their
/// fusion quotients until the caps bite. Pool facts beyond 63 cannot
/// be represented in the search's fact bitmask, so quotients stop
/// there (flagged), while a base pool beyond 63 is still a hard error.
Status BuildPool(const acc::Abstraction& abstraction,
                 const schema::Schema& schema,
                 std::vector<PoolFact>* pool, bool* fusion_truncated) {
  constexpr size_t kMaxQuotientsPerDisjunct = 64;
  constexpr size_t kMaxPoolFacts = 63;
  logic::FreshValueFactory factory;
  std::vector<std::pair<logic::Cq, std::map<std::string, ValueType>>>
      disjuncts;
  for (const logic::PosFormulaPtr& atom : abstraction.atoms) {
    Result<logic::Ucq> ucq = logic::NormalizeToUcq(atom, {}, schema);
    if (!ucq.ok()) return ucq.status();
    for (const logic::Cq& d : ucq.value().disjuncts) {
      Result<std::map<std::string, ValueType>> types =
          logic::InferVarTypes(d, schema);
      if (!types.ok()) return types.status();
      disjuncts.emplace_back(d, types.value());
      ACCLTL_RETURN_IF_ERROR(
          FreezeDisjunctIntoPool(d, schema, &factory, pool));
    }
  }
  for (const auto& [d, types] : disjuncts) {
    bool variant_cap = false;
    std::vector<logic::Cq> quotients =
        FusionQuotients(d, types, kMaxQuotientsPerDisjunct, &variant_cap);
    if (variant_cap) *fusion_truncated = true;
    for (size_t qi = 1; qi < quotients.size(); ++qi) {  // 0 = identity
      size_t before = pool->size();
      ACCLTL_RETURN_IF_ERROR(
          FreezeDisjunctIntoPool(quotients[qi], schema, &factory, pool));
      if (pool->size() > kMaxPoolFacts) {
        // A variant that does not fit whole is rolled back — the fact
        // bitmask is 64 bits wide and partial variants are useless.
        pool->resize(before);
        *fusion_truncated = true;
        return Status::OK();
      }
    }
  }
  return Status::OK();
}

/// The per-run search state over a shared, immutable plan.
class ZeroSolver {
 public:
  ZeroSolver(const ZeroPlan& plan, const schema::Schema& schema,
             const ZeroSolverOptions& options,
             const engine::ExecOptions& exec)
      : plan_(plan),
        schema_(schema),
        options_(options),
        exec_(exec),
        compiled_(plan.Searchable(schema)),
        workers_(std::max<size_t>(1, exec.num_threads)),
        visited_(exec, 64) {}

  Result<ZeroSolverResult> Run() {
    // Search on the shared engine: serial pf-DFS at one worker,
    // pilot + level-synchronous sweep otherwise — the same
    // schedule-independent reduction as BoundedWitnessSearch. All
    // formula-dependent setup lives in the plan (PrepareZeroAry).
    return Search();
  }

 private:
  // --- Engine plumbing (mirrors automata::BoundedWitnessSearch) -------------

  static uint64_t NodeHash(uint64_t facts, const std::vector<int>& tableau) {
    uint64_t h = store::Mix64(facts);
    for (int t : tableau) {
      h = store::Mix64(h ^ static_cast<uint64_t>(static_cast<unsigned>(t)));
    }
    return h;
  }

  /// Exact-mode dedup entry (engine::VisitedStore): exact data for
  /// confirmation plus the dominance tie-breakers (depth, path
  /// content).
  struct VisitedEntry {
    explicit VisitedEntry(const ZeroNode& node)
        : facts(node.facts),
          tableau(node.tableau),
          depth(node.depth),
          path(node.path),
          links(node.links) {}

    uint64_t Hash() const { return NodeHash(facts, tableau); }

    /// "existing makes candidate redundant": same exact (facts,
    /// tableau) state, no deeper, and no later in path-content order —
    /// the original solver's (state, shallowest-depth) memo, refined by
    /// the content order so same-depth twins keep the pf-smaller path.
    /// Equal states reach the same configurations and letters (the
    /// configuration is a function of `facts`; synthesized placeholder
    /// bindings never affect atom truth), so the dominated subtree can
    /// only rediscover paths the retained one also reaches.
    static bool Dominates(const VisitedEntry& existing,
                          const VisitedEntry& candidate) {
      if (existing.facts != candidate.facts) return false;
      if (existing.depth > candidate.depth) return false;
      if (existing.tableau != candidate.tableau) return false;
      return CmpPathKeys(existing.links, candidate.links) <= 0;
    }

    /// Logical footprint: struct plus the owned vectors' live elements
    /// (sizes, never capacities).
    size_t Bytes() const {
      return sizeof(VisitedEntry) + tableau.size() * sizeof(int) +
             links.size() * sizeof(const PathLink*);
    }

    uint64_t facts;
    std::vector<int> tableau;
    uint32_t depth;
    std::shared_ptr<const PathLink> path;
    std::vector<const PathLink*> links;
  };

  /// Candidate child during expansion, before sorting.
  struct Child {
    uint64_t facts;
    std::vector<int> tableau;
    schema::Instance post;
    schema::AccessStep step;
    std::string key;
    bool accepting;
  };

  /// Tree-compressed identity of a (facts, tableau) state: the 64-bit
  /// fact mask folds into a pair of leaves, the tableau subset into a
  /// canonical set trie — ref equality ⇔ equal state (treedb.h).
  static store::TreeRef NodeRef(store::TreeDb* treedb, uint64_t facts,
                                const std::vector<int>& tableau) {
    store::TreeRef tab = store::kNilTreeRef;
    for (int t : tableau) {
      tab = treedb->InsertSet(tab, static_cast<uint32_t>(t));
    }
    store::TreeRef facts_ref = treedb->InternPair(
        treedb->InternLeaf(static_cast<uint32_t>(facts & 0xffffffffu)),
        treedb->InternLeaf(static_cast<uint32_t>(facts >> 32)));
    return treedb->InternPair(facts_ref, tab);
  }

  std::vector<std::unique_ptr<ZeroNode>> MakeRoots() {
    auto root = std::make_unique<ZeroNode>();
    root->facts = 0;
    root->tableau = {plan_.initial_state};
    root->config = schema::Instance(schema_);
    root->depth = 0;
    if (store::TreeDb* treedb = visited_.treedb()) {
      root->ref = NodeRef(treedb, root->facts, root->tableau);
    }
    if (!options_.require_idempotent) {
      // Seeding the table with the root (depth 0, empty path) makes it
      // dominate every do-nothing loop back to the initial state.
      visited_.Register(*root);
    }
    std::vector<std::unique_ptr<ZeroNode>> roots;
    roots.push_back(std::move(root));
    return roots;
  }

  Result<ZeroSolverResult> Search() {
    // One worker: serial pf-DFS whose first accept is the reduced
    // answer. More: pf-DFS pilot, then a level-synchronous sweep with
    // the deterministic barrier reduction (see engine/two_phase.h).
    engine::ExecOptions run_exec = exec_;
    run_exec.num_threads = workers_;
    engine::Explorer<ZeroNode>::Stats stats =
        engine::TwoPhaseExplore<ZeroNode>(
            run_exec, options_.max_nodes, [this] { return MakeRoots(); },
            [this](std::unique_ptr<ZeroNode> node,
                   engine::Explorer<ZeroNode>::Context& ctx) {
              VisitDfs(std::move(node), ctx);
            },
            [this](std::unique_ptr<ZeroNode> node,
                   engine::Explorer<ZeroNode>::Context& ctx) {
              VisitLevel(std::move(node), ctx);
            },
            [this](std::vector<std::vector<ZeroNode*>> batches) {
              auto frontier = ReduceLevel(std::move(batches));
              // The byte budget's level-mode cut point: decided at the
              // barrier over the complete reduced frontier, so the cut
              // level is schedule-independent.
              if (visited_.OverBudget()) frontier.clear();
              return frontier;
            },
            [this] { return best_.Snapshot() != nullptr; },
            [this] {
              // The sweep must see a deterministic table and
              // truncation state: the pilot's partial state is
              // discarded.
              visited_.Clear();
              truncated_.store(false, std::memory_order_relaxed);
            });
    return Finalize(stats);
  }

  Result<ZeroSolverResult> Finalize(
      const engine::Explorer<ZeroNode>::Stats& stats) {
    ZeroSolverResult result;
    result.nodes_explored = stats.nodes_explored;
    result.exhausted_budget =
        stats.budget_exhausted ||
        truncated_.load(std::memory_order_relaxed) || visited_.truncated();
    result.cancelled = stats.cancelled;
    result.visited_bytes = visited_.bytes();
    result.treedb_nodes = visited_.treedb_nodes();
    std::shared_ptr<const engine::BestPathTracker<schema::AccessStep>::Path>
        best = best_.Snapshot();
    result.satisfiable = best != nullptr;
    if (best != nullptr) result.witness = schema::AccessPath(best->steps);
    // A capped fusion-quotient pool may be missing the only realizable
    // witnesses: an unsatisfiable sweep over it is "unknown", never a
    // definitive "no". (Plan-level and deterministic, so the
    // schedule-independence guarantee is untouched.)
    if (!result.satisfiable && plan_.pool_fusion_truncated) {
      result.exhausted_budget = true;
    }
    return result;
  }

  std::unique_ptr<ZeroNode> MakeNode(const ZeroNode& parent, Child& child) {
    auto next = std::make_unique<ZeroNode>();
    next->facts = child.facts;
    next->tableau = std::move(child.tableau);
    next->config = std::move(child.post);
    next->depth = parent.depth + 1;
    next->accepting = child.accepting;
    next->links.reserve(parent.links.size() + 1);
    next->links = parent.links;
    next->path = engine::ExtendPath(parent.path, std::move(child.step),
                                    std::move(child.key), &next->links);
    if (store::TreeDb* treedb = visited_.treedb()) {
      next->ref = NodeRef(treedb, next->facts, next->tableau);
    }
    return next;
  }

  /// Serial visitor: pf-ordered depth-first with push-time dedup.
  void VisitDfs(std::unique_ptr<ZeroNode> node,
                engine::Explorer<ZeroNode>::Context& ctx) {
    // The byte budget's serial cut point: checked per pop on the one
    // worker, so the cut node is deterministic.
    if (visited_.OverBudget()) {
      ctx.Abort();
      return;
    }
    if (best_.Prunes(node->links)) return;
    if (node->accepting) {
      // A single worker pops in exactly the reduction order, so the
      // first accepting node is the final answer — stop the drain.
      best_.Offer(node->links);
      ctx.Abort();
      return;
    }
    if (node->depth >= options_.max_path_length) return;
    std::vector<Child> children = Expand(*node);
    // pf order: smallest child pops first. Equal keys cannot occur
    // within one node (each enumerated subset yields a distinct step).
    std::vector<uint32_t> order(children.size());
    for (uint32_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
      return children[a].key.compare(children[b].key) < 0;
    });
    // Register in ascending key order, push in descending order so the
    // owner's LIFO pops the smallest survivor first.
    std::vector<std::unique_ptr<ZeroNode>> survivors;
    survivors.reserve(children.size());
    for (uint32_t i : order) {
      std::unique_ptr<ZeroNode> next = MakeNode(*node, children[i]);
      if (best_.Prunes(next->links)) continue;
      // Accepting nodes have no subtree and are never registered:
      // acceptance is edge-local, so a non-accepting twin must not
      // shadow them (nor vice versa).
      if (!next->accepting && !options_.require_idempotent &&
          !visited_.Register(*next)) {
        continue;
      }
      survivors.push_back(std::move(next));
    }
    for (size_t i = survivors.size(); i-- > 0;) {
      ctx.Push(std::move(survivors[i]));
    }
  }

  /// Level-mode visitor: emit every child; the barrier reduction does
  /// the deduplication and pruning over the complete batch. No
  /// best-path work-saver prune here: whether a node expands decides
  /// whether its subset-cap truncation is recorded, and a mid-level
  /// prune races the accept that published the bound — the barrier
  /// reduction prunes the same nodes deterministically one level
  /// later, keeping `exhausted_budget` schedule-independent.
  void VisitLevel(std::unique_ptr<ZeroNode> node,
                  engine::Explorer<ZeroNode>::Context& ctx) {
    if (node->accepting) {
      best_.Offer(node->links);
      return;
    }
    if (node->depth >= options_.max_path_length) return;
    std::vector<Child> children = Expand(*node);
    for (Child& child : children) {
      ctx.Emit(MakeNode(*node, child));
    }
  }

  /// Barrier reduction via the shared striped reducer: dominance only
  /// relates nodes of equal (facts, tableau), which always share a
  /// stripe; each stripe is content-sorted and reduced
  /// deterministically, and children that cannot beat the best witness
  /// known at the end of the level are dropped.
  std::vector<std::unique_ptr<ZeroNode>> ReduceLevel(
      std::vector<std::vector<ZeroNode*>> batches) {
    return engine::ReduceLevelByContent<ZeroNode>(
        std::move(batches),
        [](const ZeroNode& node) {
          return NodeHash(node.facts, node.tableau);
        },
        [](const ZeroNode& a, const ZeroNode& b) {
          int c = CmpPathKeys(a.links, b.links);
          if (c != 0) return c < 0;
          // Equal full paths imply identical nodes (the path
          // determines facts, letters, hence the tableau subset);
          // accepting-first keeps the order total.
          return a.accepting && !b.accepting;
        },
        [this](const ZeroNode& node) {
          if (best_.Prunes(node.links)) return false;
          if (!node.accepting && !options_.require_idempotent &&
              !visited_.Register(node)) {
            return false;
          }
          return true;
        });
  }

  // --- Child enumeration (the original solver's access step rule) -----------

  /// Enumerates one access per child: a method plus a subset of
  /// not-yet-injected pool facts of its relation (possibly empty),
  /// agreeing on input positions (they share the binding). Subsets of
  /// up to max_facts_per_step facts are enumerated over *all*
  /// candidates, grouped by their shared binding; the per-(node,
  /// method) cap max_subsets_per_access marks the search truncated
  /// instead of silently dropping witnesses (the pre-engine solver
  /// silently capped at the first 12 candidates).
  std::vector<Child> Expand(const ZeroNode& node) {
    std::vector<Child> children;
    size_t candidates = 0;
    Scratch scratch;
    Generate(node, &scratch, &children, &candidates);
    const ZeroMetrics& metrics = ZeroMetrics::Get();
    metrics.expansions->Inc();
    metrics.candidates->Inc(candidates);
    metrics.children->Inc(children.size());
    return children;
  }

  /// One expansion's candidate buffers: every (method, binding group,
  /// pool subset) candidate of a node is decided on these, so the
  /// candidate loop allocates only for the children it keeps.
  struct Scratch {
    /// The current binding group's pool facts this node lacks.
    std::vector<size_t> members;
    /// The current subset, as indices into `members`.
    std::vector<size_t> idx;
    /// The current candidate: its access (one per binding group) and
    /// response (pool indices, then their fact ids in tuple order).
    schema::Access access;
    std::vector<size_t> chosen;
    std::vector<store::FactId> response_ids;
    /// The CandidateView's buffer, the letter, and the tableau step's
    /// successor states (sorted, duplicate-free).
    std::vector<store::FactId> view_ids;
    std::vector<char> letter;
    std::vector<int> next_states;
  };

  void Generate(const ZeroNode& node, Scratch* sc,
                std::vector<Child>* children, size_t* candidates_out) {
    // The active domain is stable across this node's enumeration;
    // compute it once, on first need (it is only consulted for
    // synthesized bindings and grounded checks).
    schema::LazyActiveDomain domain(node.config);
    schema::Access& access = sc->access;
    for (AccessMethodId m = 0; m < schema_.num_access_methods(); ++m) {
      const schema::AccessMethod& am = schema_.method(m);
      access.method = m;
      size_t enumerated = 0;
      bool capped = false;
      // The empty response first: synthesize a binding (grounded mode
      // draws from the revealed domain).
      ++enumerated;
      {
        access.binding.clear();
        bool bind_ok = true;
        const schema::Relation& rel = schema_.relation(am.relation);
        for (schema::Position p : am.input_positions) {
          ValueType type = rel.position_types[static_cast<size_t>(p)];
          const Value* found = nullptr;
          for (const Value& cand : domain.get()) {
            if (cand.type() == type) {
              found = &cand;
              break;
            }
          }
          if (found != nullptr) {
            access.binding.push_back(*found);
          } else if (options_.grounded) {
            bind_ok = false;
            break;
          } else if (type == ValueType::kString) {
            access.binding.push_back(
                Value::Str("~b" + std::to_string(node.depth)));
          } else if (type == ValueType::kBool) {
            access.binding.push_back(Value::Bool(false));
          } else {
            access.binding.push_back(
                Value::Int(-3000000 - static_cast<int64_t>(node.depth)));
          }
        }
        if (bind_ok) {
          sc->chosen.clear();
          TryChild(node, sc, children, candidates_out);
        }
      }
      // Non-empty responses: combinations of 1..max_facts_per_step
      // facts within each binding group, counted against the cap (the
      // subset that exceeds the cap is counted, not enumerated). A
      // result-bounded method further caps the response size at its
      // bound (bound 0: only the empty response above) — the
      // combination sweep is monotone in k, so enlarging a bound only
      // ever adds children.
      size_t max_k = options_.max_facts_per_step;
      if (am.bounded()) {
        max_k = std::min(max_k, static_cast<size_t>(am.result_bound));
      }
      for (uint32_t g = compiled_.method_groups[m];
           g < compiled_.method_groups[m + 1] && !capped; ++g) {
        uint64_t group = compiled_.groups[g];
        uint64_t live = group & ~node.facts;
        if (live == 0) continue;
        std::vector<size_t>& members = sc->members;
        members.clear();
        for (size_t i = 0; i < plan_.pool.size(); ++i) {
          if (live >> i & 1) members.push_back(i);
        }
        // Every fact of the group has the binding; take its first's.
        size_t first = 0;
        while ((group >> first & 1) == 0) ++first;
        access.binding.clear();
        for (schema::Position p : am.input_positions) {
          access.binding.push_back(
              plan_.PoolValue(first, static_cast<size_t>(p)));
        }
        if (options_.grounded) {
          bool ok = true;
          for (const Value& v : access.binding) {
            if (domain.get().count(v) == 0) {
              ok = false;
              break;
            }
          }
          if (!ok) continue;
        }
        size_t n = members.size();
        std::vector<size_t>& idx = sc->idx;
        for (size_t k = 1; k <= std::min(max_k, n) && !capped; ++k) {
          // Lexicographic index combinations of size k.
          idx.resize(k);
          for (size_t i = 0; i < k; ++i) idx[i] = i;
          for (;;) {
            if (++enumerated > options_.max_subsets_per_access) {
              capped = true;
              break;
            }
            sc->chosen.clear();
            for (size_t i : idx) sc->chosen.push_back(members[i]);
            TryChild(node, sc, children, candidates_out);
            // Advance the combination.
            size_t pos = k;
            while (pos > 0 && idx[pos - 1] == n - (k - pos) - 1) --pos;
            if (pos == 0) break;
            ++idx[pos - 1];
            for (size_t i = pos; i < k; ++i) idx[i] = idx[i - 1] + 1;
          }
        }
      }
      if (capped) truncated_.store(true, std::memory_order_relaxed);
    }
  }

  /// Decides the candidate in `sc` (its access, and the pool facts
  /// `chosen` as the response): the idempotence filter, then the
  /// letter on the pre+response view (logic::CandidateView) and the
  /// tableau step. Only a surviving candidate gets its post-instance
  /// built.
  void TryChild(const ZeroNode& node, Scratch* sc,
                std::vector<Child>* children, size_t* candidates) {
    const schema::Access& access = sc->access;
    std::vector<size_t>& chosen = sc->chosen;
    uint64_t new_facts = node.facts;
    for (size_t i : chosen) new_facts |= uint64_t{1} << i;
    if (options_.require_idempotent) {
      // Repeating an earlier access must repeat its response.
      std::optional<schema::Response> response;
      for (const PathLink* link : node.links) {
        if (!(link->step.access == access)) continue;
        if (!response) {
          response.emplace();
          for (size_t i : chosen) response->insert(plan_.PoolTuple(i));
        }
        if (link->step.response != *response) return;
      }
    }
    // Resolve in tuple order, the order a response set interns in, so
    // fact ids (hence compact-mode trie shapes) match the tuple path.
    if (chosen.size() > 1) {
      std::sort(chosen.begin(), chosen.end(), [&](size_t a, size_t b) {
        return compiled_.tuple_rank[a] < compiled_.tuple_rank[b];
      });
    }
    std::vector<store::FactId>& response_ids = sc->response_ids;
    response_ids.clear();
    for (size_t i : chosen) response_ids.push_back(plan_.PoolId(i));
    ++*candidates;

    // Advance the tableau over this letter.
    compiled_.atoms.EvalEach(
        logic::CandidateView(schema_, node.config, access, response_ids,
                             &sc->view_ids),
        &sc->letter);
    const std::vector<char>& letter = sc->letter;
    std::vector<int>& next_states = sc->next_states;
    next_states.clear();
    bool may_end = false;
    for (int s : node.tableau) {
      for (uint32_t ei = plan_.state_edges[static_cast<size_t>(s)];
           ei < plan_.state_edges[static_cast<size_t>(s) + 1]; ++ei) {
        const ZeroPlan::Edge& e = plan_.edges[ei];
        const int* lit = plan_.lits.data() + e.lits_begin;
        bool match = true;
        for (uint32_t i = 0; i < e.num_pos + e.num_neg && match; ++i) {
          bool holds = letter[static_cast<size_t>(lit[i])] != 0;
          match = holds == (i < e.num_pos);
        }
        if (!match) continue;
        auto at = std::lower_bound(next_states.begin(), next_states.end(),
                                   e.to);
        if (at == next_states.end() || *at != e.to) {
          next_states.insert(at, e.to);
        }
        may_end = may_end || e.may_end;
      }
    }
    if (next_states.empty() && !may_end) return;
    schema::Transition t = schema::MakeTransitionFromIds(
        schema_, node.config, access, response_ids);
    Child child;
    child.facts = new_facts;
    child.tableau = next_states;
    child.post = std::move(t.post);
    child.step = schema::AccessStep{std::move(t.access),
                                    std::move(t.response)};
    child.key = schema::StepOrderKey(child.step);
    child.accepting = may_end;
    children->push_back(std::move(child));
  }

  const ZeroPlan& plan_;
  const schema::Schema& schema_;
  const ZeroSolverOptions& options_;
  engine::ExecOptions exec_;
  const ZeroPlan::Compiled& compiled_;
  size_t workers_;
  /// Exact records or tree-compressed refs (engine/cancel.h
  /// VisitedMode), their byte accounting, and the byte-budget cut.
  engine::VisitedStore<VisitedEntry> visited_;
  engine::BestPathTracker<schema::AccessStep> best_;
  std::atomic<bool> truncated_{false};
};

}  // namespace

Result<std::shared_ptr<const ZeroPlan>> PrepareZeroAry(
    const acc::AccPtr& formula, const schema::Schema& schema) {
  obs::Span span("prepare-zero");
  ZeroMetrics::Get().plan_builds->Inc();
  auto plan = std::make_shared<ZeroPlan>();
  acc::Abstraction abstraction = acc::Abstract(formula);
  // 1. Reject formulas outside the (constant-extended) 0-ary fragment.
  for (const logic::PosFormulaPtr& atom : abstraction.atoms) {
    Status s = CheckZeroAry(atom);
    if (!s.ok()) return s;
  }
  plan->atoms = abstraction.atoms;
  // 2. Build the canonical-witness pool (all-fresh canonical databases
  // plus capped fusion quotients).
  std::vector<PoolFact> pool;
  ACCLTL_RETURN_IF_ERROR(
      BuildPool(abstraction, schema, &pool, &plan->pool_fusion_truncated));
  if (pool.size() > 63) {
    return Status::ResourceExhausted(
        "witness pool exceeds 63 facts; split the formula");
  }
  plan->pool.reserve(pool.size());
  for (const PoolFact& f : pool) {
    ZeroPoolFact compact;
    compact.relation = f.relation;
    compact.forced_method = f.forced_method;
    compact.values_begin = static_cast<uint32_t>(plan->pool_values.size());
    compact.arity = static_cast<uint32_t>(f.tuple.size());
    for (const Value& v : f.tuple) {
      plan->pool_values.push_back(store::Store::Get().InternValue(v));
    }
    plan->pool.push_back(compact);
  }
  // 3. Build the LTL tableau for the skeleton, flattened by source
  // state (edge order within a state is kept).
  Result<ltl::TableauAutomaton> tableau =
      ltl::BuildTableau(abstraction.skeleton, 1u << 18);
  if (!tableau.ok()) return tableau.status();
  const ltl::TableauAutomaton& ta = tableau.value();
  plan->initial_state = ta.initial;
  plan->state_edges.assign(static_cast<size_t>(ta.num_states) + 1, 0);
  for (const ltl::TableauEdge& e : ta.edges) {
    ++plan->state_edges[static_cast<size_t>(e.from) + 1];
  }
  for (size_t st = 1; st < plan->state_edges.size(); ++st) {
    plan->state_edges[st] += plan->state_edges[st - 1];
  }
  plan->edges.resize(ta.edges.size());
  std::vector<uint32_t> next(plan->state_edges.begin(),
                             plan->state_edges.end() - 1);
  for (const ltl::TableauEdge& e : ta.edges) {
    ZeroPlan::Edge& flat = plan->edges[next[static_cast<size_t>(e.from)]++];
    flat.to = e.to;
    flat.may_end = e.may_end;
    flat.lits_begin = static_cast<uint32_t>(plan->lits.size());
    flat.num_pos = static_cast<uint32_t>(e.pos_lits.size());
    flat.num_neg = static_cast<uint32_t>(e.neg_lits.size());
    plan->lits.insert(plan->lits.end(), e.pos_lits.begin(), e.pos_lits.end());
    plan->lits.insert(plan->lits.end(), e.neg_lits.begin(), e.neg_lits.end());
  }
  // Plans are cached and prepared queries hold them for life.
  plan->pool_values.shrink_to_fit();
  plan->lits.shrink_to_fit();
  return std::shared_ptr<const ZeroPlan>(std::move(plan));
}

Result<ZeroSolverResult> CheckZeroAryPrepared(
    const ZeroPlan& plan, const schema::Schema& schema,
    const ZeroSolverOptions& options, const engine::ExecOptions& exec) {
  ZeroSolver solver(plan, schema, options, exec);
  return solver.Run();
}

Result<ZeroSolverResult> CheckZeroArySatisfiable(
    const acc::AccPtr& formula, const schema::Schema& schema,
    const ZeroSolverOptions& options, const engine::ExecOptions& exec) {
  Result<std::shared_ptr<const ZeroPlan>> plan =
      PrepareZeroAry(formula, schema);
  if (!plan.ok()) return plan.status();
  return CheckZeroAryPrepared(*plan.value(), schema, options, exec);
}

}  // namespace analysis
}  // namespace accltl
