#include "src/automata/emptiness.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/engine/compact_table.h"
#include "src/engine/explorer.h"
#include "src/engine/path_link.h"
#include "src/engine/two_phase.h"
#include "src/engine/visited_table.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/store/treedb.h"
#include "src/logic/cq.h"
#include "src/logic/eval.h"
#include "src/store/fact_store.h"
#include "src/store/match_index.h"

namespace accltl {
namespace automata {

namespace {

/// Witness-engine instruments (write-only; DESIGN.md §8).
struct WitnessMetrics {
  obs::Counter* expansions;
  obs::Counter* candidates;  // (candidate access, transition) decisions
  obs::Counter* accesses;    // candidate accesses, one view each
  obs::Counter* sentence_evals;  // guard sentences evaluated on them
  obs::Counter* children;
  obs::Counter* plan_builds;
  obs::Histogram* reduce_us;  // per level-sweep barrier reduction
  static const WitnessMetrics& Get() {
    static const WitnessMetrics m{
        obs::Registry::Get().counter("automata.expansions"),
        obs::Registry::Get().counter("automata.candidates"),
        obs::Registry::Get().counter("automata.accesses"),
        obs::Registry::Get().counter("automata.sentence_evals"),
        obs::Registry::Get().counter("automata.children"),
        obs::Registry::Get().counter("automata.plan_builds"),
        obs::Registry::Get().histogram("automata.search.reduce_us"),
    };
    return m;
  }
};

using logic::Cq;
using logic::CqAtom;
using logic::Env;
using logic::PredSpace;
using schema::AccessMethodId;
using schema::Instance;
using schema::RelationId;

/// One way to take an automaton transition as a concrete access.
struct Realization {
  AccessMethodId method = 0;
  Tuple binding;
  std::vector<Tuple> new_facts;
  /// Interned ids of new_facts (same order): lets the searcher build
  /// the post configuration without re-interning tuple data.
  std::vector<store::FactId> new_fact_ids;
};

/// Enumerates concrete realizations of a guard disjunct from the
/// current instance; calls `fn` for each (stop when it returns true).
class RealizationEnumerator {
 public:
  RealizationEnumerator(const schema::Schema& schema, const Instance& current,
                        const WitnessSearchOptions& options,
                        int64_t fresh_base,
                        store::MatchIndexCache::LocalView* index,
                        schema::LazyActiveDomain* domain)
      : schema_(schema),
        current_(current),
        options_(options),
        base_factory_(logic::FreshValueFactory::StartingAt(fresh_base)),
        index_(index),
        domain_(domain) {}

  /// True when max_realizations_per_step cut the enumeration short:
  /// a non-exhaustive step means the overall search may be incomplete.
  bool truncated() const { return truncated_; }

  bool ForEach(const Cq& disjunct,
               const std::function<bool(const Realization&)>& fn) {
    // Partition atoms by space.
    std::vector<const CqAtom*> pre, post, bind;
    for (const CqAtom& a : disjunct.atoms) {
      switch (a.pred.space) {
        case PredSpace::kPre:
          pre.push_back(&a);
          break;
        case PredSpace::kPost:
          post.push_back(&a);
          break;
        case PredSpace::kBind:
          bind.push_back(&a);
          break;
        case PredSpace::kPlain:
          return false;  // not a transition formula
      }
    }
    // All bind atoms must agree on the method (a transition has one).
    std::optional<AccessMethodId> method;
    for (const CqAtom* b : bind) {
      if (method.has_value() && *method != b->pred.id) return false;
      method = b->pred.id;
    }
    std::vector<AccessMethodId> methods;
    if (method.has_value()) {
      methods.push_back(*method);
    } else {
      for (AccessMethodId m = 0; m < schema_.num_access_methods(); ++m) {
        methods.push_back(m);
      }
    }
    emitted_ = 0;
    for (AccessMethodId m : methods) {
      // Choose which post atoms denote newly returned tuples. Post atoms
      // can also map to already-revealed facts; mapping to *other* new
      // facts is covered by putting both atoms in the new set.
      RelationId target = schema_.method(m).relation;
      size_t subsets = size_t{1} << post.size();
      for (size_t mask = 0; mask < subsets; ++mask) {
        std::vector<const CqAtom*> as_new, as_old;
        bool ok = true;
        for (size_t i = 0; i < post.size(); ++i) {
          if (mask & (size_t{1} << i)) {
            if (post[i]->pred.id != target) {
              ok = false;
              break;
            }
            as_new.push_back(post[i]);
          } else {
            as_old.push_back(post[i]);
          }
        }
        if (!ok) continue;
        if (Match(disjunct, m, pre, as_old, as_new, bind, fn)) return true;
        // truncated_ is set exactly when the cap suppressed a completed
        // match; enumeration past the cap without suppression proves
        // exhaustiveness and must not flag the result as unknown.
        if (truncated_) return false;
      }
    }
    return false;
  }

 private:
  /// Backtracking match of pre/old-post atoms against revealed facts,
  /// then instantiation of new facts and the binding.
  bool Match(const Cq& disjunct, AccessMethodId m,
             const std::vector<const CqAtom*>& pre,
             const std::vector<const CqAtom*>& as_old,
             const std::vector<const CqAtom*>& as_new,
             const std::vector<const CqAtom*>& bind,
             const std::function<bool(const Realization&)>& fn) {
    std::vector<const CqAtom*> to_match = pre;
    to_match.insert(to_match.end(), as_old.begin(), as_old.end());
    Env env;
    std::function<bool(size_t)> rec = [&](size_t idx) -> bool {
      if (truncated_) return false;
      if (idx == to_match.size()) {
        if (emitted_ >= options_.max_realizations_per_step) {
          // The cap is suppressing a fully-matched candidate: the step
          // is non-exhaustive from here on.
          truncated_ = true;
          return false;
        }
        return Finish(disjunct, m, as_new, bind, &env, fn);
      }
      const CqAtom& atom = *to_match[idx];
      auto try_tuple = [&](const Tuple& tuple) -> bool {
        if (tuple.size() != atom.terms.size()) return false;
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
            auto it = env.find(t.var_name());
            if (it != env.end()) {
              if (it->second != tuple[i]) {
                ok = false;
                break;
              }
            } else {
              env[t.var_name()] = tuple[i];
              newly.push_back(t.var_name());
            }
          }
        }
        if (ok && rec(idx + 1)) return true;
        for (const std::string& v : newly) env.erase(v);
        return false;
      };
      // Candidate selection: when some atom position carries a bound
      // value (constant or env-bound variable), scan only the facts
      // matching it via the memoized per-relation index; COW sharing
      // makes the index valid across all nodes sharing the relation.
      const store::Store& store = store::Store::Get();
      int bound_pos = -1;
      store::ValueId bound_val = store::kNoValueId;
      bool dead = false;
      for (size_t i = 0; i < atom.terms.size(); ++i) {
        const logic::Term& t = atom.terms[i];
        const Value* v = nullptr;
        if (t.is_const()) {
          v = &t.value();
        } else {
          auto it = env.find(t.var_name());
          if (it != env.end()) v = &it->second;
        }
        if (v == nullptr) continue;
        bound_pos = static_cast<int>(i);
        bound_val = store.TryFindValue(*v);
        // A never-interned value occurs in no instance fact: no match.
        dead = bound_val == store::kNoValueId;
        break;
      }
      if (dead) return false;
      if (bound_pos >= 0) {
        const std::vector<store::FactId>& candidates = index_->Lookup(
            current_.facts(atom.pred.id), bound_pos, bound_val);
        for (store::FactId fact : candidates) {
          if (try_tuple(store.tuple(fact))) return true;
        }
        return false;
      }
      for (const Tuple& tuple : current_.tuples(atom.pred.id)) {
        if (try_tuple(tuple)) return true;
      }
      return false;
    };
    return rec(0);
  }

  /// Term to value: bound / constant / fresh (registering in env).
  std::optional<Value> Resolve(const logic::Term& t, ValueType type, Env* env,
                               logic::FreshValueFactory* factory,
                               bool allow_fresh) {
    if (t.is_const()) return t.value();
    auto it = env->find(t.var_name());
    if (it != env->end()) return it->second;
    if (!allow_fresh) return std::nullopt;
    Value v = factory->Fresh(type);
    (*env)[t.var_name()] = v;
    return v;
  }

  bool Finish(const Cq& disjunct, AccessMethodId m,
              const std::vector<const CqAtom*>& as_new,
              const std::vector<const CqAtom*>& bind, Env* env,
              const std::function<bool(const Realization&)>& fn) {
    const schema::AccessMethod& method = schema_.method(m);
    const schema::Relation& rel = schema_.relation(method.relation);
    Env saved = *env;
    auto restore = [&] { *env = saved; };
    // Every candidate draws fresh values from the node's base (which
    // is a function of the node's configuration), so a realization's
    // fresh values depend only on the node and the candidate itself —
    // never on how many sibling candidates were enumerated before it.
    // That makes the child *set* independent of enumeration order,
    // hence of the global fact-interning order, hence of the worker
    // schedule; and it makes equal configurations expand to
    // content-identical subtrees, which is what lets the visited
    // table transfer subtrees between path-equivalent nodes.
    logic::FreshValueFactory factory = base_factory_;

    Realization r;
    r.method = m;

    // 0-ary IsBind atoms (the Sch0−Acc abstraction) constrain only the
    // method, not the binding values — drop them here.
    std::vector<const CqAtom*> bind_full;
    for (const CqAtom* b : bind) {
      if (static_cast<int>(b->terms.size()) == method.num_inputs() &&
          !b->terms.empty()) {
        bind_full.push_back(b);
      }
    }

    // Binding first: bind-atom terms; grounded mode forbids fresh values
    // in bindings.
    if (!bind_full.empty()) {
      const CqAtom& batom = *bind_full[0];
      for (size_t i = 0; i < batom.terms.size(); ++i) {
        ValueType type = rel.position_types[static_cast<size_t>(
            method.input_positions[i])];
        std::optional<Value> v =
            Resolve(batom.terms[i], type, env, &factory, /*allow_fresh=*/
                    !options_.grounded);
        if (!v.has_value()) {
          restore();
          return false;
        }
        r.binding.push_back(*v);
      }
      // Remaining bind atoms (same method) must agree.
      for (size_t b = 1; b < bind_full.size(); ++b) {
        for (size_t i = 0; i < bind_full[b]->terms.size(); ++i) {
          ValueType type = rel.position_types[static_cast<size_t>(
              method.input_positions[i])];
          std::optional<Value> v = Resolve(bind_full[b]->terms[i], type, env,
                                           &factory, !options_.grounded);
          if (!v.has_value() || *v != r.binding[i]) {
            restore();
            return false;
          }
        }
      }
    }

    // New facts. When the binding is already fixed (bind atoms), the
    // response must agree with it on input positions — propagate the
    // binding into unbound variables there instead of inventing fresh
    // values that could never agree.
    for (const CqAtom* a : as_new) {
      if (!r.binding.empty()) {
        for (size_t i = 0; i < method.input_positions.size(); ++i) {
          const logic::Term& term =
              a->terms[static_cast<size_t>(method.input_positions[i])];
          if (term.is_var() && env->find(term.var_name()) == env->end()) {
            (*env)[term.var_name()] = r.binding[i];
          }
        }
      }
      Tuple t;
      t.reserve(a->terms.size());
      bool ok = true;
      for (size_t i = 0; i < a->terms.size(); ++i) {
        std::optional<Value> v =
            Resolve(a->terms[i], rel.position_types[i], env, &factory, true);
        if (!v.has_value()) {
          ok = false;
          break;
        }
        t.push_back(*v);
      }
      if (!ok) {
        restore();
        return false;
      }
      r.new_facts.push_back(std::move(t));
    }

    // Derive or check the binding from the new facts.
    if (bind_full.empty()) {
      if (!r.new_facts.empty()) {
        for (schema::Position p : method.input_positions) {
          r.binding.push_back(r.new_facts[0][static_cast<size_t>(p)]);
        }
      } else {
        // Free access: pick deterministic binding values.
        for (schema::Position p : method.input_positions) {
          ValueType type = rel.position_types[static_cast<size_t>(p)];
          std::optional<Value> v;
          if (options_.grounded) {
            for (const Value& cand : domain_->get()) {
              if (cand.type() == type) {
                v = cand;
                break;
              }
            }
          } else {
            v = factory.Fresh(type);
          }
          if (!v.has_value()) {
            restore();
            return false;  // grounded and nothing to enter into the form
          }
          r.binding.push_back(*v);
        }
      }
      if (options_.grounded) {
        const std::set<Value>& dom = domain_->get();
        for (const Value& v : r.binding) {
          if (dom.count(v) == 0) {
            restore();
            return false;
          }
        }
      }
    }
    // Responses must agree with the binding on input positions.
    for (const Tuple& t : r.new_facts) {
      for (size_t i = 0; i < method.input_positions.size(); ++i) {
        if (t[static_cast<size_t>(method.input_positions[i])] !=
            r.binding[i]) {
          restore();
          return false;
        }
      }
    }
    // Inequalities of the disjunct.
    for (const auto& [l, rterm] : disjunct.neqs) {
      auto value_of = [&](const logic::Term& t) -> std::optional<Value> {
        if (t.is_const()) return t.value();
        auto it = env->find(t.var_name());
        if (it == env->end()) return std::nullopt;
        return it->second;
      };
      std::optional<Value> lv = value_of(l), rv = value_of(rterm);
      if (!lv.has_value() || !rv.has_value() || *lv == *rv) {
        restore();
        return false;
      }
    }
    // Intern only on emit: rejected candidates (binding disagreement,
    // inequalities) must not grow the append-only global store.
    for (const Tuple& t : r.new_facts) {
      r.new_fact_ids.push_back(store::Store::Get().InternTuple(t));
    }
    ++emitted_;
    bool stop = fn(r);
    restore();
    return stop;
  }

  const schema::Schema& schema_;
  const Instance& current_;
  const WitnessSearchOptions& options_;
  logic::FreshValueFactory base_factory_;
  store::MatchIndexCache::LocalView* index_;
  schema::LazyActiveDomain* domain_;
  size_t emitted_ = 0;
  bool truncated_ = false;
};

}  // namespace

/// The search-independent compilation of an automaton: normalized UCQ
/// guards, the guard-sentence table and the speculative fact pool.
/// Building it costs UCQ normalization, sentence compilation and
/// freezing per guard, so the automaton owns it (PlanFor). External
/// linkage: a_automaton.h forward-declares it.
struct SearchPlan {
  /// The distinct positive guards, as UCQs. A compiled tableau repeats
  /// each literal set on many edges; transitions whose ψ+ has the same
  /// sentences share one entry.
  std::vector<logic::Ucq> guards;
  /// Per distinct guard: it has a trivially-true disjunct (no atoms, no
  /// inequalities), so ψ+ holds on *every* transition and pool
  /// injection only needs to check ψ−.
  std::vector<bool> trivially_positive;
  /// The distinct guard sentences, each compiled once and keyed by
  /// formula identity: every Guard::PositiveSentences() part and every
  /// γ of every ψ−. A compiled tableau reuses a few atoms on many
  /// edges, so a search decides a candidate access with at most this
  /// many evaluations.
  std::vector<logic::CompiledFormula> sentences;
  /// One transition as the search decides it.
  struct Edge {
    int to = 0;
    /// Its entry in `guards`.
    uint32_t guard = 0;
    /// Ids into `sentences`: the parts of ψ+, and the γs of ψ−.
    std::vector<uint32_t> positive;
    std::vector<uint32_t> negative;
  };
  /// Per transition, in automaton order.
  std::vector<Edge> edges;
  /// The transitions leaving one state.
  struct Outgoing {
    /// Indices into `edges`, in automaton order.
    std::vector<uint32_t> edges;
    /// The distinct `guards` among them, in first-appearance order.
    std::vector<uint32_t> guards;
  };
  /// Per source state.
  std::vector<Outgoing> outgoing;
  std::vector<std::pair<RelationId, store::FactId>> pool;
  /// Factory state after pool freezing: searches must continue the
  /// fresh-value sequence to avoid colliding with pool values.
  logic::FreshValueFactory factory_after_pool;
  /// All the build read of the schema: the position types of every
  /// relation whose facts it froze.
  std::vector<std::pair<RelationId, std::vector<ValueType>>> read_types;

  /// True when `schema` agrees with the build's schema on everything
  /// the build read, so the plan is the one `schema` would give.
  bool BuiltFor(const schema::Schema& schema) const {
    for (const auto& [rel, types] : read_types) {
      if (rel >= schema.num_relations() ||
          schema.relation(rel).position_types != types) {
        return false;
      }
    }
    return true;
  }
};

namespace {

std::shared_ptr<const SearchPlan> BuildPlan(const AAutomaton& automaton,
                                            const schema::Schema& schema) {
  obs::Span span("prepare-plan");
  WitnessMetrics::Get().plan_builds->Inc();
  auto plan = std::make_shared<SearchPlan>();
  // Compile each distinct sentence once, and pre-normalize guards to
  // UCQs once per distinct ψ+ (by its sentence ids).
  std::map<std::vector<uint32_t>, uint32_t> distinct;
  std::map<const logic::PosFormula*, uint32_t> sentence_ids;
  auto sentence = [&](const logic::PosFormulaPtr& f) {
    auto [it, fresh] = sentence_ids.emplace(
        f.get(), static_cast<uint32_t>(plan->sentences.size()));
    if (fresh) plan->sentences.emplace_back(f);
    return it->second;
  };
  for (const ATransition& t : automaton.transitions()) {
    logic::PosFormulaPtr pos =
        t.guard.positive ? t.guard.positive : logic::PosFormula::True();
    SearchPlan::Edge edge;
    edge.to = t.to;
    for (const logic::PosFormulaPtr& part : t.guard.PositiveSentences()) {
      edge.positive.push_back(sentence(part));
    }
    for (const logic::PosFormulaPtr& gamma : t.guard.negated) {
      edge.negative.push_back(sentence(gamma));
    }
    auto [it, fresh] = distinct.emplace(
        edge.positive, static_cast<uint32_t>(plan->guards.size()));
    edge.guard = it->second;
    if (t.from >= 0) {
      if (static_cast<size_t>(t.from) >= plan->outgoing.size()) {
        plan->outgoing.resize(static_cast<size_t>(t.from) + 1);
      }
      SearchPlan::Outgoing& out = plan->outgoing[static_cast<size_t>(t.from)];
      out.edges.push_back(static_cast<uint32_t>(plan->edges.size()));
      if (std::find(out.guards.begin(), out.guards.end(), edge.guard) ==
          out.guards.end()) {
        out.guards.push_back(edge.guard);
      }
    }
    plan->edges.push_back(std::move(edge));
    if (!fresh) continue;
    Result<logic::Ucq> ucq = logic::NormalizeToUcq(pos, {}, schema);
    plan->guards.push_back(ucq.ok() ? ucq.value() : logic::Ucq{});
    // Degenerate case: TRUE normalizes to one empty disjunct.
    if (pos->kind() == logic::NodeKind::kTrue) {
      logic::Ucq truth;
      truth.disjuncts.push_back(logic::Cq{});
      plan->guards.back() = truth;
    }
    bool trivial = false;
    for (const logic::Cq& d : plan->guards.back().disjuncts) {
      if (d.atoms.empty() && d.neqs.empty()) {
        trivial = true;
        break;
      }
    }
    plan->trivially_positive.push_back(trivial);
  }
  plan->guards.shrink_to_fit();
  // Speculative fact pool: canonical (frozen) facts of every guard
  // disjunct. Guards often require facts in their *pre* structure
  // that only an earlier, unconstrained access can reveal; injecting
  // pool facts through permissive transitions realizes such paths.
  // Freezing runs per transition, shared guards included, so every
  // transition's guard contributes its own fresh facts.
  logic::FreshValueFactory factory;
  std::set<RelationId> read;
  for (const SearchPlan::Edge& edge : plan->edges) {
    for (const logic::Cq& d : plan->guards[edge.guard].disjuncts) {
      logic::Cq data_only;
      for (const logic::CqAtom& a : d.atoms) {
        if (a.pred.space == PredSpace::kPre ||
            a.pred.space == PredSpace::kPost) {
          data_only.atoms.push_back(a);
          read.insert(a.pred.id);
        }
      }
      if (data_only.atoms.empty()) continue;
      Result<logic::FrozenCq> frozen =
          logic::FreezeCq(data_only, schema, &factory);
      if (!frozen.ok()) continue;
      for (const auto& [pred, tuples] : frozen.value().db.relations()) {
        for (const Tuple& t : tuples) {
          if (plan->pool.size() >= 64) break;
          // Interned once here; every Contains check during the
          // search is then a binary search over fact ids.
          plan->pool.emplace_back(pred.id,
                                  store::Store::Get().InternTuple(t));
        }
      }
    }
  }
  plan->factory_after_pool = factory;
  for (RelationId rel : read) {
    plan->read_types.emplace_back(rel, schema.relation(rel).position_types);
  }
  return plan;
}

}  // namespace

/// The automaton's own plan, built by the first search; a search over
/// a schema that disagrees with the build's gets a plan of its own.
std::shared_ptr<const SearchPlan> PlanFor(const AAutomaton& automaton,
                                          const schema::Schema& schema) {
  AAutomaton::PlanSlot* slot = automaton.plan_.get();
  if (slot == nullptr) return BuildPlan(automaton, schema);  // moved-from
  std::call_once(slot->once,
                 [&] { slot->plan = BuildPlan(automaton, schema); });
  if (slot->plan->BuiltFor(schema)) return slot->plan;
  return BuildPlan(automaton, schema);
}

namespace {

// --- Deterministic reduction order ------------------------------------------
//
// Witnesses (and partial paths) are totally ordered by *content*:
// prefix-first lexicographic over access steps, each step compared by
// (method, binding, response) through the precomputed order-preserving
// byte key `schema::StepOrderKey` (built once per materialized child,
// outside every lock): comparisons sit inside visited-table shard
// sections and the best-witness reduction, where rebuilding
// value-by-value comparisons was the engine's contention point. The
// order mentions no ids, no pointers and no interning artifacts, so it
// is identical across runs and worker counts, and it does not depend
// on whether a search built its SearchPlan or reused the automaton's:
// interning a plan's pool again yields the same facts. The engine
// returns the minimum accepting path under it — which is exactly the
// path a serial depth-first search visits first when every node's
// children are expanded in sorted order. The chain/compare/
// best-tracking machinery is the generic `engine::PathLink` layer
// shared with the zero-ary solver's engine port.

using PathLink = engine::PathLink<schema::AccessStep>;
using engine::CmpChains;
using engine::CmpPathKeys;

/// One frontier node of the witness search.
struct SearchNode {
  int state = 0;
  Instance config;
  uint32_t depth = 0;
  /// Fresh-value base for expanding this node: a pure function of the
  /// configuration (max embedded fresh index + 1, floored at the
  /// plan's post-pool counter), never of the exploration order.
  int64_t fresh_base = 0;
  std::shared_ptr<const PathLink> path;
  /// Root-to-node materialization of `path` (pointers into the chain,
  /// kept alive by it). Built once at node creation — on a worker —
  /// so the barrier reduction and every dominance check compare paths
  /// without walking or allocating.
  std::vector<const PathLink*> links;
  /// Compact mode only: the tree-compressed identity
  /// pair(state, tuple(per-relation set refs)) and its ingredients.
  /// Children derive these as *deltas* — the one accessed relation's
  /// set ref is extended by the response fact ids and the O(log R)
  /// tuple spine re-interned — instead of re-encoding the whole
  /// configuration.
  store::TreeRef ref = store::kNilTreeRef;
  store::TreeRef config_ref = store::kNilTreeRef;
  std::vector<store::TreeRef> rel_refs;
};

/// Shared state of one BoundedWitnessSearch run.
class Search {
 public:
  Search(const AAutomaton& automaton, const schema::Schema& schema,
         const WitnessSearchOptions& options,
         const engine::ExecOptions& exec, const Instance& initial)
      : automaton_(automaton),
        schema_(schema),
        options_(options),
        exec_(exec),
        initial_(initial),
        plan_(PlanFor(automaton, schema)),
        workers_(std::max<size_t>(1, exec.num_threads)) {
    if (exec.visited_mode == engine::VisitedMode::kCompact) {
      compact_.emplace(256);
    }
    local_views_.reserve(workers_);
    for (size_t i = 0; i < workers_; ++i) {
      local_views_.emplace_back(&index_cache_);
    }
  }

  WitnessSearchResult Run() {
    // One worker: serial pf-DFS whose first accept is the reduced
    // answer. More: pf-DFS pilot, then a level-synchronous sweep with
    // the deterministic barrier reduction (see engine/two_phase.h).
    engine::ExecOptions run_exec = exec_;
    run_exec.num_threads = workers_;
    engine::Explorer<SearchNode>::Stats stats =
        engine::TwoPhaseExplore<SearchNode>(
            run_exec, options_.max_nodes, [this] { return MakeRoots(); },
            [this](std::unique_ptr<SearchNode> node,
                   engine::Explorer<SearchNode>::Context& ctx) {
              VisitDfs(std::move(node), ctx);
            },
            [this](std::unique_ptr<SearchNode> node,
                   engine::Explorer<SearchNode>::Context& ctx) {
              VisitLevel(std::move(node), ctx);
            },
            [this](std::vector<std::vector<SearchNode*>> batches) {
              auto start = std::chrono::steady_clock::now();
              auto frontier = ReduceLevel(std::move(batches));
              if (obs::MetricsEnabled()) {
                WitnessMetrics::Get().reduce_us->Record(static_cast<uint64_t>(
                    std::chrono::duration_cast<std::chrono::microseconds>(
                        std::chrono::steady_clock::now() - start)
                        .count()));
              }
              // The byte budget's level-mode cut point: decided at the
              // barrier over the complete reduced frontier, so the cut
              // level is schedule-independent.
              if (OverMemoryBudget()) {
                memory_truncated_.store(true, std::memory_order_relaxed);
                frontier.clear();
              }
              return frontier;
            },
            [this] { return BestSnapshot() != nullptr; },
            [this] {
              // The sweep must see a deterministic table and
              // truncation state: the pilot's partial state is
              // discarded. In compact mode the treedb resets with it —
              // the sweep re-interns from its roots, so the final node
              // count never depends on what the pilot touched.
              visited_.Clear();
              if (compact_) compact_->Clear();
              visited_bytes_.store(0, std::memory_order_relaxed);
              realization_truncated_.store(false, std::memory_order_relaxed);
              memory_truncated_.store(false, std::memory_order_relaxed);
            });
    stats.visited_bytes =
        visited_bytes_.load(std::memory_order_relaxed) + TreeDbBytes();
    stats.treedb_nodes = compact_ ? compact_->treedb.num_nodes() : 0;
    return Finalize(stats);
  }

 private:
  std::vector<std::unique_ptr<SearchNode>> MakeRoots() {
    auto root = std::make_unique<SearchNode>();
    root->state = automaton_.initial();
    root->config = initial_;
    root->depth = 0;
    // Root fresh base: above the plan's pool values and above any
    // fresh-shaped value the caller's initial instance embeds.
    root->fresh_base = plan_->factory_after_pool.counter();
    for (const Value& v : initial_.ActiveDomain()) {
      root->fresh_base =
          std::max(root->fresh_base, logic::FreshValueIndex(v) + 1);
    }
    if (compact_) {
      store::TreeDb& treedb = compact_->treedb;
      root->rel_refs.resize(schema_.num_relations());
      for (RelationId r = 0; r < schema_.num_relations(); ++r) {
        const std::vector<store::FactId>& ids = initial_.facts(r)->ids();
        root->rel_refs[r] = treedb.SetFromKeys(ids.data(), ids.size());
      }
      root->config_ref =
          treedb.InternTuple(root->rel_refs.data(), root->rel_refs.size());
      root->ref = treedb.InternPair(
          treedb.InternLeaf(static_cast<uint32_t>(root->state)),
          root->config_ref);
    }
    if (options_.use_visited_dedup) {
      // Seeding the table with the root (depth 0, empty path) makes it
      // dominate every do-nothing loop back to the initial
      // configuration outright.
      RegisterNode(*root);
    }
    std::vector<std::unique_ptr<SearchNode>> roots;
    roots.push_back(std::move(root));
    return roots;
  }

  WitnessSearchResult Finalize(
      const engine::Explorer<SearchNode>::Stats& stats) {
    WitnessSearchResult result;
    result.nodes_explored = stats.nodes_explored;
    result.exhausted_budget =
        stats.budget_exhausted ||
        realization_truncated_.load(std::memory_order_relaxed) ||
        memory_truncated_.load(std::memory_order_relaxed);
    result.cancelled = stats.cancelled;
    result.visited_bytes = stats.visited_bytes;
    result.treedb_nodes = stats.treedb_nodes;
    std::shared_ptr<const BestWitness> best = BestSnapshot();
    result.found = best != nullptr;
    if (best != nullptr) result.witness = schema::AccessPath(best->steps);
    return result;
  }

  /// Dedup entry: exact data for confirmation plus the dominance
  /// tie-breakers (depth, path content). `path` pins the chain the
  /// `links` pointers reference.
  struct VisitedEntry {
    int state;
    Instance config;
    uint32_t depth;
    std::shared_ptr<const PathLink> path;
    std::vector<const PathLink*> links;
  };

  /// A candidate access some outgoing transition admitted, built
  /// once: every transition that admits it adds a child sharing it.
  struct Admitted {
    Instance post;
    /// The parent's path extended by this access step (the step and
    /// its order key live on the link).
    std::shared_ptr<const PathLink> link;
    int64_t fresh_base;
    /// Compact mode: the delta against the parent — the accessed
    /// relation and the interned response fact ids the treedb extends
    /// the parent's set ref by.
    RelationId rel = 0;
    std::vector<store::FactId> response_ids;
  };

  /// Candidate child during expansion, before sorting: the state an
  /// admitting transition leads to and the access it admitted.
  struct Child {
    int to_state;
    uint32_t access;  // index into Expansion::admitted
  };

  /// One node's expansion, in generation order.
  struct Expansion {
    std::vector<Admitted> admitted;
    std::vector<Child> children;
    /// (candidate access, transition) decisions.
    size_t candidates = 0;
    /// Candidate accesses decided, each on one view.
    size_t accesses = 0;
    /// Guard sentences evaluated.
    size_t sentence_evals = 0;
    /// The current candidate's truth memo, one entry per plan
    /// sentence: 0 not evaluated yet, 1 false, 2 true.
    std::vector<char> memo;
  };

  static uint64_t NodeHash(int state, const Instance& config) {
    return store::Mix64(
        config.hash() ^
        store::Mix64(static_cast<uint64_t>(static_cast<unsigned>(state))));
  }

  using BestWitness = engine::BestPathTracker<schema::AccessStep>::Path;

  std::shared_ptr<const BestWitness> BestSnapshot() {
    return best_.Snapshot();
  }

  /// "existing makes candidate redundant": same exact (state, config),
  /// no deeper, and no later in path-content order. Equal
  /// configurations expand identically (configuration-derived fresh
  /// bases), so the pf-smaller, depth-no-worse twin's subtree contains
  /// the same suffixes under a smaller prefix — exploring the
  /// candidate could only rediscover pf-larger witnesses.
  static bool Dominates(const VisitedEntry& existing,
                        const VisitedEntry& candidate) {
    if (existing.state != candidate.state) return false;
    if (existing.depth > candidate.depth) return false;
    if (!(existing.config == candidate.config)) return false;
    return CmpPathKeys(existing.links, candidate.links) <= 0;
  }

  /// True when no extension of `node` can precede the current best
  /// witness (prefix-compare against it), so the subtree is redundant.
  bool PrunedByBest(const SearchNode& node) {
    return best_.Prunes(node.links);
  }

  /// Records an accepting path; keeps the content-minimal one.
  void OfferWitness(const std::vector<const PathLink*>& path) {
    best_.Offer(path);
  }

  bool AcceptHere(const SearchNode& node) {
    if (!automaton_.IsAccepting(node.state)) return false;
    if (options_.require_idempotent || options_.require_exact) {
      std::vector<schema::AccessStep> copy;
      copy.reserve(node.links.size());
      for (const PathLink* link : node.links) copy.push_back(link->step);
      schema::AccessPath path(std::move(copy));
      if (options_.require_idempotent && !path.IsIdempotent()) return false;
      if (options_.require_exact && !path.IsExact(schema_, initial_)) {
        return false;
      }
    }
    OfferWitness(node.links);
    return true;
  }

  /// Serial visitor: pf-ordered depth-first with push-time dedup.
  void VisitDfs(std::unique_ptr<SearchNode> node,
                engine::Explorer<SearchNode>::Context& ctx) {
    // The byte budget's serial cut point: checked per pop on the one
    // worker, so the cut node is deterministic.
    if (OverMemoryBudget()) {
      memory_truncated_.store(true, std::memory_order_relaxed);
      ctx.Abort();
      return;
    }
    if (PrunedByBest(*node)) return;
    if (AcceptHere(*node)) {
      // A single worker pops in exactly the reduction order, so the
      // first accepting node is the final answer — stop the drain.
      ctx.Abort();
      return;
    }
    if (node->depth >= options_.max_path_length) return;
    Expansion x = Expand(*node, ctx);
    const std::vector<Child>& children = x.children;
    // pf order: smallest child pops first. Content ties (the same
    // access step can drive a nondeterministic automaton into several
    // states) resolve accepting states first, so the first accept a
    // serial run sees is the content-minimal accepting *path*, not an
    // artifact of state numbering — the same witness the
    // level-synchronous reduction selects.
    std::vector<uint32_t> order(children.size());
    for (uint32_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](uint32_t ia, uint32_t ib) {
      const Child& a = children[ia];
      const Child& b = children[ib];
      int c = x.admitted[a.access].link->key.compare(
          x.admitted[b.access].link->key);
      if (c != 0) return c < 0;
      bool aa = automaton_.IsAccepting(a.to_state);
      bool ba = automaton_.IsAccepting(b.to_state);
      if (aa != ba) return aa;
      return a.to_state < b.to_state;
    });
    // Register in ascending key order (a same-batch twin with the
    // larger path is then dominated outright, never registered-then-
    // evicted while already queued — there is no pop-time re-check),
    // but push in descending order so the owner's LIFO pops the
    // smallest survivor first.
    std::vector<std::unique_ptr<SearchNode>> survivors;
    survivors.reserve(children.size());
    for (uint32_t i : order) {
      std::unique_ptr<SearchNode> next = MakeNode(
          *node, x.admitted[children[i].access], children[i].to_state);
      if (PrunedByBest(*next)) continue;  // see ReduceLevel: prune first
      if (options_.use_visited_dedup && !RegisterNode(*next)) continue;
      survivors.push_back(std::move(next));
    }
    for (size_t i = survivors.size(); i-- > 0;) {
      ctx.Push(std::move(survivors[i]));
    }
  }

  /// Level-mode visitor: emit every child; the barrier reduction does
  /// the deduplication and pruning over the complete batch. No
  /// best-path work-saver prune here: whether a node expands decides
  /// whether its realization-cap truncation is recorded, and a
  /// mid-level prune races the accept that published the bound — the
  /// barrier reduction prunes the same nodes deterministically one
  /// level later, keeping `exhausted_budget` schedule-independent.
  void VisitLevel(std::unique_ptr<SearchNode> node,
                  engine::Explorer<SearchNode>::Context& ctx) {
    if (AcceptHere(*node)) return;
    if (node->depth >= options_.max_path_length) return;
    Expansion x = Expand(*node, ctx);
    for (const Child& child : x.children) {
      ctx.Emit(MakeNode(*node, x.admitted[child.access], child.to_state));
    }
  }

  /// Barrier reduction via the shared striped reducer: dominance only
  /// relates nodes of equal (state, config), which always share a
  /// stripe, so stripes reduce independently and deterministically —
  /// per stripe: content-sort, dominance dedup in that order (a kept
  /// node is never evicted by a later same-depth sibling), and drop
  /// children that cannot beat the best witness known at the end of
  /// the level.
  std::vector<std::unique_ptr<SearchNode>> ReduceLevel(
      std::vector<std::vector<SearchNode*>> batches) {
    return engine::ReduceLevelByContent<SearchNode>(
        std::move(batches),
        [](const SearchNode& node) {
          return NodeHash(node.state, node.config);
        },
        [this](const SearchNode& a, const SearchNode& b) {
          int c = CmpPathKeys(a.links, b.links);
          if (c != 0) return c < 0;
          bool aa = automaton_.IsAccepting(a.state);
          bool ba = automaton_.IsAccepting(b.state);
          if (aa != ba) return aa;
          return a.state < b.state;
        },
        [this](const SearchNode& node) {
          // Best-prune *before* registering: a best-pruned node needs
          // no visited entry (anything it would dominate is itself
          // best-pruned — the bound is upward-closed in the path
          // order), and registering it would leave schedule-dependent
          // entries behind when a mid-level prune raced the accept.
          if (PrunedByBest(node)) return false;
          if (options_.use_visited_dedup && !RegisterNode(node)) return false;
          return true;
        });
  }

  /// Logical footprint of an exact entry: struct plus the owned
  /// vectors' live elements (sizes, never capacities — capacities are
  /// allocator/schedule artifacts and visited_bytes must be
  /// deterministic whenever the search is).
  /// Logical footprint of one exact entry: the struct, the path-link
  /// index, and the full materialized configuration — set headers plus
  /// every fact id (sizes, never capacities). COW sharing between
  /// entries is an allocator courtesy, not a representation guarantee,
  /// so each entry is charged its own state vector; that is precisely
  /// the representation the tree database replaces.
  static size_t EntryBytes(const VisitedEntry& entry) {
    size_t bytes = sizeof(VisitedEntry) +
                   entry.links.size() * sizeof(const PathLink*);
    for (schema::RelationId r = 0; r < entry.config.num_relations(); ++r) {
      bytes += sizeof(store::FactSet::Ptr) + sizeof(store::FactSet) +
               entry.config.facts(r)->size() * sizeof(store::FactId);
    }
    return bytes;
  }

  /// Enters a node into the visited table. Returns false when it is
  /// dominated (redundant — do not explore). Both modes maintain
  /// visited_bytes_ as the live entries' logical footprint (add on
  /// insert, subtract on evict), so the byte budget sees the table as
  /// it stands.
  bool RegisterNode(const SearchNode& node) {
    if (compact_) {
      engine::CompactEntry entry;
      entry.ref = node.ref;
      entry.depth = node.depth;
      entry.path = std::shared_ptr<const void>(node.path, node.path.get());
      bool dominated = compact_->visited.CheckAndInsert(
          std::move(entry),
          [](const engine::CompactEntry& existing,
             const engine::CompactEntry& candidate) {
            // Ref equality (checked by the table) *is* the exact
            // (state, config) identity; only the tie-breakers remain.
            if (existing.depth > candidate.depth) return false;
            return CmpChains(
                       static_cast<const PathLink*>(existing.path.get()),
                       static_cast<const PathLink*>(candidate.path.get())) <=
                   0;
          },
          [this](const engine::CompactEntry&) {
            visited_bytes_.fetch_sub(sizeof(engine::CompactEntry),
                                     std::memory_order_relaxed);
          });
      if (!dominated) {
        visited_bytes_.fetch_add(sizeof(engine::CompactEntry),
                                 std::memory_order_relaxed);
      }
      return !dominated;
    }
    VisitedEntry entry;
    entry.state = node.state;
    entry.config = node.config;
    entry.depth = node.depth;
    entry.path = node.path;
    entry.links = node.links;
    size_t entry_bytes = EntryBytes(entry);
    bool dominated = visited_.CheckAndInsert(
        NodeHash(node.state, node.config), std::move(entry), Dominates,
        [this](const VisitedEntry& evicted) {
          visited_bytes_.fetch_sub(EntryBytes(evicted),
                                   std::memory_order_relaxed);
        });
    if (!dominated) {
      visited_bytes_.fetch_add(entry_bytes, std::memory_order_relaxed);
    }
    return !dominated;
  }

  /// True once the accounted footprint (table entries plus the treedb
  /// arena in compact mode) exceeds a nonzero max_visited_bytes.
  bool OverMemoryBudget() const {
    size_t cap = exec_.max_visited_bytes;
    if (cap == 0) return false;
    size_t used = visited_bytes_.load(std::memory_order_relaxed) +
                  TreeDbBytes();
    return used > cap;
  }

  /// The treedb arena's share of visited_bytes (compact mode only).
  size_t TreeDbBytes() const {
    return compact_ ? compact_->treedb.bytes() : 0;
  }

  std::unique_ptr<SearchNode> MakeNode(const SearchNode& parent,
                                       const Admitted& access,
                                       int to_state) {
    auto next = std::make_unique<SearchNode>();
    next->state = to_state;
    next->config = access.post;
    next->depth = parent.depth + 1;
    next->fresh_base = access.fresh_base;
    next->links.reserve(parent.links.size() + 1);
    next->links = parent.links;
    next->links.push_back(access.link.get());
    next->path = access.link;
    if (compact_) {
      // Delta extension: only the accessed relation's set ref moves,
      // then the O(log R) tuple spine and the (state, config) pair
      // re-intern — the unchanged relations' subtrees are shared with
      // the parent by construction.
      store::TreeDb& treedb = compact_->treedb;
      next->rel_refs = parent.rel_refs;
      store::TreeRef set = next->rel_refs[access.rel];
      for (store::FactId f : access.response_ids) {
        set = treedb.InsertSet(set, f);
      }
      if (set != parent.rel_refs[access.rel]) {
        next->rel_refs[access.rel] = set;
        next->config_ref = treedb.UpdateTuple(
            parent.config_ref, next->rel_refs.size(), access.rel, set);
      } else {
        next->config_ref = parent.config_ref;
      }
      next->ref = treedb.InternPair(
          treedb.InternLeaf(static_cast<uint32_t>(next->state)),
          next->config_ref);
    }
    return next;
  }

  /// The node's expansion; records it.
  Expansion Expand(const SearchNode& node,
                   engine::Explorer<SearchNode>::Context& ctx) {
    Expansion x;
    x.memo.resize(plan_->sentences.size());
    Generate(node, ctx, &x);
    const WitnessMetrics& metrics = WitnessMetrics::Get();
    metrics.expansions->Inc();
    metrics.candidates->Inc(x.candidates);
    metrics.accesses->Inc(x.accesses);
    metrics.sentence_evals->Inc(x.sentence_evals);
    metrics.children->Inc(x.children.size());
    return x;
  }

  /// Builds each candidate access once — each realization of each
  /// distinct ψ+ leaving the node's state, then each pool injection —
  /// and decides the transitions that may take it (Decide).
  void Generate(const SearchNode& node,
                engine::Explorer<SearchNode>::Context& ctx, Expansion* x) {
    if (static_cast<size_t>(node.state) >= plan_->outgoing.size()) return;
    const SearchPlan::Outgoing& out =
        plan_->outgoing[static_cast<size_t>(node.state)];
    if (out.edges.empty()) return;
    store::MatchIndexCache::LocalView& view = local_views_[ctx.worker_id()];
    schema::LazyActiveDomain domain(node.config);
    for (uint32_t guard : out.guards) {
      RealizationEnumerator en(schema_, node.config, options_,
                               node.fresh_base, &view, &domain);
      for (const logic::Cq& disjunct : plan_->guards[guard].disjuncts) {
        en.ForEach(disjunct, [&](const Realization& r) -> bool {
          Decide(node, out, guard, schema::Access{r.method, r.binding},
                 r.new_fact_ids, x);
          return ctx.aborted();
        });
        if (en.truncated()) {
          realization_truncated_.store(true, std::memory_order_relaxed);
        }
        if (ctx.aborted()) return;
      }
    }
    // Speculative pool injection: reveal one canonical fact through
    // any transition (useful when the guard is permissive and a later
    // guard needs the fact in its pre-structure).
    std::vector<store::FactId> response(1);
    for (const auto& [rel, fact] : plan_->pool) {
      if (node.config.facts(rel)->Contains(fact)) continue;
      const Tuple& tuple = store::Store::Get().tuple(fact);
      response[0] = fact;
      for (schema::AccessMethodId m : schema_.methods_on(rel)) {
        const schema::AccessMethod& am = schema_.method(m);
        Tuple binding;
        for (schema::Position p : am.input_positions) {
          binding.push_back(tuple[static_cast<size_t>(p)]);
        }
        if (options_.grounded) {
          const std::set<Value>& dom = domain.get();
          bool ok = true;
          for (const Value& v : binding) {
            if (dom.count(v) == 0) {
              ok = false;
              break;
            }
          }
          if (!ok) continue;
        }
        Decide(node, out, kInjected, schema::Access{m, std::move(binding)},
               response, x);
        if (ctx.aborted()) return;
      }
    }
  }

  /// Decide's `realized` for a pool injection: no ψ+ built the access.
  static constexpr uint32_t kInjected = ~uint32_t{0};

  /// Guard first, post later, once per access: decides one candidate
  /// access for every transition in `out` that may take it — those
  /// whose ψ+ is `realized` when the access realizes that guard (ψ+
  /// then holds by construction; only ψ− is checked), every one for a
  /// pool injection — on one pre+response view
  /// (logic::CandidateView), evaluating each plan sentence at most
  /// once. The post-instance, step, order key and fresh base are built
  /// once, if some transition admits the access.
  void Decide(const SearchNode& node, const SearchPlan::Outgoing& out,
              uint32_t realized, schema::Access access,
              const std::vector<store::FactId>& response_ids,
              Expansion* x) {
    // Result-bounded method: a response larger than the bound is not a
    // behaviour of the access interface, whichever path proposed it
    // (guard realization or speculative pool injection). Bound 0
    // rejects every non-empty response.
    const schema::AccessMethod& am = schema_.method(access.method);
    if (am.bounded() &&
        response_ids.size() > static_cast<size_t>(am.result_bound)) {
      return;
    }
    ++x->accesses;
    std::fill(x->memo.begin(), x->memo.end(), 0);
    std::optional<logic::CandidateView> view;
    auto holds = [&](uint32_t sentence) {
      char& truth = x->memo[sentence];
      if (truth == 0) {
        if (!view) view.emplace(schema_, node.config, access, response_ids);
        truth = plan_->sentences[sentence].Eval(*view) ? 2 : 1;
        ++x->sentence_evals;
      }
      return truth == 2;
    };
    const uint32_t index = static_cast<uint32_t>(x->admitted.size());
    const size_t first = x->children.size();
    for (uint32_t e : out.edges) {
      const SearchPlan::Edge& edge = plan_->edges[e];
      if (realized != kInjected && edge.guard != realized) continue;
      ++x->candidates;
      bool admits = true;
      if (realized == kInjected && !plan_->trivially_positive[edge.guard]) {
        for (uint32_t s : edge.positive) {
          if (!holds(s)) {
            admits = false;
            break;
          }
        }
      }
      for (size_t i = 0; admits && i < edge.negative.size(); ++i) {
        admits = !holds(edge.negative[i]);
      }
      if (admits) x->children.push_back(Child{edge.to, index});
    }
    if (x->children.size() == first) return;
    view.reset();  // it reads `access`, which moves below
    schema::Transition t = schema::MakeTransitionFromIds(
        schema_, node.config, std::move(access), response_ids);
    Admitted admitted;
    admitted.post = std::move(t.post);
    schema::AccessStep step{std::move(t.access), std::move(t.response)};
    // Incremental configuration-derived fresh base: the parent's base
    // already covers its configuration; only the response's values can
    // raise it.
    admitted.fresh_base = node.fresh_base;
    for (const Tuple& tuple : step.response) {
      for (const Value& v : tuple) {
        admitted.fresh_base =
            std::max(admitted.fresh_base, logic::FreshValueIndex(v) + 1);
      }
    }
    if (compact_) {
      admitted.rel = am.relation;
      admitted.response_ids = response_ids;
    }
    std::string key = schema::StepOrderKey(step);
    auto link = std::make_shared<PathLink>();
    link->parent = node.path;
    link->step = std::move(step);
    link->key = std::move(key);
    admitted.link = std::move(link);
    x->admitted.push_back(std::move(admitted));
  }

  const AAutomaton& automaton_;
  const schema::Schema& schema_;
  const WitnessSearchOptions& options_;
  engine::ExecOptions exec_;
  const Instance& initial_;
  std::shared_ptr<const SearchPlan> plan_;
  size_t workers_;

  store::MatchIndexCache index_cache_;
  std::vector<store::MatchIndexCache::LocalView> local_views_;
  engine::ShardedVisitedTable<VisitedEntry> visited_{256};
  std::atomic<bool> realization_truncated_{false};

  /// Compact-mode storage (see engine/cancel.h VisitedMode), engaged
  /// only under kCompact: the tree-compressed configuration database
  /// plus the fixed-slot visited table. visited_bytes_ tracks the live
  /// entries' logical footprint in *either* mode; memory_truncated_
  /// latches a byte-budget cut (reported as exhausted_budget).
  std::optional<engine::CompactSearchStorage> compact_;
  std::atomic<size_t> visited_bytes_{0};
  std::atomic<bool> memory_truncated_{false};

  engine::BestPathTracker<schema::AccessStep> best_;
};

}  // namespace

WitnessSearchResult BoundedWitnessSearch(const AAutomaton& automaton,
                                         const schema::Schema& schema,
                                         const schema::Instance& initial,
                                         const WitnessSearchOptions& options,
                                         const engine::ExecOptions& exec) {
  Search search(automaton, schema, options, exec, initial);
  return search.Run();
}

}  // namespace automata
}  // namespace accltl
