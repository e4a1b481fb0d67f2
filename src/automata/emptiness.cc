#include "src/automata/emptiness.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/engine/explorer.h"
#include "src/engine/path_link.h"
#include "src/engine/two_phase.h"
#include "src/engine/visited_store.h"
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
using logic::PredSpace;
using schema::AccessMethodId;
using schema::Instance;
using schema::RelationId;

}  // namespace

/// One way to realize a guard disjunct as a concrete access: an access
/// method, plus the choice of which post atoms denote newly returned
/// facts (the rest, and every pre atom, must match revealed facts).
/// BuildPlan compiles one per (disjunct, method, post-subset mask) that
/// can hold; a search runs it on a node (RealizationMatcher).
///
/// The match phase is an entry of SearchPlan::match, shared by the
/// realizers of one (disjunct, post-subset mask): the conjunction of
/// the pre atoms and the post atoms matched against revealed facts, in
/// written order, joined over the configuration by
/// logic::CompiledFormula. The finish phase instantiates the binding and
/// the new facts (drawing fresh values in the order the atoms list
/// them), then checks agreement and the inequalities. Its variables and
/// constants are slots, numbered once per disjunct: variables
/// [0, num_vars), then constant k at num_vars + k. The operands live in
/// the plan's shared pools; a realizer holds ranges into them. The
/// method's input positions and the relation's position types are read
/// from the schema, which SearchPlan::BuiltFor ties to the one the plan
/// was compiled for.
struct Realizer {
  AccessMethodId method = 0;
  /// Its match phase: SearchPlan::match's entry.
  uint32_t entry = 0;
  uint32_t num_vars = 0;
  /// SearchPlan::constants[constants_begin, +num_constants).
  uint32_t constants_begin = 0;
  uint32_t num_constants = 0;
  /// From SearchPlan::slots[slots_begin]: the variables a complete
  /// match binds, as (slot, SearchPlan::match slot) pairs; then the
  /// full-arity IsBind atoms, one row of num_inputs slots each; then
  /// the post atoms denoting new facts, one row of arity slots each;
  /// then the inequalities, as slot pairs.
  uint32_t slots_begin = 0;
  uint16_t num_matched = 0;
  uint16_t num_bind = 0;
  uint16_t num_new = 0;
  uint16_t num_neqs = 0;

  uint32_t num_slots() const { return num_vars + num_constants; }
};

/// The search-independent compilation of an automaton: the realization
/// programs and sentence table of its guards, and the speculative fact
/// pool. Building it costs UCQ normalization, sentence compilation and
/// freezing per guard, so the automaton owns it (PlanFor). External
/// linkage: a_automaton.h forward-declares it.
struct SearchPlan {
  /// Per distinct positive guard (transitions whose ψ+ has the same
  /// sentences share one — a compiled tableau repeats each literal set
  /// on many edges): it has a trivially-true disjunct (no atoms, no
  /// inequalities), so ψ+ holds on *every* transition and pool
  /// injection only needs to check ψ−.
  std::vector<bool> trivially_positive;
  /// The realization programs: guard g's UCQ disjuncts are
  /// [guard_disjuncts[g], guard_disjuncts[g + 1]), and disjunct d's
  /// programs are realizers[disjunct_realizers[d],
  /// disjunct_realizers[d + 1]), in (method, post-subset mask) order.
  std::vector<uint32_t> guard_disjuncts;
  std::vector<uint32_t> disjunct_realizers;
  std::vector<Realizer> realizers;
  /// The realizers' match phases, one entry per (disjunct, post-subset
  /// mask). One program for the plan keeps a prepared automaton small.
  logic::CompiledFormula match;
  /// The finish phases' operand pool, and the disjuncts' constants.
  std::vector<uint32_t> slots;
  std::vector<Value> constants;
  /// The distinct guard sentences, each compiled once and keyed by
  /// formula identity: every Guard::PositiveSentences() part and every
  /// γ of every ψ−. A compiled tableau reuses a few atoms on many
  /// edges, so a search decides a candidate access with at most this
  /// many evaluations.
  std::vector<logic::CompiledFormula> sentences;
  /// One transition as the search decides it.
  struct Edge {
    int to = 0;
    /// Its distinct positive guard.
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
    /// The distinct guards among them, in first-appearance order.
    std::vector<uint32_t> guards;
  };
  /// Per source state.
  std::vector<Outgoing> outgoing;
  /// One speculative pool injection: reveal a canonical fact through a
  /// method on its relation (the binding is read off the fact). In pool
  /// order, then the relation's method order.
  struct Injection {
    RelationId relation = 0;
    store::FactId fact = store::kNoFactId;
    AccessMethodId method = 0;
  };
  std::vector<Injection> injections;
  /// Factory state after pool freezing: searches must continue the
  /// fresh-value sequence to avoid colliding with pool values.
  logic::FreshValueFactory factory_after_pool;
  /// All the build read of the schema: the position types of every
  /// relation it froze facts of or realizes accesses to, and every
  /// method's (relation, input positions).
  std::vector<std::pair<RelationId, std::vector<ValueType>>> read_types;
  std::vector<std::pair<RelationId, std::vector<schema::Position>>>
      read_methods;

  /// True when `schema` agrees with the build's schema on everything
  /// the build read, so the plan is the one `schema` would give.
  bool BuiltFor(const schema::Schema& schema) const {
    for (const auto& [rel, types] : read_types) {
      if (rel >= schema.num_relations() ||
          schema.relation(rel).position_types != types) {
        return false;
      }
    }
    if (static_cast<size_t>(schema.num_access_methods()) !=
        read_methods.size()) {
      return false;
    }
    for (size_t m = 0; m < read_methods.size(); ++m) {
      const schema::AccessMethod& am =
          schema.method(static_cast<AccessMethodId>(m));
      if (am.relation != read_methods[m].first ||
          am.input_positions != read_methods[m].second) {
        return false;
      }
    }
    return true;
  }
};

namespace {

/// The slot numbering of one disjunct: variables in first-occurrence
/// order, then its constants (appended to the plan's pool).
struct DisjunctSlots {
  std::map<std::string, uint32_t> vars;
  std::map<Value, uint32_t> consts;
  uint32_t constants_begin = 0;

  uint32_t operator()(const logic::Term& t) const {
    return t.is_var() ? vars.at(t.var_name())
                      : static_cast<uint32_t>(vars.size()) +
                            consts.at(t.value());
  }
};

/// What compiling the realizers leaves for BuildPlan: their match
/// conjunctions, compiled into SearchPlan::match once the pool is
/// interned (so the pool's constants get store ids at compile time),
/// and the SearchPlan::slots entries that await a matched variable's
/// slot in that program.
struct MatchBuild {
  std::vector<logic::PosFormulaPtr> entries;
  std::vector<std::pair<uint32_t, std::string>> var_slots;
};

/// Compiles one realization program: `m` realizes the disjunct, matching
/// `to_match` against revealed facts (match entry `entry`) and
/// instantiating `as_new` as the response (see Realizer).
Realizer CompileRealizer(const DisjunctSlots& slot, AccessMethodId m,
                         const std::vector<const CqAtom*>& to_match,
                         uint32_t entry,
                         const std::vector<const CqAtom*>& as_new,
                         const std::vector<const CqAtom*>& bind,
                         const std::vector<std::pair<logic::Term,
                                                     logic::Term>>& neqs,
                         const schema::Schema& schema, SearchPlan* plan,
                         MatchBuild* build) {
  const schema::AccessMethod& am = schema.method(m);
  Realizer r;
  r.method = m;
  r.entry = entry;
  r.num_vars = static_cast<uint32_t>(slot.vars.size());
  r.constants_begin = slot.constants_begin;
  r.num_constants = static_cast<uint32_t>(slot.consts.size());
  std::vector<bool> bound(r.num_vars, false);
  for (const CqAtom* a : to_match) {
    for (const logic::Term& t : a->terms) {
      if (t.is_var()) bound[slot(t)] = true;
    }
  }
  std::vector<uint32_t>& slots = plan->slots;
  r.slots_begin = static_cast<uint32_t>(slots.size());
  for (const auto& [name, s] : slot.vars) {
    if (!bound[s]) continue;
    slots.push_back(s);
    build->var_slots.emplace_back(static_cast<uint32_t>(slots.size()), name);
    slots.push_back(0);
    ++r.num_matched;
  }
  // 0-ary IsBind atoms (the Sch0−Acc abstraction) constrain only the
  // method, not the binding values: only full-arity ones bind.
  for (const CqAtom* b : bind) {
    if (static_cast<int>(b->terms.size()) != am.num_inputs() ||
        b->terms.empty()) {
      continue;
    }
    ++r.num_bind;
    for (const logic::Term& t : b->terms) slots.push_back(slot(t));
  }
  for (const CqAtom* a : as_new) {
    ++r.num_new;
    for (const logic::Term& t : a->terms) slots.push_back(slot(t));
  }
  for (const auto& [l, rt] : neqs) {
    ++r.num_neqs;
    slots.push_back(slot(l));
    slots.push_back(slot(rt));
  }
  return r;
}

/// Compiles a guard disjunct's realization programs into the plan: one
/// per access method the disjunct allows and per subset of its post
/// atoms (all of the method's relation) taken as newly returned facts.
void CompileRealizers(const Cq& d, const schema::Schema& schema,
                      SearchPlan* plan, MatchBuild* build) {
  std::vector<const CqAtom*> pre, post, bind;
  for (const CqAtom& a : d.atoms) {
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
        return;  // not a transition formula
    }
  }
  // All bind atoms must agree on the method (a transition has one).
  std::optional<AccessMethodId> method;
  for (const CqAtom* b : bind) {
    if (method.has_value() && *method != b->pred.id) return;
    method = b->pred.id;
  }
  DisjunctSlots slot;
  slot.constants_begin = static_cast<uint32_t>(plan->constants.size());
  auto note = [&](const logic::Term& t) {
    if (t.is_var()) {
      uint32_t next = static_cast<uint32_t>(slot.vars.size());
      slot.vars.emplace(t.var_name(), next);
      return;
    }
    uint32_t next = static_cast<uint32_t>(slot.consts.size());
    if (slot.consts.emplace(t.value(), next).second) {
      plan->constants.push_back(t.value());
    }
  };
  for (const CqAtom& a : d.atoms) {
    for (const logic::Term& t : a.terms) note(t);
  }
  for (const auto& [l, rt] : d.neqs) {
    note(l);
    note(rt);
  }
  // The atoms as formulas, built once for all of the disjunct's
  // realizers. Pre atoms and post atoms mapped to revealed facts both
  // match the configuration (RealizationMatcher's view).
  auto formulas = [](const std::vector<const CqAtom*>& atoms) {
    std::vector<logic::PosFormulaPtr> out;
    for (const CqAtom* a : atoms) {
      out.push_back(logic::PosFormula::MakeAtom(a->pred, a->terms));
    }
    return out;
  };
  const std::vector<logic::PosFormulaPtr> pre_formulas = formulas(pre);
  const std::vector<logic::PosFormulaPtr> post_formulas = formulas(post);
  // Per mask, its match entry once some method realizes it.
  std::vector<int64_t> entries(size_t{1} << post.size(), -1);
  AccessMethodId first = method.value_or(0);
  AccessMethodId last =
      method.has_value() ? *method + 1 : schema.num_access_methods();
  for (AccessMethodId m = first; m < last; ++m) {
    // Post atoms can also map to already-revealed facts; mapping to
    // *other* new facts is covered by putting both atoms in the new
    // set.
    RelationId target = schema.method(m).relation;
    for (size_t mask = 0; mask < (size_t{1} << post.size()); ++mask) {
      // Matched in written order: the pre atoms, then the post atoms
      // mapped to revealed facts.
      std::vector<const CqAtom*> to_match = pre, as_new;
      std::vector<logic::PosFormulaPtr> conjuncts = pre_formulas;
      bool ok = true;
      for (size_t i = 0; i < post.size() && ok; ++i) {
        if ((mask >> i & 1) == 0) {
          to_match.push_back(post[i]);
          conjuncts.push_back(post_formulas[i]);
        } else if (post[i]->pred.id == target) {
          as_new.push_back(post[i]);
        } else {
          ok = false;
        }
      }
      if (!ok) continue;
      if (entries[mask] < 0) {
        entries[mask] = static_cast<int64_t>(build->entries.size());
        build->entries.push_back(logic::PosFormula::And(std::move(conjuncts)));
      }
      plan->realizers.push_back(CompileRealizer(
          slot, m, to_match, static_cast<uint32_t>(entries[mask]), as_new,
          bind, d.neqs, schema, plan, build));
    }
  }
}

std::shared_ptr<const SearchPlan> BuildPlan(const AAutomaton& automaton,
                                            const schema::Schema& schema) {
  obs::Span span("prepare-plan");
  WitnessMetrics::Get().plan_builds->Inc();
  auto plan = std::make_shared<SearchPlan>();
  // Compile each distinct sentence once, and each distinct ψ+ (by its
  // sentence ids) into its UCQ's realization programs once.
  std::vector<logic::Ucq> guards;
  MatchBuild match;
  std::map<std::vector<uint32_t>, uint32_t> distinct;
  std::map<const logic::PosFormula*, uint32_t> sentence_ids;
  auto sentence = [&](const logic::PosFormulaPtr& f) {
    auto [it, fresh] = sentence_ids.emplace(
        f.get(), static_cast<uint32_t>(plan->sentences.size()));
    if (fresh) plan->sentences.emplace_back(f);
    return it->second;
  };
  plan->guard_disjuncts.push_back(0);
  plan->disjunct_realizers.push_back(0);
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
        edge.positive, static_cast<uint32_t>(guards.size()));
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
    guards.push_back(ucq.ok() ? ucq.value() : logic::Ucq{});
    // Degenerate case: TRUE normalizes to one empty disjunct.
    if (pos->kind() == logic::NodeKind::kTrue) {
      logic::Ucq truth;
      truth.disjuncts.push_back(logic::Cq{});
      guards.back() = truth;
    }
    bool trivial = false;
    for (const logic::Cq& d : guards.back().disjuncts) {
      if (d.atoms.empty() && d.neqs.empty()) trivial = true;
      CompileRealizers(d, schema, plan.get(), &match);
      plan->disjunct_realizers.push_back(
          static_cast<uint32_t>(plan->realizers.size()));
    }
    plan->trivially_positive.push_back(trivial);
    plan->guard_disjuncts.push_back(
        static_cast<uint32_t>(plan->disjunct_realizers.size() - 1));
  }
  // Speculative fact pool: canonical (frozen) facts of every guard
  // disjunct. Guards often require facts in their *pre* structure
  // that only an earlier, unconstrained access can reveal; injecting
  // pool facts through permissive transitions realizes such paths.
  // Freezing runs per transition, shared guards included, so every
  // transition's guard contributes its own fresh facts.
  logic::FreshValueFactory factory;
  std::set<RelationId> read;
  std::vector<std::pair<RelationId, store::FactId>> pool;
  for (const SearchPlan::Edge& edge : plan->edges) {
    for (const logic::Cq& d : guards[edge.guard].disjuncts) {
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
          if (pool.size() >= 64) break;
          // Interned once here; every Contains check during the
          // search is then a binary search over fact ids.
          pool.emplace_back(pred.id, store::Store::Get().InternTuple(t));
        }
      }
    }
  }
  plan->factory_after_pool = factory;
  plan->match = logic::CompiledFormula::Entries(match.entries);
  for (const auto& [at, name] : match.var_slots) {
    plan->slots[at] = static_cast<uint32_t>(plan->match.FreeSlot(name));
  }
  // Each pool fact through each method on its relation.
  for (const auto& [rel, fact] : pool) {
    for (AccessMethodId m : schema.methods_on(rel)) {
      plan->injections.push_back(SearchPlan::Injection{rel, fact, m});
    }
  }
  for (AccessMethodId m = 0; m < schema.num_access_methods(); ++m) {
    const schema::AccessMethod& am = schema.method(m);
    plan->read_methods.emplace_back(am.relation, am.input_positions);
    read.insert(am.relation);
  }
  for (RelationId rel : read) {
    plan->read_types.emplace_back(rel, schema.relation(rel).position_types);
  }
  // A prepared automaton keeps its plan for life: drop the growth slack.
  plan->realizers.shrink_to_fit();
  plan->slots.shrink_to_fit();
  plan->constants.shrink_to_fit();
  plan->injections.shrink_to_fit();
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

/// The node's configuration as the realizers' match phases read it:
/// pre atoms, and post atoms mapped to revealed facts, both range over
/// the configuration; a bound position selects facts through the
/// worker's memoized match index (COW sharing keeps it valid across
/// every node sharing the relation).
class ConfigView : public logic::StructureView {
 public:
  ConfigView(const Instance& config, store::MatchIndexCache::LocalView* index)
      : config_(config), index_(index) {}

  store::TupleRange GetTuples(const logic::PredicateRef& pred) const override {
    if (pred.space != PredSpace::kPre && pred.space != PredSpace::kPost) {
      return store::TupleRange();
    }
    return config_.tuples(pred.id);
  }

  const std::vector<store::FactId>* FactIdIndex(
      const logic::PredicateRef& pred, int position,
      store::ValueId v) const override {
    static const std::vector<store::FactId> kNone;
    // A never-interned value is in no fact.
    if (v == store::kNoValueId) return &kNone;
    return &index_->Lookup(config_.facts(pred.id), position, v);
  }

 private:
  const Instance& config_;
  store::MatchIndexCache::LocalView* index_;
};

/// Runs a plan's realization programs on one node: streams each
/// program's matches over the node's configuration, instantiates every
/// complete match (binding, new facts, fresh values from the node's
/// base) and emits the accesses that pass the binding agreement,
/// grounding and inequality checks. Works on the caller's scratch, so
/// rejected matches allocate nothing; only an emitted realization
/// interns its new facts.
class RealizationMatcher {
 public:
  /// Buffers reused across every program run of an expansion.
  struct Scratch {
    /// Slot values (null: unbound), the fresh values drawn, the binding
    /// and the new facts' values.
    std::vector<const Value*> values;
    std::vector<Value> fresh;
    std::vector<const Value*> binding;
    std::vector<const Value*> new_values;
    /// The emitted access and its interned response.
    Tuple tuple;
    schema::Access access;
    std::vector<store::FactId> response_ids;
  };

  RealizationMatcher(const SearchPlan& plan, const schema::Schema& schema,
                     const Instance& config, int64_t fresh_base,
                     const WitnessSearchOptions& options,
                     store::MatchIndexCache::LocalView* index,
                     schema::LazyActiveDomain* domain, Scratch* scratch)
      : plan_(plan),
        schema_(schema),
        view_(config, index),
        fresh_base_(fresh_base),
        options_(options),
        domain_(domain),
        sc_(*scratch),
        store_(store::Store::Get()) {}

  /// Starts a guard: max_realizations_per_step counts per disjunct, and
  /// once it cuts a disjunct the guard's remaining ones emit nothing.
  void StartGuard() { truncated_ = false; }
  /// True when max_realizations_per_step suppressed a complete match of
  /// the current guard: the step is not exhaustive.
  bool truncated() const { return truncated_; }

  /// Runs disjunct `d`'s programs in order, calling
  /// `emit(access, response_ids)` per realization; true when `emit`
  /// asked to stop.
  template <typename Emit>
  bool RunDisjunct(uint32_t d, const Emit& emit) {
    emitted_ = 0;
    for (uint32_t i = plan_.disjunct_realizers[d];
         i < plan_.disjunct_realizers[d + 1] && !truncated_; ++i) {
      const Realizer& r = plan_.realizers[i];
      auto match = [&](const store::ValueId* ids) {
        if (emitted_ >= options_.max_realizations_per_step) {
          // The cap is suppressing a complete match: the step is
          // non-exhaustive from here on.
          truncated_ = true;
          return true;
        }
        return Finish(r, ids, emit);
      };
      if (plan_.match.Stream(view_, r.entry, match)) return !truncated_;
    }
    return false;
  }

 private:
  /// Instantiates a complete match of `r` (`ids`: the match program's
  /// slots); emits it when every check passes.
  template <typename Emit>
  bool Finish(const Realizer& r, const store::ValueId* ids,
              const Emit& emit) {
    const schema::AccessMethod& am = schema_.method(r.method);
    const std::vector<schema::Position>& inputs = am.input_positions;
    const std::vector<ValueType>& types =
        schema_.relation(am.relation).position_types;
    const size_t num_inputs = inputs.size();
    const size_t arity = types.size();
    auto input_type = [&](size_t i) {
      return types[static_cast<size_t>(inputs[i])];
    };
    const uint32_t* slots = plan_.slots.data() + r.slots_begin;
    std::vector<const Value*>& values = sc_.values;
    values.assign(r.num_slots(), nullptr);
    for (uint32_t k = 0; k < r.num_matched; ++k, slots += 2) {
      values[slots[0]] = &store_.value(ids[slots[1]]);
    }
    for (uint32_t k = 0; k < r.num_constants; ++k) {
      values[r.num_vars + k] = &plan_.constants[r.constants_begin + k];
    }
    // Every candidate draws fresh values from the node's base (a
    // function of the node's configuration), so a realization's fresh
    // values depend only on the node and the candidate itself — never
    // on how many sibling candidates were enumerated before it. That
    // makes the child *set* independent of enumeration order, hence of
    // the global fact-interning order and the worker schedule; and it
    // makes equal configurations expand to content-identical subtrees,
    // which is what lets the visited table transfer subtrees between
    // path-equivalent nodes.
    logic::FreshValueFactory factory =
        logic::FreshValueFactory::StartingAt(fresh_base_);
    std::vector<Value>& fresh = sc_.fresh;
    fresh.clear();
    // At most one fresh value per variable, plus a free access's
    // binding; the pointers into `fresh` must not move.
    fresh.reserve(r.num_vars + num_inputs);
    auto draw = [&](ValueType type) {
      fresh.push_back(factory.Fresh(type));
      return &fresh.back();
    };
    // Slot value: bound, constant, or (when allowed) fresh.
    auto resolve = [&](uint32_t s, ValueType type,
                       bool allow_fresh) -> const Value* {
      if (values[s] == nullptr && allow_fresh) values[s] = draw(type);
      return values[s];
    };
    std::vector<const Value*>& binding = sc_.binding;
    binding.clear();
    // Binding first: bind-atom terms; grounded mode forbids fresh
    // values in bindings. Further bind atoms (same method) must agree.
    for (uint32_t b = 0; b < r.num_bind; ++b) {
      for (size_t i = 0; i < num_inputs; ++i) {
        const Value* v =
            resolve(slots[i], input_type(i), !options_.grounded);
        if (v == nullptr) return false;
        if (b == 0) {
          binding.push_back(v);
        } else if (*v != *binding[i]) {
          return false;
        }
      }
      slots += num_inputs;
    }
    // New facts. When the binding is already fixed (bind atoms), the
    // response must agree with it on input positions — propagate the
    // binding into unbound variables there instead of inventing fresh
    // values that could never agree.
    std::vector<const Value*>& new_values = sc_.new_values;
    new_values.clear();
    for (uint32_t a = 0; a < r.num_new; ++a) {
      if (!binding.empty()) {
        for (size_t i = 0; i < num_inputs; ++i) {
          const Value*& v = values[slots[static_cast<size_t>(inputs[i])]];
          if (v == nullptr) v = binding[i];
        }
      }
      for (size_t p = 0; p < arity; ++p) {
        new_values.push_back(resolve(slots[p], types[p], true));
      }
      slots += arity;
    }
    // Derive or check the binding from the new facts.
    if (r.num_bind == 0) {
      if (r.num_new > 0) {
        for (schema::Position p : inputs) {
          binding.push_back(new_values[static_cast<size_t>(p)]);
        }
      } else {
        // Free access: pick deterministic binding values.
        for (size_t i = 0; i < num_inputs; ++i) {
          const Value* v = nullptr;
          if (options_.grounded) {
            for (const Value& cand : domain_->get()) {
              if (cand.type() == input_type(i)) {
                v = &cand;
                break;
              }
            }
            // Grounded and nothing to enter into the form.
            if (v == nullptr) return false;
          } else {
            v = draw(input_type(i));
          }
          binding.push_back(v);
        }
      }
      if (options_.grounded) {
        const std::set<Value>& dom = domain_->get();
        for (const Value* v : binding) {
          if (dom.count(*v) == 0) return false;
        }
      }
    }
    // Responses must agree with the binding on input positions.
    for (uint32_t a = 0; a < r.num_new; ++a) {
      const Value* const* fact = new_values.data() + a * arity;
      for (size_t i = 0; i < num_inputs; ++i) {
        if (*fact[static_cast<size_t>(inputs[i])] != *binding[i]) {
          return false;
        }
      }
    }
    // Inequalities of the disjunct.
    for (uint32_t k = 0; k < r.num_neqs; ++k, slots += 2) {
      const Value* l = values[slots[0]];
      const Value* rt = values[slots[1]];
      if (l == nullptr || rt == nullptr || *l == *rt) return false;
    }
    // Intern only on emit: rejected candidates (binding disagreement,
    // inequalities) must not grow the append-only global store.
    sc_.response_ids.clear();
    for (uint32_t a = 0; a < r.num_new; ++a) {
      sc_.tuple.clear();
      for (size_t p = 0; p < arity; ++p) {
        sc_.tuple.push_back(*new_values[a * arity + p]);
      }
      sc_.response_ids.push_back(
          store::Store::Get().InternTuple(sc_.tuple));
    }
    sc_.access.method = r.method;
    sc_.access.binding.clear();
    for (const Value* v : binding) sc_.access.binding.push_back(*v);
    ++emitted_;
    return emit(sc_.access, sc_.response_ids);
  }

  const SearchPlan& plan_;
  const schema::Schema& schema_;
  const ConfigView view_;
  const int64_t fresh_base_;
  const WitnessSearchOptions& options_;
  schema::LazyActiveDomain* domain_;
  Scratch& sc_;
  const store::Store& store_;
  size_t emitted_ = 0;
  bool truncated_ = false;
};

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
  /// pair(state, config_ref) and the configuration's refs, which
  /// children extend as a delta (store::ExtendConfigRefs).
  store::TreeRef ref = store::kNilTreeRef;
  store::ConfigRefs refs;
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
        workers_(std::max<size_t>(1, exec.num_threads)),
        visited_(exec, 256) {
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
              if (visited_.OverBudget()) frontier.clear();
              return frontier;
            },
            [this] { return BestSnapshot() != nullptr; },
            [this] {
              // The sweep must see a deterministic table and
              // truncation state: the pilot's partial state is
              // discarded.
              visited_.Clear();
              realization_truncated_.store(false, std::memory_order_relaxed);
            });
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
    if (store::TreeDb* treedb = visited_.treedb()) {
      root->refs = store::FoldConfigRefs(
          treedb, schema_.num_relations(),
          [this](size_t r) -> const std::vector<store::FactId>& {
            return initial_.facts(static_cast<RelationId>(r))->ids();
          });
      root->ref = treedb->InternPair(
          treedb->InternLeaf(static_cast<uint32_t>(root->state)),
          root->refs.config_ref);
    }
    // Seeding the table with the root (depth 0, empty path) makes it
    // dominate every do-nothing loop back to the initial configuration
    // outright.
    visited_.Register(*root);
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
        visited_.truncated();
    result.cancelled = stats.cancelled;
    result.visited_bytes = visited_.bytes();
    result.treedb_nodes = visited_.treedb_nodes();
    std::shared_ptr<const BestWitness> best = BestSnapshot();
    result.found = best != nullptr;
    if (best != nullptr) result.witness = schema::AccessPath(best->steps);
    return result;
  }

  /// Exact-mode dedup entry (engine::VisitedStore): exact data for
  /// confirmation plus the dominance tie-breakers (depth, path
  /// content). `path` pins the chain the `links` pointers reference.
  struct VisitedEntry {
    explicit VisitedEntry(const SearchNode& node)
        : state(node.state),
          config(node.config),
          depth(node.depth),
          path(node.path),
          links(node.links) {}

    uint64_t Hash() const { return NodeHash(state, config); }

    /// "existing makes candidate redundant": same exact (state,
    /// config), no deeper, and no later in path-content order. Equal
    /// configurations expand identically (configuration-derived fresh
    /// bases), so the pf-smaller, depth-no-worse twin's subtree
    /// contains the same suffixes under a smaller prefix — exploring
    /// the candidate could only rediscover pf-larger witnesses.
    static bool Dominates(const VisitedEntry& existing,
                          const VisitedEntry& candidate) {
      if (existing.state != candidate.state) return false;
      if (existing.depth > candidate.depth) return false;
      if (!(existing.config == candidate.config)) return false;
      return CmpPathKeys(existing.links, candidate.links) <= 0;
    }

    /// Logical footprint: the struct, the path-link index, and the
    /// full materialized configuration — set headers plus every fact
    /// id (sizes, never capacities). COW sharing between entries is an
    /// allocator courtesy, not a representation guarantee, so each
    /// entry is charged its own state vector; that is precisely the
    /// representation the tree database replaces.
    size_t Bytes() const {
      size_t bytes =
          sizeof(VisitedEntry) + links.size() * sizeof(const PathLink*);
      for (schema::RelationId r = 0; r < config.num_relations(); ++r) {
        bytes += sizeof(store::FactSet::Ptr) + sizeof(store::FactSet) +
                 config.facts(r)->size() * sizeof(store::FactId);
      }
      return bytes;
    }

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
    /// The candidate view's buffer, the realization programs' buffers,
    /// and a pool injection's access and one-fact response.
    std::vector<store::FactId> view_ids;
    RealizationMatcher::Scratch realize;
    schema::Access injected_access;
    std::vector<store::FactId> injected;
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
    if (visited_.OverBudget()) {
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
      if (!visited_.Register(*next)) continue;
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
          return visited_.Register(node);
        });
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
    if (store::TreeDb* treedb = visited_.treedb()) {
      next->refs = store::ExtendConfigRefs(treedb, parent.refs, access.rel,
                                           access.response_ids);
      next->ref = treedb->InternPair(
          treedb->InternLeaf(static_cast<uint32_t>(next->state)),
          next->refs.config_ref);
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
    schema::LazyActiveDomain domain(node.config);
    RealizationMatcher matcher(*plan_, schema_, node.config, node.fresh_base,
                               options_, &local_views_[ctx.worker_id()],
                               &domain, &x->realize);
    for (uint32_t guard : out.guards) {
      auto emit = [&](const schema::Access& access,
                      const std::vector<store::FactId>& response_ids) {
        Decide(node, out, guard, access, response_ids, x);
        return ctx.aborted();
      };
      matcher.StartGuard();
      for (uint32_t d = plan_->guard_disjuncts[guard];
           d < plan_->guard_disjuncts[guard + 1]; ++d) {
        matcher.RunDisjunct(d, emit);
        if (matcher.truncated()) {
          realization_truncated_.store(true, std::memory_order_relaxed);
        }
        if (ctx.aborted()) return;
      }
    }
    // Speculative pool injection: reveal one canonical fact through
    // any transition (useful when the guard is permissive and a later
    // guard needs the fact in its pre-structure).
    schema::Access& access = x->injected_access;
    x->injected.resize(1);
    for (const SearchPlan::Injection& injection : plan_->injections) {
      if (node.config.facts(injection.relation)->Contains(injection.fact)) {
        continue;
      }
      const Tuple& tuple = store::Store::Get().tuple(injection.fact);
      access.method = injection.method;
      access.binding.clear();
      bool ok = true;
      const schema::AccessMethod& am = schema_.method(injection.method);
      for (schema::Position p : am.input_positions) {
        const Value& v = tuple[static_cast<size_t>(p)];
        if (options_.grounded && domain.get().count(v) == 0) {
          ok = false;
          break;
        }
        access.binding.push_back(v);
      }
      if (!ok) continue;
      x->injected[0] = injection.fact;
      Decide(node, out, kInjected, access, x->injected, x);
      if (ctx.aborted()) return;
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
              uint32_t realized, const schema::Access& access,
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
        if (!view) {
          view.emplace(schema_, node.config, access, response_ids,
                       &x->view_ids);
        }
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
    schema::Transition t = schema::MakeTransitionFromIds(
        schema_, node.config, access, response_ids);
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
    if (visited_.treedb() != nullptr) {
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
  /// Exact records or tree-compressed refs (engine/cancel.h
  /// VisitedMode), their byte accounting, and the byte-budget cut
  /// (reported as exhausted_budget).
  engine::VisitedStore<VisitedEntry> visited_;
  std::atomic<bool> realization_truncated_{false};

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
