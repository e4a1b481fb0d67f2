#include "src/schema/lts.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <optional>

#include "src/engine/compact_table.h"
#include "src/engine/explorer.h"
#include "src/engine/visited_table.h"
#include "src/obs/metrics.h"
#include "src/store/match_index.h"
#include "src/store/treedb.h"

namespace accltl {
namespace schema {

std::string Transition::ToString(const Schema& schema) const {
  AccessStep step{access, response};
  return step.ToString(schema);
}

Transition MakeTransition(const Schema& schema, Instance pre, Access access,
                          Response response) {
  std::vector<store::FactId> ids;
  ids.reserve(response.size());
  for (const Tuple& tuple : response) {
    ids.push_back(store::Store::Get().InternTuple(tuple));
  }
  return MakeTransitionFromIds(schema, std::move(pre), std::move(access),
                               ids);
}

Transition MakeTransitionFromIds(const Schema& schema, Instance pre,
                                 Access access,
                                 const std::vector<store::FactId>& response) {
  const store::Store& store = store::Store::Get();
  Transition t;
  // post shares every relation of pre (COW); only the accessed
  // relation's fact set is derived, once, via the batch builder.
  Instance::Builder post(pre);
  RelationId rel = schema.method(access.method).relation;
  for (store::FactId fact : response) {
    post.Add(rel, fact);
    t.response.insert(store.tuple(fact));
  }
  t.post = std::move(post).Build();
  t.pre = std::move(pre);
  t.access = std::move(access);
  t.response_ids = response;
  return t;
}

namespace {

/// Enumerates candidate bindings for `method`: all tuples over the
/// candidate value pool, filtered by position types.
void EnumerateBindings(const Schema& schema, AccessMethodId method,
                       const std::vector<Value>& pool,
                       std::vector<Tuple>* out) {
  const AccessMethod& m = schema.method(method);
  const Relation& rel = schema.relation(m.relation);
  std::vector<std::vector<Value>> candidates(
      static_cast<size_t>(m.num_inputs()));
  for (int i = 0; i < m.num_inputs(); ++i) {
    ValueType want = rel.position_types[m.input_positions[i]];
    for (const Value& v : pool) {
      if (v.type() == want) candidates[static_cast<size_t>(i)].push_back(v);
    }
    if (candidates[static_cast<size_t>(i)].empty()) return;
  }
  Tuple current(static_cast<size_t>(m.num_inputs()));
  std::function<void(size_t)> rec = [&](size_t idx) {
    if (idx == candidates.size()) {
      out->push_back(current);
      return;
    }
    for (const Value& v : candidates[idx]) {
      current[idx] = v;
      rec(idx + 1);
    }
  };
  rec(0);
}

}  // namespace

namespace {

/// Appends every subset of `matching` with 1..max_size elements
/// (`exact_size` restricts to exactly max_size) in lexicographic index
/// order, stopping at `cap` total responses. This is the
/// result-bounded response rule; the oracle's NaiveSuccessors carries
/// a verbatim copy over Tuples — the two enumerations must stay in
/// lockstep for stat-for-stat agreement.
template <typename Elem>
void AppendBoundedSubsets(const std::vector<Elem>& matching, size_t max_size,
                          bool exact_size, size_t cap,
                          std::vector<std::vector<Elem>>* responses) {
  if (max_size == 0) return;
  std::vector<Elem> combo;
  std::function<void(size_t)> rec = [&](size_t start) {
    for (size_t i = start; i < matching.size() && responses->size() < cap;
         ++i) {
      combo.push_back(matching[i]);
      if (!exact_size || combo.size() == max_size) responses->push_back(combo);
      if (combo.size() < max_size) rec(i + 1);
      combo.pop_back();
    }
  };
  rec(0);
}

/// Matching over the universe through the shared match index: facts
/// are selected by the first input position's index entry, then
/// filtered on the rest — no per-binding relation scans. `Index` is
/// either the shared store::MatchIndexCache or a per-worker LocalView
/// (both expose the same Lookup).
template <typename Index>
std::vector<store::FactId> IndexedMatching(const Instance& universe,
                                           RelationId rel,
                                           const std::vector<Position>& pos,
                                           const Tuple& binding,
                                           Index* index) {
  const store::Store& store = store::Store::Get();
  std::vector<store::FactId> out;
  if (pos.empty()) {
    out = universe.facts(rel)->ids();
    return out;
  }
  std::vector<store::ValueId> bound;
  bound.reserve(binding.size());
  for (const Value& v : binding) {
    store::ValueId vid = store.TryFindValue(v);
    if (vid == store::kNoValueId) return out;
    bound.push_back(vid);
  }
  const std::vector<store::FactId>& candidates =
      index->Lookup(universe.facts(rel), pos[0], bound[0]);
  for (store::FactId fact : candidates) {
    const std::vector<store::ValueId>& vals = store.fact_values(fact);
    bool match = true;
    for (size_t i = 1; i < pos.size(); ++i) {
      if (vals[static_cast<size_t>(pos[i])] != bound[i]) {
        match = false;
        break;
      }
    }
    if (match) out.push_back(fact);
  }
  return out;
}

template <typename Index>
std::vector<Transition> SuccessorsImpl(const Schema& schema,
                                       const Instance& current,
                                       const LtsOptions& options,
                                       Index* index) {
  std::vector<Transition> out;
  const store::Store& store = store::Store::Get();
  // Candidate binding values: grounded mode restricts to the active
  // domain of the current configuration plus seeds; otherwise we also
  // allow any value of the hidden universe (finitely many candidates
  // standing in for "any value"). Assembled as interned ids — no
  // Value-set churn per node.
  std::vector<store::ValueId> pool_ids = current.ActiveDomainIds();
  for (const Value& v : options.seed_values) {
    pool_ids.push_back(store::Store::Get().InternValue(v));
  }
  if (!options.grounded) {
    std::vector<store::ValueId> udom = options.universe.ActiveDomainIds();
    pool_ids.insert(pool_ids.end(), udom.begin(), udom.end());
  }
  std::sort(pool_ids.begin(), pool_ids.end());
  pool_ids.erase(std::unique(pool_ids.begin(), pool_ids.end()),
                 pool_ids.end());
  std::vector<Value> pool;
  pool.reserve(pool_ids.size());
  for (store::ValueId v : pool_ids) pool.push_back(store.value(v));

  for (AccessMethodId am = 0; am < schema.num_access_methods(); ++am) {
    const AccessMethod& m = schema.method(am);
    std::vector<Tuple> bindings;
    EnumerateBindings(schema, am, pool, &bindings);
    for (const Tuple& b : bindings) {
      // Responses are enumerated as interned fact-id vectors: the
      // universe's facts are already interned, so building each
      // successor's post instance never re-hashes tuple data.
      std::vector<store::FactId> matching = IndexedMatching(
          options.universe, m.relation, m.input_positions, b, index);
      bool exact = m.exact || options.exact_methods.count(am) > 0;
      std::vector<std::vector<store::FactId>> responses;
      if (m.bounded()) {
        // Result-bounded method: every <=k-subset of the matching set
        // is a possible response (the singleton-enumeration flag does
        // not apply — subset enumeration subsumes it). An exact
        // bounded method returns min(k, |matching|) tuples, so only
        // subsets of exactly that size are responses.
        size_t bound = static_cast<size_t>(m.result_bound);
        if (exact) {
          size_t take = std::min(bound, matching.size());
          if (take == 0) {
            responses.push_back({});
          } else {
            AppendBoundedSubsets(matching, take, /*exact_size=*/true,
                                 options.max_successors_per_node, &responses);
          }
        } else {
          responses.push_back({});  // the empty response is always allowed
          AppendBoundedSubsets(matching, bound, /*exact_size=*/false,
                               options.max_successors_per_node, &responses);
        }
      } else if (exact) {
        responses.push_back(matching);
      } else {
        responses.push_back({});  // empty response
        if (options.enumerate_singleton_responses) {
          for (store::FactId f : matching) responses.push_back({f});
          if (matching.size() > 1) responses.push_back(matching);
        } else if (!matching.empty()) {
          // The full matching set is always a well-formed response —
          // including when it is a single fact. (A singleton full
          // response used to be dropped whenever singleton enumeration
          // was off, silently losing reachable configurations.)
          responses.push_back(matching);
        }
      }
      for (const std::vector<store::FactId>& r : responses) {
        out.push_back(
            MakeTransitionFromIds(schema, current, Access{am, b}, r));
        if (out.size() >= options.max_successors_per_node) return out;
      }
    }
  }
  return out;
}

}  // namespace

std::vector<Transition> Successors(const Schema& schema,
                                   const Instance& current,
                                   const LtsOptions& options) {
  store::MatchIndexCache index;
  return SuccessorsImpl(schema, current, options, &index);
}

namespace {

/// Frontier node of the breadth-first exploration: the configuration
/// plus (compact mode only) its tree-compressed identity — the
/// per-relation set refs children delta-extend, and the folded tuple
/// ref the seen-set stores.
struct LtsNode {
  Instance config;
  store::ConfigRefs refs;
};

}  // namespace

std::vector<LtsLevelStats> ExploreBreadthFirst(const Schema& schema,
                                               const Instance& initial,
                                               const LtsOptions& options,
                                               size_t max_depth,
                                               size_t max_nodes,
                                               const engine::ExecOptions& exec,
                                               LtsMemoryStats* memory) {
  std::vector<LtsLevelStats> stats;
  {
    LtsLevelStats s;
    s.depth = 0;
    s.distinct_configurations = 1;
    s.max_configuration_facts = initial.TotalFacts();
    stats.push_back(s);
  }
  // Compact-mode storage, engaged only under kCompact: the tree
  // database the configurations fold into plus the seen-set of their
  // refs.
  struct CompactStorage {
    store::TreeDb treedb;
    engine::CompactRefSet seen;
    size_t bytes() const { return seen.bytes() + treedb.bytes(); }
  };
  std::optional<CompactStorage> compact;
  if (exec.visited_mode == engine::VisitedMode::kCompact) compact.emplace();
  // Logical footprint of one exact seen-entry: the full materialized
  // configuration — handle, per-relation set headers, and every fact
  // id (sizes, never capacities). COW sharing between entries is an
  // allocator courtesy, not a representation guarantee, so exact
  // accounting charges each entry its own state vector; that is
  // precisely the representation the tree database replaces, and the
  // sum over deduplicated configurations is schedule-independent.
  auto config_bytes = [](const Instance& c) {
    size_t b = sizeof(Instance) +
               static_cast<size_t>(c.num_relations()) *
                   (sizeof(store::FactSet::Ptr) + sizeof(store::FactSet));
    for (RelationId r = 0; r < c.num_relations(); ++r) {
      b += c.facts(r)->size() * sizeof(store::FactId);
    }
    return b;
  };
  size_t exact_bytes = config_bytes(initial);
  auto report_memory = [&]() {
    if (memory == nullptr) return;
    memory->visited_bytes = compact ? compact->bytes() : exact_bytes;
    memory->treedb_nodes = compact ? compact->treedb.num_nodes() : 0;
  };
  auto root = std::make_unique<LtsNode>();
  root->config = initial;
  if (compact) {
    root->refs = store::FoldConfigRefs(
        &compact->treedb, schema.num_relations(),
        [&](size_t r) -> const std::vector<store::FactId>& {
          return initial.facts(static_cast<RelationId>(r))->ids();
        });
  }
  if (max_depth == 0) {
    report_memory();
    return stats;
  }

  size_t workers = std::max<size_t>(1, exec.num_threads);
  // Visited-configuration dedup. Exact mode keys the 64-bit
  // configuration hash; buckets hold the instances for exact
  // confirmation (instances are COW handles, so storing them is
  // cheap). Compact mode stores only the 4-byte tree ref — ref
  // equality is exact configuration equality (store/treedb.h), so the
  // two modes dedup identically. Either set is consulted only in the
  // serial barrier reduction.
  engine::ShardedVisitedTable<Instance> seen(64);
  auto equal = [](const Instance& a, const Instance& b) { return a == b; };
  size_t seen_count = 1;
  if (compact) {
    compact->seen.Insert(root->refs.config_ref);
  } else {
    seen.CheckAndInsert(initial.hash(), initial, equal);
  }

  // One match index for the whole exploration: the universe's fact
  // sets are stable, so every level reuses the same per-relation
  // index; each worker replays resolved indexes through a lock-free
  // LocalView.
  store::MatchIndexCache index;
  std::vector<store::MatchIndexCache::LocalView> views;
  views.reserve(workers);
  for (size_t w = 0; w < workers; ++w) views.emplace_back(&index);

  std::atomic<size_t> level_transitions{0};
  bool stop = false;

  engine::Explorer<LtsNode> explorer;
  engine::Explorer<LtsNode>::Options eopts;
  eopts.num_threads = workers;
  eopts.cancel = exec.cancel;

  std::vector<std::unique_ptr<LtsNode>> roots;
  roots.push_back(std::move(root));
  engine::Explorer<LtsNode>::Stats run_stats = explorer.RunLevels(
      std::move(roots), eopts,
      [&](std::unique_ptr<LtsNode> node,
          engine::Explorer<LtsNode>::Context& ctx) {
        std::vector<Transition> succ = SuccessorsImpl(
            schema, node->config, options, &views[ctx.worker_id()]);
        level_transitions.fetch_add(succ.size(), std::memory_order_relaxed);
        for (Transition& t : succ) {
          auto child = std::make_unique<LtsNode>();
          if (compact) {
            child->refs = store::ExtendConfigRefs(
                &compact->treedb, node->refs,
                schema.method(t.access.method).relation, t.response_ids);
          }
          child->config = std::move(t.post);
          ctx.Emit(std::move(child));
        }
      },
      [&](size_t level, std::vector<std::vector<LtsNode*>> batches)
          -> std::vector<std::unique_ptr<LtsNode>> {
        // Barrier reduction (runs serially between levels). Every
        // batch set is complete — workers expanded the whole frontier
        // — so after the content sort the surviving configurations,
        // the statistics, and the budget cut are all
        // schedule-independent.
        LtsLevelStats s;
        s.depth = level;
        s.transitions =
            level_transitions.exchange(0, std::memory_order_relaxed);
        std::vector<std::unique_ptr<LtsNode>> children;
        for (auto& batch : batches) {
          for (LtsNode* child : batch) children.emplace_back(child);
        }
        // Deterministic content order: configuration hash first, exact
        // fact-id order on the (almost impossible) hash tie. Fact ids
        // are stable here — exploration reveals only universe facts,
        // which were interned before any worker started. The same
        // order in both storage modes (tree refs are schedule-
        // dependent, so they never participate), so the statistics are
        // mode-independent too.
        std::sort(children.begin(), children.end(),
                  [](const std::unique_ptr<LtsNode>& a,
                     const std::unique_ptr<LtsNode>& b) {
                    if (a->config.hash() != b->config.hash()) {
                      return a->config.hash() < b->config.hash();
                    }
                    return a->config < b->config;
                  });
        std::vector<std::unique_ptr<LtsNode>> next;
        for (std::unique_ptr<LtsNode>& child : children) {
          bool already =
              compact ? !compact->seen.Insert(child->refs.config_ref)
                      : seen.CheckAndInsert(child->config.hash(),
                                            child->config, equal);
          if (already) {
            continue;  // already reached (this level or earlier)
          }
          ++seen_count;
          if (!compact) exact_bytes += config_bytes(child->config);
          if (seen_count > max_nodes) {
            // Count-then-cut, the engine's budget discipline: the
            // overflowing configuration is counted, not kept; the cut
            // is flagged instead of silently dropping the remainder.
            s.truncated = true;
            stop = true;
            break;
          }
          s.max_configuration_facts =
              std::max(s.max_configuration_facts, child->config.TotalFacts());
          next.push_back(std::move(child));
        }
        s.distinct_configurations = next.size();
        obs::Registry::Get().counter("schema.lts.transitions")
            ->Inc(s.transitions);
        obs::Registry::Get().counter("schema.lts.configs")->Inc(next.size());
        // The byte budget's cut point: decided at the barrier over the
        // complete reduced level, so the cut level is schedule-
        // independent. Flagged like the node budget — the recorded
        // tree is a prefix, never silently complete-looking.
        if (exec.max_visited_bytes != 0 && !stop) {
          size_t used = compact ? compact->bytes() : exact_bytes;
          if (used > exec.max_visited_bytes) {
            s.truncated = true;
            stop = true;
          }
        }
        stats.push_back(s);
        if (stop || level >= max_depth) next.clear();
        return next;
      });
  report_memory();
  if (run_stats.cancelled && !stats.empty()) {
    // The cut level's reduce never ran, so its statistics are absent;
    // mark the deepest recorded level so the prefix is never mistaken
    // for a completed exploration.
    stats.back().cancelled = true;
  }
  return stats;
}

}  // namespace schema
}  // namespace accltl
