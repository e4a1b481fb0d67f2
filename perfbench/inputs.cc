// Seeded inputs of the workloads. Everything here is input
// generation: it runs before set-up is timed, and it records each check
// query's reference answer so the timed phase's answers can be compared
// against it and the reference itself checked independently (checks.cc).
#include <algorithm>
#include <optional>
#include <string>
#include <utility>

#include "perfbench/bench.h"
#include "src/accltl/parser.h"
#include "src/common/rng.h"
#include "src/obs/metrics.h"
#include "src/workload/workload.h"

namespace perfbench {

using accltl::Rng;
namespace acc = accltl::acc;
namespace schema = accltl::schema;
namespace service = accltl::service;
namespace workload = accltl::workload;

namespace {

/// The seed mixed with an FNV-1a hash of the workload name.
uint64_t Mix(uint64_t seed, const std::string& name) {
  uint64_t h = 1469598103934665603ULL;
  for (char c : name) h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ULL;
  return seed ^ h;
}

/// The schema with every relation and method renamed by `suffix` and,
/// when given, every method's result bound replaced (-1: unbounded). Ids,
/// types, inputs and the other qualifiers are unchanged, so a formula AST
/// built against the original applies to the copy as is.
schema::Schema Renamed(const schema::Schema& s, const std::string& suffix,
                       std::optional<int> result_bound = std::nullopt) {
  schema::Schema out;
  for (schema::RelationId r = 0; r < s.num_relations(); ++r) {
    out.AddRelation(s.relation(r).name + suffix, s.relation(r).position_types);
  }
  for (schema::AccessMethodId m = 0; m < s.num_access_methods(); ++m) {
    const schema::AccessMethod& am = s.method(m);
    out.AddAccessMethod(am.name + suffix, am.relation, am.input_positions,
                        am.exact, am.idempotent,
                        result_bound.value_or(am.result_bound));
  }
  return out;
}

/// The seed's variation of a catalogue schema: every relation and
/// method gets a seed-drawn suffix, so requests, canonical keys and
/// interned names differ from seed to seed while the work does not.
schema::Schema SeedRenamed(const schema::Schema& s, Rng* vary) {
  return Renamed(s, "_" + std::to_string(vary->Uniform(1000000)));
}

template <typename T>
void Shuffle(std::vector<T>* v, Rng* rng) {
  for (size_t i = v->size(); i > 1; --i) {
    std::swap((*v)[i - 1], (*v)[rng->Uniform(i)]);
  }
}

/// Search work of one request in deterministic units: nodes expanded and
/// children generated by either engine. At one search worker these
/// counts do not depend on timing, so screening on them keeps the
/// selected inputs a function of the seed alone.
uint64_t WorkUnits() {
  auto& reg = accltl::obs::Registry::Get();
  static accltl::obs::Counter* c[] = {
      reg.counter("analysis.zero.expansions"),
      reg.counter("analysis.zero.children"),
      reg.counter("automata.expansions"), reg.counter("automata.children")};
  uint64_t total = 0;
  for (accltl::obs::Counter* x : c) total += x->Value();
  return total;
}

/// Runs every query once on a private service at the workload's
/// request options, records its answer as the reference and returns the
/// deterministic work units it took (UINT64_MAX when it failed).
std::vector<uint64_t> RecordReferences(Workload* w) {
  service::ServiceOptions sopts;
  sopts.num_threads = w->search_threads;
  sopts.cache_capacity = 0;
  service::AnalysisService svc(sopts);
  std::vector<uint64_t> work;
  work.reserve(w->queries.size());
  for (QuerySpec& q : w->queries) {
    auto prepared = svc.Prepare(q.schema, q.formula, q.options);
    if (!prepared.ok()) {
      work.push_back(UINT64_MAX);
      continue;
    }
    service::CheckRequest req = RequestFor(*w, q);
    req.use_cache = false;
    uint64_t before = WorkUnits();
    service::CheckResponse r = svc.Check(*prepared.value(), req);
    uint64_t spent = WorkUnits() - before;
    bool ok = r.status.ok() && r.verdict == service::Verdict::kCompleted;
    q.reference = r.decision;
    work.push_back(ok ? spent : UINT64_MAX);
  }
  return work;
}

// --- mixed-checks -------------------------------------------------------------

/// Budgets of every mixed-checks request. Node budgets bound the node
/// count; the subset and realization caps bound the work per node.
service::PrepareOptions MixedOptions() {
  service::PrepareOptions o;
  o.zero.max_nodes = 1000;
  o.zero.max_subsets_per_access = 8;
  o.zero.max_facts_per_step = 3;
  o.zero.max_path_length = 3;
  o.bounded.max_nodes = 1000;
  o.bounded.max_realizations_per_step = 32;
  o.bounded.max_path_length = 3;
  o.decompose.max_variants = 16;
  o.decompose.max_phi = 6;
  o.decompose.max_stages = 4;
  return o;
}

QuerySpec RandomMixedQuery(Rng* rng) {
  QuerySpec q;
  // AccLTL+ requests (n-ary IsBind) are a minority and stay on the small
  // schema families at shallow nesting: over arity-4..6 relations, or
  // with nested guarded Untils (25-state automata), one realization
  // step alone can take tens of milliseconds, and a few such requests
  // would carry most of a run.
  uint64_t family = rng->Uniform(100);
  bool nary = family >= 85;
  switch (rng->Uniform(nary ? 2 : 3)) {
    case 0:
      q.schema = workload::RandomSchema(
          rng, 2 + static_cast<int>(rng->Uniform(2)), 2);
      break;
    case 1:
      q.schema = workload::RandomBoundedSchema(
          rng, 1 + static_cast<int>(rng->Uniform(2)), 2, 3);
      q.bounded_methods = true;
      break;
    default:
      q.schema = workload::RandomHighArityMixedSchema(
          rng, 1 + static_cast<int>(rng->Uniform(2)));
      break;
  }
  int depth = 1 + static_cast<int>(rng->Uniform(2));
  if (family < 35) {
    q.formula = workload::RandomZeroAryFormula(rng, q.schema, depth, false);
  } else if (family < 65) {
    q.formula = workload::RandomZeroAryFormula(rng, q.schema, depth, true);
  } else if (family < 85) {
    q.formula = workload::RandomGuardedUntilFormula(rng, q.schema, depth + 1,
                                                    false);
  } else if (family < 92) {
    q.formula = workload::RandomGuardedUntilFormula(rng, q.schema, 2, true);
  } else {
    q.formula = workload::RandomBindingPositiveFormula(rng, q.schema, 1);
  }
  q.options = MixedOptions();
  q.options.grounded = rng->Chance(1, 5);
  if (nary && !q.options.grounded && rng->Chance(1, 3)) {
    q.options.use_datalog_pipeline = true;
  }
  return q;
}

Workload MakeMixedChecks(Rng* shapes, Rng* vary, bool tiny) {
  Workload w;
  w.kind = Kind::kSyncCheck;
  w.search_threads = 1;
  w.use_cache = false;
  size_t candidates = tiny ? 60 : 3000;
  for (size_t i = 0; i < candidates; ++i) {
    w.queries.push_back(RandomMixedQuery(shapes));
    w.queries.back().schema = SeedRenamed(w.queries.back().schema, vary);
  }
  // Screening on deterministic counts: a request whose search work
  // exceeds the cap is dropped, so no seed is dominated by a handful of
  // requests, and so is one whose witness the naive evaluator could not
  // re-check in reasonable time.
  constexpr uint64_t kMaxWorkUnits = 500;
  constexpr double kMaxNaiveCost = 2e6;
  std::vector<uint64_t> work = RecordReferences(&w);
  std::vector<QuerySpec> kept;
  for (size_t i = 0; i < w.queries.size(); ++i) {
    const QuerySpec& q = w.queries[i];
    if (work[i] <= kMaxWorkUnits &&
        (!q.reference.has_witness ||
         NaiveEvalCost(q, q.reference.witness) <= kMaxNaiveCost)) {
      kept.push_back(std::move(w.queries[i]));
    }
  }
  w.queries = std::move(kept);
  for (size_t i = 0; i < w.queries.size(); ++i) {
    w.cycle.push_back(static_cast<uint32_t>(i));
  }
  Shuffle(&w.cycle, vary);
  // The warm-up is the first catalogue queries, so that its work does
  // not depend on the seed.
  for (uint32_t i = 0; i < std::min<size_t>(w.queries.size(), 256); ++i) {
    w.warmup.push_back(i);
  }
  return w;
}

// --- deep-sweeps --------------------------------------------------------------

const char* const kRevealMobile =
    "F [EXISTS n . IsBind_AcM1(n) AND (EXISTS p,s,ph . Mobile_post(n,p,s,ph))]";
const char* const kRevealAddress =
    "F [EXISTS s,p . IsBind_AcM2(s,p) AND "
    "(EXISTS n,h . Address_post(s,p,n,h))]";
const char* const kJoinMobileAddress =
    "F [EXISTS n . IsBind_AcM1(n) AND (EXISTS s,p,h . Address_pre(s,p,n,h))]";
const char* const kJoinAddressMobile =
    "F [EXISTS s,p . IsBind_AcM2(s,p) AND (EXISTS n,ph . Mobile_pre(n,p,s,ph))]";
const char* const kNever = "F [EXISTS n . IsBind_AcM1(n) AND n != n]";

// A zero-ary sweep over the canonical-witness pool: Mobile facts can
// only arrive with an AcM1 access, which the G conjunct forbids, so the
// solver proves "no" after sweeping every pool schedule.
const char* const kPoolSweep =
    "X X [IsBind_AcM2() AND (EXISTS n,p,s,ph,h . Mobile_pre(n,p,s,ph) AND "
    "Address_post(s,p,n,h))] AND "
    "G (NOT [IsBind_AcM1() AND (EXISTS n,p,s,ph . Mobile_post(n,p,s,ph))])";

struct SweepTemplate {
  std::vector<const char*> conjuncts;
  size_t path_length;
  int result_bound;  // -1: unbounded methods
  bool compact;
};

Workload MakeDeepSweeps(Rng* vary, bool tiny) {
  Workload w;
  w.kind = Kind::kSyncCheck;
  w.search_threads = 2;
  w.use_cache = false;
  workload::PhoneDirectory pd = workload::MakePhoneDirectory();
  // Exhaustive sweeps of a few dozen to a few hundred nodes (about
  // 1-10 ms each): the AccLTL+ ones carry an unsatisfiable obligation,
  // so the whole bounded space is explored; the zero-ary one sweeps the
  // witness pool. Every template appears equally often, so the work of
  // a pass over the cycle is the same on every seed. Three cheap (about
  // 1 ms) and four dearer (4-8 ms) templates put the median op inside
  // the exact-diamond group, not in the gap between the two groups,
  // where it would jump with noise.
  std::vector<SweepTemplate> templates = {
      {{kRevealMobile, kNever}, 3, -1, false},
      {{kRevealAddress, kNever}, 3, -1, true},
      {{kRevealAddress, kNever}, 3, 2, true},
      {{kJoinMobileAddress, kJoinAddressMobile, kNever}, 2, -1, false},
      {{kJoinMobileAddress, kJoinAddressMobile, kNever}, 2, -1, true},
      {{kPoolSweep}, 4, -1, false},
      {{kPoolSweep}, 4, -1, true},
  };
  size_t per_template = tiny ? 1 : 8;
  for (size_t t = 0; t < templates.size(); ++t) {
    for (size_t v = 0; v < per_template; ++v) {
      const SweepTemplate& tpl = templates[t];
      std::string text;
      std::vector<const char*> parts = tpl.conjuncts;
      // The seed orders the conjuncts and renames the schema: the same
      // search space, a different request.
      Shuffle(&parts, vary);
      for (const char* p : parts) {
        if (!text.empty()) text += " AND ";
        text += p;
      }
      QuerySpec q;
      q.formula = acc::ParseAccFormula(text, pd.schema).value();
      q.schema = SeedRenamed(Renamed(pd.schema, "", tpl.result_bound), vary);
      q.bounded_methods = tpl.result_bound >= 0;
      q.options.bounded.max_path_length = tpl.path_length;
      q.options.bounded.max_nodes = 1u << 20;
      q.options.zero.max_path_length = tpl.path_length;
      q.options.zero.max_nodes = 1u << 20;
      q.visited_mode = tpl.compact ? accltl::engine::VisitedMode::kCompact
                                   : accltl::engine::VisitedMode::kExact;
      w.queries.push_back(std::move(q));
    }
  }
  RecordReferences(&w);
  for (size_t i = 0; i < w.queries.size(); ++i) {
    w.cycle.push_back(static_cast<uint32_t>(i));
  }
  Shuffle(&w.cycle, vary);
  // One sweep of each template warms the search engine up; set-up is
  // otherwise the Prepare of every query.
  for (size_t t = 0; t < templates.size(); ++t) {
    w.warmup.push_back(static_cast<uint32_t>(t * per_template));
  }
  return w;
}

// --- service-traffic ----------------------------------------------------------

Workload MakeServiceTraffic(Rng* shapes, Rng* vary, bool tiny) {
  Workload w;
  w.kind = Kind::kWindowedSubmit;
  w.search_threads = 1;
  w.dispatchers = 2;
  w.window = 16;
  w.use_cache = true;
  // A working set about 4x the default LRU capacity (256), a fifth of
  // it renamed-schema twins of other entries.
  size_t working_set = tiny ? 48 : 1024;
  service::PrepareOptions options;
  options.zero.max_nodes = 500;
  options.zero.max_subsets_per_access = 32;
  options.zero.max_path_length = 2;
  auto fresh = [&](QuerySpec* q) {
    q->schema = workload::RandomSchema(shapes, 2, 2);
    q->formula = workload::RandomZeroAryFormula(
        shapes, q->schema, 1 + static_cast<int>(shapes->Uniform(2)),
        shapes->Chance(1, 2));
    q->schema = SeedRenamed(q->schema, vary);
    q->options = options;
  };
  w.queries.resize(working_set - working_set / 5);
  for (QuerySpec& q : w.queries) fresh(&q);
  // Cheap queries only: one whose search work exceeds the cap is
  // replaced by a fresh draw, so every seed's working set costs alike.
  constexpr uint64_t kMaxWorkUnits = 100;
  for (;;) {
    std::vector<uint64_t> work = RecordReferences(&w);
    size_t replaced = 0;
    for (size_t i = 0; i < w.queries.size(); ++i) {
      if (work[i] <= kMaxWorkUnits) continue;
      fresh(&w.queries[i]);
      ++replaced;
    }
    if (replaced == 0) break;
  }
  size_t base = w.queries.size();
  while (w.queries.size() < working_set) {
    QuerySpec twin = w.queries[shapes->Uniform(base)];
    twin.schema = Renamed(twin.schema, "_r" + std::to_string(w.queries.size()));
    twin.renamed_twin = true;
    w.queries.push_back(std::move(twin));
  }
  // Zipf(1) popularity over a permutation of the working set. The
  // sequence comes from the catalogue too, and the seed only picks where
  // the client starts in it: the LRU sees the same hits, misses and
  // evictions on every pass of every seed (with seed-drawn sequences,
  // throughput differed by up to 20% between seeds).
  std::vector<uint32_t> rank(w.queries.size());
  for (size_t i = 0; i < rank.size(); ++i) rank[i] = static_cast<uint32_t>(i);
  Shuffle(&rank, shapes);
  std::vector<double> cdf(rank.size());
  double total = 0;
  for (size_t i = 0; i < rank.size(); ++i) {
    total += 1.0 / static_cast<double>(i + 1);
    cdf[i] = total;
  }
  size_t draws = tiny ? 400 : 10000;
  for (size_t i = 0; i < draws; ++i) {
    double u = static_cast<double>(shapes->Next() >> 11) * 0x1.0p-53 * total;
    size_t k = static_cast<size_t>(
        std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
    w.cycle.push_back(rank[std::min(k, rank.size() - 1)]);
  }
  std::rotate(w.cycle.begin(), w.cycle.begin() + vary->Uniform(draws),
              w.cycle.end());
  // The warm-up checks every query of the working set once, in
  // catalogue order: each is a miss that searches, inserts into the LRU
  // and, past its capacity, evicts.
  for (uint32_t i = 0; i < w.queries.size(); ++i) w.warmup.push_back(i);
  return w;
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {
      "mixed-checks", "deep-sweeps", "service-traffic"};
  return names;
}

service::CheckRequest RequestFor(const Workload& w, const QuerySpec& q) {
  service::CheckRequest r;
  r.use_cache = w.use_cache;
  r.num_threads = w.search_threads;
  r.visited_mode = q.visited_mode;
  return r;
}

Workload MakeWorkload(const std::string& name, uint64_t seed, bool tiny) {
  // The shapes of the requests -- schemas and formulas -- and the
  // service-traffic sequence come from a fixed catalogue per workload;
  // the seed renames every relation and method and orders the op cycle
  // (rotates it, on service-traffic). With seed-drawn shapes, a few heavy
  // draws moved a seed's throughput by up to 60% (README, Sizing notes).
  constexpr uint64_t kCatalogue = 2012;
  Rng shapes(Mix(kCatalogue, name));
  Rng vary(Mix(seed, name));
  Workload w;
  if (name == "mixed-checks") {
    w = MakeMixedChecks(&shapes, &vary, tiny);
  } else if (name == "deep-sweeps") {
    w = MakeDeepSweeps(&vary, tiny);
  } else if (name == "service-traffic") {
    w = MakeServiceTraffic(&shapes, &vary, tiny);
  }
  w.name = name;
  return w;
}

}  // namespace perfbench
