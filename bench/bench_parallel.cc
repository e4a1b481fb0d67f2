// Thread-count scaling of the parallel witness-search engine
// (src/engine/): the same bounded emptiness searches as bench_micro's
// witness benchmarks, swept over 1/2/4/8 workers. Every configuration
// returns the identical witness and exhausted_budget verdict (the
// engine's deterministic reduction); only wall-clock and the
// nodes_explored stat may move. Results land in BENCH_parallel.json.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdint>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_context.h"
#include "bench/bench_memory.h"
#include "src/accltl/parser.h"
#include "src/analysis/zero_solver.h"
#include "src/automata/compile.h"
#include "src/automata/emptiness.h"
#include "src/common/rng.h"
#include "src/engine/cancel.h"
#include "src/engine/thread_pool.h"
#include "src/obs/metrics.h"
#include "src/schema/lts.h"
#include "src/workload/workload.h"

namespace accltl {
namespace {

// Control: a fixed amount of pure register spin, split evenly over N
// pool workers. No memory traffic, no locks — its scaling curve is the
// *hardware's* parallel ceiling on the current box (shared/throttled
// cloud cores routinely cap 2 threads well below 2×), which is the
// honest yardstick for the witness-search curves below. One iteration
// is a few milliseconds, so each repetition averages many of them; the
// median of the repetitions is the reading (one long iteration was
// bimodal: the scheduler placed the workers well or it did not).
void BM_RawThreadScalingControl(benchmark::State& state) {
  size_t threads = static_cast<size_t>(state.range(0));
  constexpr unsigned kTotal = 4u * 1000 * 1000;
  for (auto _ : state) {
    engine::ThreadPool::Global().Run(threads, [&](size_t) {
      volatile unsigned x = 1;
      for (unsigned i = 0; i < kTotal / threads; ++i) {
        x = x * 1664525u + 1013904223u;
      }
    });
  }
}
BENCHMARK(BM_RawThreadScalingControl)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->ArgNames({"threads"})
    ->UseRealTime()
    ->Repetitions(5)
    ->ReportAggregatesOnly(true)
    ->Unit(benchmark::kMillisecond);

/// Per-search work of a schedule-independent sweep: the deltas of
/// engine counters (`automata.*` or `analysis.zero.*`) over one search,
/// recorded as benchmark counters under their last name component.
/// They repeat exactly across runs and worker counts, so
/// tools/bench_compare.py gates them. Recorded only while metrics are
/// on (the default): the benchmark leaves ACCLTL_METRICS in charge, so
/// a metrics-off run measures the engine without its counters.
class WorkCounters {
 public:
  WorkCounters(const char* prefix, std::vector<const char*> names)
      : names_(std::move(names)) {
    for (const char* name : names_) {
      counters_.push_back(
          obs::Registry::Get().counter(std::string(prefix) + name));
    }
    before_.resize(counters_.size());
  }
  void Start() {
    for (size_t i = 0; i < counters_.size(); ++i) {
      before_[i] = counters_[i]->Value();
    }
  }
  void Record(benchmark::State& state) const {
    if (!obs::MetricsEnabled()) return;
    for (size_t i = 0; i < counters_.size(); ++i) {
      state.counters[names_[i]] =
          static_cast<double>(counters_[i]->Value() - before_[i]);
    }
  }

 private:
  std::vector<const char*> names_;
  std::vector<obs::Counter*> counters_;
  std::vector<uint64_t> before_;
};

WorkCounters AutomataWork() {
  return WorkCounters("automata.", {"candidates", "accesses", "children"});
}

const char kDiamondExhaustive[] =
    "F [EXISTS n . IsBind_AcM1(n) AND "
    "(EXISTS p,s,ph . Mobile_post(n,p,s,ph))] AND "
    "F [EXISTS s,p . IsBind_AcM2(s,p) AND "
    "(EXISTS n,h . Address_post(s,p,n,h))] AND "
    "F [EXISTS n . IsBind_AcM1(n) AND n != n]";

const char kSeededTwoObligations[] =
    "F [EXISTS n . IsBind_AcM1(n) AND "
    "(EXISTS s,p,h . Address_pre(s,p,n,h))] AND "
    "F [EXISTS s,p . IsBind_AcM2(s,p) AND "
    "(EXISTS n,ph . Mobile_pre(n,p,s,ph))]";

// The diamond scaling benchmark: two commuting reveal-obligations plus
// one unsatisfiable one, so the 2^n-interleaving diamond is explored
// to exhaustion — a fixed workload that parallelizes without the
// witness-discovery races of satisfiable scenarios. ~25k dedup'd nodes
// at depth 3.
void BM_ParallelWitnessDiamond(benchmark::State& state) {
  workload::PhoneDirectory pd = workload::MakePhoneDirectory();
  acc::AccPtr f =
      acc::ParseAccFormula(kDiamondExhaustive, pd.schema).value();
  automata::AAutomaton a =
      automata::CompileToAutomaton(f, pd.schema).value();
  automata::WitnessSearchOptions opts;
  opts.max_path_length = 3;
  engine::ExecOptions exec;
  exec.num_threads = static_cast<size_t>(state.range(0));
  WorkCounters work = AutomataWork();
  for (auto _ : state) {
    work.Start();
    automata::WitnessSearchResult r = automata::BoundedWitnessSearch(
        a, pd.schema, schema::Instance(pd.schema), opts, exec);
    benchmark::DoNotOptimize(r.found);
    work.Record(state);
    state.counters["nodes"] = static_cast<double>(r.nodes_explored);
    state.counters["found"] = r.found ? 1 : 0;
    state.counters["visited_bytes"] = static_cast<double>(r.visited_bytes);
  }
  state.counters["peak_rss_mb"] =
      static_cast<double>(bench::PeakRssBytes()) / (1024.0 * 1024.0);
}
BENCHMARK(BM_ParallelWitnessDiamond)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->ArgNames({"threads"})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// Seeded satisfiable search: the engine must find the content-minimal
// witness, so parallel workers both race toward it and clear the
// mandatory sub-best frontier.
void BM_ParallelWitnessSeeded(benchmark::State& state) {
  workload::PhoneDirectory pd = workload::MakePhoneDirectory();
  Rng rng(11);
  schema::Instance seeded = workload::MakePhoneUniverse(pd, &rng, 64);
  acc::AccPtr f =
      acc::ParseAccFormula(kSeededTwoObligations, pd.schema).value();
  automata::AAutomaton a =
      automata::CompileToAutomaton(f, pd.schema).value();
  automata::WitnessSearchOptions opts;
  opts.max_path_length = 4;
  engine::ExecOptions exec;
  exec.num_threads = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    automata::WitnessSearchResult r =
        automata::BoundedWitnessSearch(a, pd.schema, seeded, opts, exec);
    benchmark::DoNotOptimize(r.found);
    state.counters["nodes"] = static_cast<double>(r.nodes_explored);
    state.counters["found"] = r.found ? 1 : 0;
  }
}
BENCHMARK(BM_ParallelWitnessSeeded)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->ArgNames({"threads"})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// Satisfiable diamond over a seeded universe (bench_micro's
// BM_WitnessSearchDiamond shape at n = 3).
void BM_ParallelWitnessDiamondSeeded(benchmark::State& state) {
  workload::PhoneDirectory pd = workload::MakePhoneDirectory();
  Rng rng(13);
  schema::Instance seeded = workload::MakePhoneUniverse(pd, &rng, 32);
  std::string text;
  for (int i = 0; i < 3; ++i) {
    if (i > 0) text += " AND ";
    text += (i % 2 == 0)
                ? "F [EXISTS n . IsBind_AcM1(n) AND "
                  "(EXISTS s,p,h . Address_pre(s,p,n,h))]"
                : "F [EXISTS s,p . IsBind_AcM2(s,p) AND "
                  "(EXISTS n,ph . Mobile_pre(n,p,s,ph))]";
  }
  acc::AccPtr f = acc::ParseAccFormula(text, pd.schema).value();
  automata::AAutomaton a =
      automata::CompileToAutomaton(f, pd.schema).value();
  automata::WitnessSearchOptions opts;
  opts.max_path_length = 5;
  engine::ExecOptions exec;
  exec.num_threads = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    automata::WitnessSearchResult r =
        automata::BoundedWitnessSearch(a, pd.schema, seeded, opts, exec);
    benchmark::DoNotOptimize(r.found);
    state.counters["nodes"] = static_cast<double>(r.nodes_explored);
    state.counters["found"] = r.found ? 1 : 0;
  }
}
BENCHMARK(BM_ParallelWitnessDiamondSeeded)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->ArgNames({"threads"})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// Visited-storage mode comparison on the exhaustive diamond over a
// 64-fact seeded configuration: the identical ~6.5k-node dedup'd
// sweep under VisitedMode::kExact
// (materialized configurations in the sharded table) vs kCompact
// (tree-compressed refs + Cleary-style compact table). Verdict and
// node count are byte-identical by contract (the compact fuzz pair
// gates this); `visited_bytes` is the point — compact holds the same
// frontier in a fraction of the logical bytes.
void BM_VisitedModeDiamond(benchmark::State& state) {
  workload::PhoneDirectory pd = workload::MakePhoneDirectory();
  Rng rng(17);
  schema::Instance seeded = workload::MakePhoneUniverse(pd, &rng, 64);
  acc::AccPtr f =
      acc::ParseAccFormula(kDiamondExhaustive, pd.schema).value();
  automata::AAutomaton a =
      automata::CompileToAutomaton(f, pd.schema).value();
  automata::WitnessSearchOptions opts;
  opts.max_path_length = 3;
  engine::ExecOptions exec;
  exec.num_threads = 4;
  exec.visited_mode = state.range(0) == 0 ? engine::VisitedMode::kExact
                                          : engine::VisitedMode::kCompact;
  for (auto _ : state) {
    automata::WitnessSearchResult r = automata::BoundedWitnessSearch(
        a, pd.schema, seeded, opts, exec);
    benchmark::DoNotOptimize(r.found);
    state.counters["nodes"] = static_cast<double>(r.nodes_explored);
    state.counters["visited_bytes"] = static_cast<double>(r.visited_bytes);
    state.counters["treedb_nodes"] = static_cast<double>(r.treedb_nodes);
  }
  state.counters["peak_rss_mb"] =
      static_cast<double>(bench::PeakRssBytes()) / (1024.0 * 1024.0);
  state.counters["heap_mb"] =
      static_cast<double>(bench::AllocatorFootprintBytes()) /
      (1024.0 * 1024.0);
}
BENCHMARK(BM_VisitedModeDiamond)
    ->Arg(0)
    ->Arg(1)
    ->ArgNames({"compact"})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// The capped sweep: the same diamond under a fixed
// ExecOptions::max_visited_bytes byte budget, sized between the two
// modes' footprints. kExact hits the cap and truncates
// (exhausted_budget = 1, a partial sweep); kCompact finishes the whole
// space under the identical budget — the headline "same search, same
// memory cap, only compact completes" record, mirrored by the
// ulimit-based stress job in CI.
void BM_MemoryCappedDiamond(benchmark::State& state) {
  workload::PhoneDirectory pd = workload::MakePhoneDirectory();
  Rng rng(17);
  schema::Instance seeded = workload::MakePhoneUniverse(pd, &rng, 64);
  acc::AccPtr f =
      acc::ParseAccFormula(kDiamondExhaustive, pd.schema).value();
  automata::AAutomaton a =
      automata::CompileToAutomaton(f, pd.schema).value();
  automata::WitnessSearchOptions opts;
  opts.max_path_length = 3;
  engine::ExecOptions exec;
  exec.num_threads = 4;
  exec.visited_mode = state.range(0) == 0 ? engine::VisitedMode::kExact
                                          : engine::VisitedMode::kCompact;
  // 1 MiB: well below the exact sweep's ~4.6 MB footprint, ~3x above
  // the compact sweep's ~0.3 MB.
  exec.max_visited_bytes = 1u << 20;
  for (auto _ : state) {
    automata::WitnessSearchResult r = automata::BoundedWitnessSearch(
        a, pd.schema, seeded, opts, exec);
    benchmark::DoNotOptimize(r.found);
    state.counters["nodes"] = static_cast<double>(r.nodes_explored);
    state.counters["truncated"] = r.exhausted_budget ? 1 : 0;
    state.counters["visited_bytes"] = static_cast<double>(r.visited_bytes);
  }
  state.counters["peak_rss_mb"] =
      static_cast<double>(bench::PeakRssBytes()) / (1024.0 * 1024.0);
}
BENCHMARK(BM_MemoryCappedDiamond)
    ->Arg(0)
    ->Arg(1)
    ->ArgNames({"compact"})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// Zero-ary solver sweep: many single-fact obligations over a 20-fact
// pool plus one unsatisfiable conjunct, so the bounded space (subsets
// of pool facts × tableau states) is swept to exhaustion — the
// engine-ported solver's fixed parallel workload. Verdict and
// exhausted_budget are identical at every thread count.
void BM_ParallelZeroSolverSweep(benchmark::State& state) {
  workload::PhoneDirectory pd = workload::MakePhoneDirectory();
  std::string text = "F [";
  for (int i = 0; i < 20; ++i) {
    if (i > 0) text += " OR ";
    text += "Mobile_post(\"n" + std::to_string(i) + "\",\"p\",\"s\",1)";
  }
  text += "] AND F ([IsBind_AcM1()] AND [IsBind_AcM2()])";  // unsat conjunct
  acc::AccPtr f = acc::ParseAccFormula(text, pd.schema).value();
  analysis::ZeroSolverOptions opts;
  opts.max_path_length = 3;
  engine::ExecOptions exec;
  exec.num_threads = static_cast<size_t>(state.range(0));
  WorkCounters work("analysis.zero.", {"candidates", "children"});
  for (auto _ : state) {
    work.Start();
    Result<analysis::ZeroSolverResult> r =
        analysis::CheckZeroArySatisfiable(f, pd.schema, opts, exec);
    benchmark::DoNotOptimize(r.ok());
    work.Record(state);
    state.counters["nodes"] =
        static_cast<double>(r.value().nodes_explored);
    state.counters["found"] = r.value().satisfiable ? 1 : 0;
  }
}
BENCHMARK(BM_ParallelZeroSolverSweep)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->ArgNames({"threads"})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// Rebuilds the phone schema with every access method result-bounded
// at k: responses become <=k-subsets of the matching tuples, so the
// branching factor is response-subset-shaped rather than
// matching-set-shaped.
schema::Schema BoundPhoneSchema(const schema::Schema& s, int k) {
  schema::Schema bounded;
  for (schema::RelationId r = 0; r < s.num_relations(); ++r) {
    bounded.AddRelation(s.relation(r).name, s.relation(r).position_types);
  }
  for (schema::AccessMethodId m = 0; m < s.num_access_methods(); ++m) {
    const schema::AccessMethod& am = s.method(m);
    bounded.AddAccessMethod(am.name, am.relation, am.input_positions,
                            am.exact, am.idempotent, k);
  }
  return bounded;
}

// Result-bounded exhaustive sweep: the diamond workload over a seeded
// 64-fact universe with every method bounded at k = 2, so each access
// fans out into all <=2-subsets of its matching tuples instead of one
// full response. The unsatisfiable conjunct forces exhaustion; the
// verdict is byte-identical at every thread count (the `bounded` fuzz
// pair gates this), and like the diamond above only wall-clock and
// the nodes stat may move.
void BM_ParallelBoundedWitnessSweep(benchmark::State& state) {
  workload::PhoneDirectory pd = workload::MakePhoneDirectory();
  schema::Schema bounded = BoundPhoneSchema(pd.schema, 2);
  Rng rng(17);
  schema::Instance seeded = workload::MakePhoneUniverse(pd, &rng, 64);
  acc::AccPtr f = acc::ParseAccFormula(kDiamondExhaustive, bounded).value();
  automata::AAutomaton a = automata::CompileToAutomaton(f, bounded).value();
  automata::WitnessSearchOptions opts;
  opts.max_path_length = 3;
  engine::ExecOptions exec;
  exec.num_threads = static_cast<size_t>(state.range(0));
  WorkCounters work = AutomataWork();
  for (auto _ : state) {
    work.Start();
    automata::WitnessSearchResult r = automata::BoundedWitnessSearch(
        a, bounded, seeded, opts, exec);
    benchmark::DoNotOptimize(r.found);
    work.Record(state);
    state.counters["nodes"] = static_cast<double>(r.nodes_explored);
    state.counters["found"] = r.found ? 1 : 0;
    state.counters["truncated"] = r.exhausted_budget ? 1 : 0;
  }
}
BENCHMARK(BM_ParallelBoundedWitnessSweep)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->ArgNames({"threads"})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// LTS breadth-first exploration over a seeded phone universe: whole
// levels expand through the work-stealing deques and reduce at the
// barrier; the per-level stats are identical at every thread count.
void BM_ParallelLtsExplore(benchmark::State& state) {
  workload::PhoneDirectory pd = workload::MakePhoneDirectory();
  Rng rng(7);
  schema::LtsOptions opts;
  opts.universe = workload::MakePhoneUniverse(pd, &rng, 24);
  opts.grounded = false;
  opts.seed_values = {Value::Str("Smith")};
  engine::ExecOptions exec;
  exec.num_threads = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    std::vector<schema::LtsLevelStats> stats = schema::ExploreBreadthFirst(
        pd.schema, schema::Instance(pd.schema), opts, /*max_depth=*/2,
        /*max_nodes=*/200000, exec);
    benchmark::DoNotOptimize(stats.size());
    size_t configs = 0;
    for (const schema::LtsLevelStats& s : stats) {
      configs += s.distinct_configurations;
    }
    state.counters["configs"] = static_cast<double>(configs);
  }
}
BENCHMARK(BM_ParallelLtsExplore)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->ArgNames({"threads"})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace accltl

// Emits machine-readable results to BENCH_parallel.json by default
// (the per-thread-count scaling record); explicit --benchmark_out
// flags win.
int main(int argc, char** argv) {
  int status = accltl::bench::RunBenchmarks(argc, argv, "BENCH_parallel.json");
  std::fprintf(stderr,
               "process memory: peak_rss_bytes=%zu allocator_bytes=%zu\n",
               accltl::bench::PeakRssBytes(),
               accltl::bench::AllocatorFootprintBytes());
  return status;
}
