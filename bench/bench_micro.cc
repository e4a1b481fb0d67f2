// Google-benchmark microbenchmarks for the experiment index E4-E10:
// decision-engine scaling (zero-ary solver, LTL tableau, bounded
// automata search, Datalog containment), the Lemma 4.5 compile blowup,
// containment/relevance applications, and the accessible-part baselines.

#include <benchmark/benchmark.h>

#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_context.h"
#include "src/accltl/parser.h"
#include "src/analysis/accessible.h"
#include "src/analysis/decide.h"
#include "src/analysis/properties.h"
#include "src/analysis/zero_solver.h"
#include "src/automata/compile.h"
#include "src/automata/emptiness.h"
#include "src/datalog/containment.h"
#include "src/datalog/eval.h"
#include "src/logic/parser.h"
#include "src/ltl/sat.h"
#include "src/workload/workload.h"

namespace accltl {
namespace {

// --- E10: finite-word LTL tableau scaling (PSPACE substrate) ---------------

void BM_LtlSatChainOfUntils(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  // (p0 U (p1 U (... U pn))): tableau grows with n.
  ltl::LtlPtr f = ltl::LtlFormula::Prop(n);
  for (int i = n - 1; i >= 0; --i) {
    f = ltl::LtlFormula::Until(ltl::LtlFormula::Prop(i), f);
  }
  for (auto _ : state) {
    ltl::SatResult r = ltl::CheckSatFinite(f);
    benchmark::DoNotOptimize(r.satisfiable);
    state.counters["states"] = static_cast<double>(r.states_explored);
  }
}
BENCHMARK(BM_LtlSatChainOfUntils)->DenseRange(2, 10, 2);

void BM_LtlSatXChain(benchmark::State& state) {
  // X-only fragment (NP): X^n p.
  int n = static_cast<int>(state.range(0));
  ltl::LtlPtr f = ltl::LtlFormula::Prop(0);
  for (int i = 0; i < n; ++i) f = ltl::LtlFormula::Next(f);
  for (auto _ : state) {
    ltl::SatResult r = ltl::CheckSatFinite(f);
    benchmark::DoNotOptimize(r.satisfiable);
  }
}
BENCHMARK(BM_LtlSatXChain)->DenseRange(2, 16, 2);

// --- E6: zero-ary solver scaling (Thm 4.12 / 4.14) --------------------------

void BM_ZeroSolverEventuallyChain(benchmark::State& state) {
  workload::PhoneDirectory pd = workload::MakePhoneDirectory();
  int n = static_cast<int>(state.range(0));
  // F[a1] AND F[a2] AND ... over distinct access-order atoms.
  std::vector<acc::AccPtr> conj;
  for (int i = 0; i < n; ++i) {
    conj.push_back(acc::AccFormula::Eventually(acc::AccFormula::Atom(
        logic::PosFormula::MakeAtom(
            logic::Bind(i % pd.schema.num_access_methods()), {}))));
  }
  acc::AccPtr f = acc::AccFormula::And(std::move(conj));
  for (auto _ : state) {
    Result<analysis::ZeroSolverResult> r =
        analysis::CheckZeroArySatisfiable(f, pd.schema);
    benchmark::DoNotOptimize(r.ok());
    if (r.ok()) {
      state.counters["nodes"] =
          static_cast<double>(r.value().nodes_explored);
    }
  }
}
BENCHMARK(BM_ZeroSolverEventuallyChain)->DenseRange(1, 5, 1);

void BM_ZeroSolverXOnly(benchmark::State& state) {
  workload::PhoneDirectory pd = workload::MakePhoneDirectory();
  int n = static_cast<int>(state.range(0));
  acc::AccPtr f = acc::AccFormula::Atom(
      logic::PosFormula::MakeAtom(logic::Bind(pd.acm2), {}));
  for (int i = 0; i < n; ++i) f = acc::AccFormula::Next(f);
  for (auto _ : state) {
    Result<analysis::ZeroSolverResult> r =
        analysis::CheckZeroArySatisfiable(f, pd.schema);
    benchmark::DoNotOptimize(r.ok());
  }
}
BENCHMARK(BM_ZeroSolverXOnly)->DenseRange(1, 9, 2);

// --- E7: Lemma 4.5 compile blowup + emptiness engines ------------------------

void BM_CompileBlowup(benchmark::State& state) {
  workload::PhoneDirectory pd = workload::MakePhoneDirectory();
  int n = static_cast<int>(state.range(0));
  std::vector<acc::AccPtr> conj;
  for (int i = 0; i < n; ++i) {
    conj.push_back(acc::AccFormula::Eventually(acc::AccFormula::Atom(
        logic::PosFormula::MakeAtom(
            logic::Bind(i % pd.schema.num_access_methods()), {}))));
  }
  acc::AccPtr f = acc::AccFormula::And(std::move(conj));
  for (auto _ : state) {
    automata::CompileStats stats;
    Result<automata::AAutomaton> a =
        automata::CompileToAutomaton(f, pd.schema, 1u << 20, &stats);
    benchmark::DoNotOptimize(a.ok());
    // Lemma 4.5: exponential in the formula size (2^n F-obligations).
    state.counters["tableau_states"] =
        static_cast<double>(stats.tableau_states);
  }
}
BENCHMARK(BM_CompileBlowup)->DenseRange(1, 8, 1);

void BM_BoundedWitnessSearch(benchmark::State& state) {
  workload::PhoneDirectory pd = workload::MakePhoneDirectory();
  acc::AccPtr f =
      acc::ParseAccFormula(
          "F [EXISTS n . IsBind_AcM1(n) AND "
          "(EXISTS s,p,h . Address_pre(s,p,n,h))]",
          pd.schema)
          .value();
  automata::AAutomaton a =
      automata::CompileToAutomaton(f, pd.schema).value();
  automata::WitnessSearchOptions opts;
  opts.max_path_length = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    automata::WitnessSearchResult r = automata::BoundedWitnessSearch(
        a, pd.schema, schema::Instance(pd.schema), opts);
    benchmark::DoNotOptimize(r.found);
    state.counters["nodes"] = static_cast<double>(r.nodes_explored);
  }
}
BENCHMARK(BM_BoundedWitnessSearch)->DenseRange(2, 5, 1);

// Witness search starting from a *seeded* configuration: every search
// node carries a configuration of ~2*(3+N) facts, so per-node instance
// copying and guard re-matching dominate. This is the workload the
// interned COW fact store targets.
void BM_BoundedWitnessSearchSeeded(benchmark::State& state) {
  workload::PhoneDirectory pd = workload::MakePhoneDirectory();
  Rng rng(11);
  schema::Instance seeded = workload::MakePhoneUniverse(
      pd, &rng, static_cast<size_t>(state.range(0)));
  acc::AccPtr f =
      acc::ParseAccFormula(
          "F [EXISTS n . IsBind_AcM1(n) AND "
          "(EXISTS s,p,h . Address_pre(s,p,n,h))] AND "
          "F [EXISTS s,p . IsBind_AcM2(s,p) AND "
          "(EXISTS n,ph . Mobile_pre(n,p,s,ph))]",
          pd.schema)
          .value();
  automata::AAutomaton a =
      automata::CompileToAutomaton(f, pd.schema).value();
  automata::WitnessSearchOptions opts;
  opts.max_path_length = 4;
  for (auto _ : state) {
    automata::WitnessSearchResult r =
        automata::BoundedWitnessSearch(a, pd.schema, seeded, opts);
    benchmark::DoNotOptimize(r.found);
    state.counters["nodes"] = static_cast<double>(r.nodes_explored);
  }
}
BENCHMARK(BM_BoundedWitnessSearchSeeded)->RangeMultiplier(4)->Range(4, 256);

// Conjunction of n independent eventualities: the compiled automaton is
// a 2^n-obligation diamond, so many interleavings reach the same
// (state, configuration) pair. Visited-configuration dedup collapses
// the diamond; configuration hashing makes the dedup cheap.
void BM_WitnessSearchDiamond(benchmark::State& state) {
  workload::PhoneDirectory pd = workload::MakePhoneDirectory();
  Rng rng(13);
  schema::Instance seeded = workload::MakePhoneUniverse(pd, &rng, 32);
  int n = static_cast<int>(state.range(0));
  std::string text;
  for (int i = 0; i < n; ++i) {
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
  opts.max_path_length = static_cast<size_t>(n + 2);
  for (auto _ : state) {
    automata::WitnessSearchResult r =
        automata::BoundedWitnessSearch(a, pd.schema, seeded, opts);
    benchmark::DoNotOptimize(r.found);
    state.counters["nodes"] = static_cast<double>(r.nodes_explored);
  }
}
BENCHMARK(BM_WitnessSearchDiamond)->DenseRange(2, 4, 1);

// Breadth-first LTS exploration with configuration dedup: transitions
// per level vastly outnumber distinct configurations, so the dedup
// structure (deep set<Instance> compare vs hash lookup) dominates.
void BM_LtsExploreDedup(benchmark::State& state) {
  workload::PhoneDirectory pd = workload::MakePhoneDirectory();
  Rng rng(17);
  schema::LtsOptions lopts;
  lopts.universe = workload::MakePhoneUniverse(
      pd, &rng, static_cast<size_t>(state.range(0)));
  lopts.grounded = false;
  lopts.seed_values = {Value::Str("Smith")};
  for (auto _ : state) {
    std::vector<schema::LtsLevelStats> stats = schema::ExploreBreadthFirst(
        pd.schema, schema::Instance(pd.schema), lopts, 2, 4000);
    size_t transitions = 0, distinct = 0;
    for (const schema::LtsLevelStats& s : stats) {
      transitions += s.transitions;
      distinct += s.distinct_configurations;
    }
    benchmark::DoNotOptimize(distinct);
    state.counters["transitions"] = static_cast<double>(transitions);
    state.counters["distinct"] = static_cast<double>(distinct);
  }
}
BENCHMARK(BM_LtsExploreDedup)->RangeMultiplier(2)->Range(2, 8);

void BM_DatalogPipelineEmptiness(benchmark::State& state) {
  workload::PhoneDirectory pd = workload::MakePhoneDirectory();
  acc::AccPtr f =
      acc::ParseAccFormula("F [EXISTS n,p,s,ph . Mobile_post(n,p,s,ph)]",
                           pd.schema)
          .value();
  automata::AAutomaton a =
      automata::CompileToAutomaton(f, pd.schema).value();
  for (auto _ : state) {
    automata::PipelineStats stats;
    Result<bool> empty =
        automata::EmptinessViaDatalog(a, pd.schema, {}, &stats);
    benchmark::DoNotOptimize(empty.ok());
    state.counters["variants"] = static_cast<double>(stats.variants);
    state.counters["rules"] = static_cast<double>(stats.datalog_rules);
  }
}
BENCHMARK(BM_DatalogPipelineEmptiness);

// --- E7: Prop 4.11 Datalog-containment scaling ------------------------------

void BM_DatalogContainmentChain(benchmark::State& state) {
  using datalog::DlAtom;
  using datalog::DlCq;
  using datalog::Program;
  int n = static_cast<int>(state.range(0));
  auto V = [](const std::string& v) { return logic::Term::Var(v); };
  Program p;
  p.AddRule({{"tc", {V("x"), V("y")}}, {{"e", {V("x"), V("y")}}}});
  p.AddRule({{"tc", {V("x"), V("z")}},
             {{"tc", {V("x"), V("y")}}, {"e", {V("y"), V("z")}}}});
  p.AddRule({{"goal", {}}, {{"tc", {V("x"), V("y")}}}});
  p.SetGoal("goal");
  // Query: an n-chain of edges exists.
  datalog::DlUcq q;
  DlCq chain;
  for (int i = 0; i < n; ++i) {
    chain.atoms.push_back(DlAtom{
        "e", {V("c" + std::to_string(i)), V("c" + std::to_string(i + 1))}});
  }
  q.push_back(chain);
  for (auto _ : state) {
    datalog::ContainmentStats stats;
    Result<bool> r = datalog::ContainedInPositive(p, q, {}, &stats);
    benchmark::DoNotOptimize(r.ok());
    state.counters["type_entries"] =
        static_cast<double>(stats.type_entries);
  }
}
BENCHMARK(BM_DatalogContainmentChain)->DenseRange(1, 3, 1);

// --- E9: accessible part — direct fixpoint vs generated Datalog -------------

void BM_AccessibleDirect(benchmark::State& state) {
  workload::PhoneDirectory pd = workload::MakePhoneDirectory();
  Rng rng(7);
  schema::Instance universe = workload::MakePhoneUniverse(
      pd, &rng, static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    schema::Instance acc = analysis::AccessiblePart(
        pd.schema, universe, schema::Instance(pd.schema),
        {Value::Str("Smith")});
    benchmark::DoNotOptimize(acc.TotalFacts());
  }
}
BENCHMARK(BM_AccessibleDirect)->RangeMultiplier(4)->Range(4, 256);

void BM_AccessibleViaDatalog(benchmark::State& state) {
  workload::PhoneDirectory pd = workload::MakePhoneDirectory();
  Rng rng(7);
  schema::Instance universe = workload::MakePhoneUniverse(
      pd, &rng, static_cast<size_t>(state.range(0)));
  datalog::Program prog = analysis::AccessibleDatalogProgram(pd.schema);
  datalog::DlDatabase edb = analysis::EncodeForDatalog(
      pd.schema, universe, {Value::Str("Smith")});
  for (auto _ : state) {
    datalog::DlDatabase result = datalog::Evaluate(prog, edb);
    benchmark::DoNotOptimize(result.TotalFacts());
  }
}
BENCHMARK(BM_AccessibleViaDatalog)->RangeMultiplier(4)->Range(4, 256);

void BM_SemiNaiveVsNaive(benchmark::State& state) {
  // Chain graph: semi-naive shines as the chain grows.
  using datalog::DlAtom;
  auto V = [](const std::string& v) { return logic::Term::Var(v); };
  datalog::Program p;
  p.AddRule({{"tc", {V("x"), V("y")}}, {{"e", {V("x"), V("y")}}}});
  p.AddRule({{"tc", {V("x"), V("z")}},
             {{"tc", {V("x"), V("y")}}, {"e", {V("y"), V("z")}}}});
  p.AddRule({{"goal", {}}, {{"tc", {V("x"), V("y")}}}});
  p.SetGoal("goal");
  datalog::DlDatabase db;
  int n = static_cast<int>(state.range(0));
  for (int i = 0; i < n; ++i) {
    db.AddFact("e", {Value::Int(i), Value::Int(i + 1)});
  }
  bool naive = state.range(1) != 0;
  for (auto _ : state) {
    datalog::DlDatabase out =
        naive ? datalog::EvaluateNaive(p, db) : datalog::Evaluate(p, db);
    benchmark::DoNotOptimize(out.TotalFacts());
  }
}
BENCHMARK(BM_SemiNaiveVsNaive)
    ->Args({16, 0})
    ->Args({16, 1})
    ->Args({48, 0})
    ->Args({48, 1});

// --- E4/E5: application-level decisions --------------------------------------

void BM_ContainmentUnderAccessPatterns(benchmark::State& state) {
  workload::PhoneDirectory pd = workload::MakePhoneDirectory();
  logic::PosFormulaPtr q1 =
      logic::ParseFormula("EXISTS n,p,s,ph . Mobile(n,p,s,ph)", pd.schema)
          .value();
  logic::PosFormulaPtr q2 =
      logic::ParseFormula(
          "EXISTS n,p,s,ph,st,nm,h . Mobile(n,p,s,ph) AND "
          "Address(st,p,nm,h)",
          pd.schema)
          .value();
  for (auto _ : state) {
    Result<analysis::Decision> d = analysis::ContainedUnderAccessPatterns(
        q1, q2, pd.schema, {}, {});
    benchmark::DoNotOptimize(d.ok());
  }
}
BENCHMARK(BM_ContainmentUnderAccessPatterns);

void BM_LongTermRelevance(benchmark::State& state) {
  workload::PhoneDirectory pd = workload::MakePhoneDirectory();
  logic::PosFormulaPtr q =
      logic::ParseFormula("EXISTS n,p,s,ph . Mobile(n,p,s,ph)", pd.schema)
          .value();
  for (auto _ : state) {
    Result<analysis::Decision> d = analysis::IsLongTermRelevant(
        pd.schema, pd.acm1, {Value::Str("Smith")}, q, {}, {});
    benchmark::DoNotOptimize(d.ok());
  }
}
BENCHMARK(BM_LongTermRelevance);

}  // namespace
}  // namespace accltl

// Emits machine-readable results to BENCH_micro.json by default (later
// PRs diff these files to track the perf trajectory); explicit
// --benchmark_out flags win.
int main(int argc, char** argv) {
  return accltl::bench::RunBenchmarks(argc, argv, "BENCH_micro.json");
}
