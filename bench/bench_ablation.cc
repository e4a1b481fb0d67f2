// Ablation harness for the design choices DESIGN.md calls out:
//   A. the §1 access-pruning optimizations in the dynamic executor
//      (provenance disjointness, value-flow reachability) — accesses
//      saved at equal answers, on a scaled Figure-1-style universe;
//   B. online monitoring engines (formula progression vs. compiled
//      A-automaton) — per-step cost on long sessions;
//   C. residual-obligation growth under progression — the constant
//      folding keeps residuals bounded for the paper's G/F/U policies;
//   D. witness shrinking — raw engine witnesses vs. their 1-minimal
//      forms (analysis/minimize).

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_context.h"
#include "src/accltl/parser.h"
#include "src/analysis/decide.h"
#include "src/analysis/properties.h"
#include "src/automata/compile.h"
#include "src/logic/parser.h"
#include "src/monitor/automaton_monitor.h"
#include "src/monitor/progression.h"
#include "src/planner/dynamic.h"
#include "src/workload/workload.h"

using namespace accltl;

namespace {

double MsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

struct ScaledWorld {
  workload::PhoneDirectory pd;
  schema::RelationId logs = 0;
  schema::Schema s;  // phone schema + irrelevant Log relation
  schema::Instance universe;
  std::vector<schema::DisjointnessConstraint> constraints;
  std::vector<Value> seeds;
};

/// N people spread over N/2 streets; name/street/postcode pools are
/// disjoint by construction, and a Log(int,int) relation is attached
/// that no string-typed form can consume.
ScaledWorld MakeWorld(int n) {
  ScaledWorld w;
  w.pd = workload::MakePhoneDirectory();
  w.s = w.pd.schema;
  w.logs = w.s.AddRelation("Log", {ValueType::kInt, ValueType::kInt});
  w.s.AddAccessMethod("AcMLog", w.logs, {0});
  w.universe = schema::Instance(w.s);
  for (int i = 0; i < n; ++i) {
    std::string name = "name" + std::to_string(i);
    std::string street = "st" + std::to_string(i / 2);
    std::string pc = "pc" + std::to_string(i / 4);
    w.universe.AddFact(w.pd.mobile, {Value::Str(name), Value::Str(pc),
                                     Value::Str(street), Value::Int(i)});
    w.universe.AddFact(w.pd.address, {Value::Str(street), Value::Str(pc),
                                      Value::Str(name), Value::Int(i)});
    w.universe.AddFact(w.logs, {Value::Int(i), Value::Int(i + 1)});
  }
  // All cross-kind (name/street/postcode) position pairs are disjoint.
  using PosRef = std::pair<schema::RelationId, schema::Position>;
  std::vector<std::vector<PosRef>> kinds = {
      {{w.pd.mobile, 0}, {w.pd.address, 2}},   // names
      {{w.pd.mobile, 2}, {w.pd.address, 0}},   // streets
      {{w.pd.mobile, 1}, {w.pd.address, 1}},   // postcodes
  };
  for (size_t a = 0; a < kinds.size(); ++a) {
    for (size_t b = a + 1; b < kinds.size(); ++b) {
      for (const PosRef& pa : kinds[a]) {
        for (const PosRef& pb : kinds[b]) {
          w.constraints.push_back({pa.first, pa.second, pb.first, pb.second});
        }
      }
    }
  }
  w.seeds = {Value::Str("name0"), Value::Int(0)};
  return w;
}

void PruningAblation() {
  std::printf(
      "A. dynamic-executor pruning ablation (scaled Figure-1 universe)\n"
      "   query: EXISTS n,p,s,ph . Mobile(n,p,s,ph); seeds: name0, 0\n\n"
      "   people | accesses      | accesses    | accesses   | answers\n"
      "          | (no pruning)  | (provenance)| (prov+flow)| agree\n"
      "   -------+---------------+-------------+------------+--------\n");
  for (int n : {4, 8, 16, 32}) {
    ScaledWorld w = MakeWorld(n);
    Result<logic::PosFormulaPtr> f =
        logic::ParseFormula("EXISTS n,p,s,ph . Mobile(n,p,s,ph)", w.s);
    Result<logic::Ucq> u = logic::NormalizeToUcq(f.value(), {}, w.s);
    const logic::Cq& q = u.value().disjuncts[0];

    planner::DynamicOptions brute;
    brute.seed_values = w.seeds;
    brute.prune_by_provenance = false;
    brute.prune_by_reachability = false;

    planner::DynamicOptions prov = brute;
    prov.prune_by_provenance = true;
    prov.disjointness = w.constraints;

    planner::DynamicOptions full = prov;
    full.prune_by_reachability = true;

    Result<planner::DynamicResult> r0 = planner::AnswerWithDynamicAccesses(
        q, w.s, w.universe, schema::Instance(w.s), brute);
    Result<planner::DynamicResult> r1 = planner::AnswerWithDynamicAccesses(
        q, w.s, w.universe, schema::Instance(w.s), prov);
    Result<planner::DynamicResult> r2 = planner::AnswerWithDynamicAccesses(
        q, w.s, w.universe, schema::Instance(w.s), full);
    bool agree = r0.value().answers == r1.value().answers &&
                 r1.value().answers == r2.value().answers;
    std::printf("   %6d | %13zu | %11zu | %10zu | %s\n", n,
                r0.value().stats.accesses_made, r1.value().stats.accesses_made,
                r2.value().stats.accesses_made, agree ? "yes" : "NO");
  }
  std::printf(
      "\n   Shape: pruning never changes answers and saves a growing\n"
      "   fraction of accesses as the universe scales (§1's motivation).\n\n");
}

void MonitorEngineAblation() {
  workload::PhoneDirectory pd = workload::MakePhoneDirectory();
  acc::AccPtr order =
      analysis::AccessOrderRestriction(pd.schema, pd.acm2, pd.acm1);
  acc::AccPtr flow =
      analysis::DataflowRestriction(pd.schema, pd.acm1, pd.address, 2);
  acc::AccPtr policy = acc::AccFormula::And({order, flow});
  Result<automata::AAutomaton> compiled =
      automata::CompileToAutomaton(policy, pd.schema);

  // A long compliant session alternating the two lookups.
  schema::AccessStep addr;
  addr.access = {pd.acm2, {Value::Str("Parks Rd"), Value::Str("OX13QD")}};
  addr.response = {{Value::Str("Parks Rd"), Value::Str("OX13QD"),
                    Value::Str("Smith"), Value::Int(13)}};
  schema::AccessStep mob;
  mob.access = {pd.acm1, {Value::Str("Smith")}};
  mob.response = {{Value::Str("Smith"), Value::Str("OX13QD"),
                   Value::Str("Parks Rd"), Value::Int(5551212)}};
  const size_t kSteps = 2000;

  auto run_progression = [&]() {
    monitor::ProgressionMonitor m(policy, pd.schema,
                                  schema::Instance(pd.schema));
    for (size_t i = 0; i < kSteps; ++i) {
      const schema::AccessStep& s = (i % 2 == 0) ? addr : mob;
      m.Step(s.access, s.response);
    }
    return m.verdict();
  };
  auto run_automaton = [&]() {
    monitor::AutomatonMonitor m(compiled.value(), pd.schema,
                                schema::Instance(pd.schema));
    for (size_t i = 0; i < kSteps; ++i) {
      const schema::AccessStep& s = (i % 2 == 0) ? addr : mob;
      m.Step(s.access, s.response);
    }
    return m.verdict();
  };

  auto t0 = std::chrono::steady_clock::now();
  monitor::Verdict v1 = run_progression();
  double ms_prog = MsSince(t0);
  t0 = std::chrono::steady_clock::now();
  monitor::Verdict v2 = run_automaton();
  double ms_auto = MsSince(t0);

  std::printf(
      "B. monitor engines on a %zu-step compliant session\n"
      "   (order + dataflow policy; automaton: %d states, %zu transitions)\n\n"
      "   engine      | verdict         | total ms | us/step\n"
      "   ------------+-----------------+----------+--------\n"
      "   progression | %-15s | %8.2f | %6.2f\n"
      "   automaton   | %-15s | %8.2f | %6.2f\n\n"
      "   Shape: both engines agree on the running verdict; progression\n"
      "   pays per-formula folding, the automaton pays per-transition\n"
      "   guard evaluation (more states/guards after Lemma 4.5 blowup).\n\n",
      kSteps, compiled.value().num_states(),
      compiled.value().transitions().size(), monitor::VerdictName(v1),
      ms_prog, 1000.0 * ms_prog / static_cast<double>(kSteps),
      monitor::VerdictName(v2), ms_auto,
      1000.0 * ms_auto / static_cast<double>(kSteps));
}

void ResidualGrowth() {
  workload::PhoneDirectory pd = workload::MakePhoneDirectory();
  struct Row {
    const char* label;
    acc::AccPtr formula;
  };
  acc::AccPtr bind1 =
      acc::ParseAccFormula("[IsBind_AcM1()]", pd.schema).value();
  acc::AccPtr bind2 =
      acc::ParseAccFormula("[IsBind_AcM2()]", pd.schema).value();
  std::vector<Row> rows = {
      {"F (AcM1)", acc::AccFormula::Eventually(bind1)},
      {"G (not AcM1)", acc::AccFormula::Globally(acc::AccFormula::Not(bind1))},
      {"(not AcM1) U AcM2", acc::AccFormula::Until(
                                acc::AccFormula::Not(bind1), bind2)},
  };
  schema::AccessStep addr;
  addr.access = {pd.acm2, {Value::Str("Parks Rd"), Value::Str("OX13QD")}};
  addr.response = {};

  std::printf(
      "C. residual size under progression (100 non-matching steps)\n\n"
      "   policy            | size@1 | size@10 | size@100\n"
      "   ------------------+--------+---------+---------\n");
  for (const Row& row : rows) {
    monitor::ProgressionMonitor m(row.formula, pd.schema,
                                  schema::Instance(pd.schema));
    size_t s1 = 0, s10 = 0, s100 = 0;
    for (int i = 1; i <= 100; ++i) {
      m.Step(addr.access, addr.response);
      if (i == 1) s1 = m.ResidualSize();
      if (i == 10) s10 = m.ResidualSize();
      if (i == 100) s100 = m.ResidualSize();
    }
    std::printf("   %-17s | %6zu | %7zu | %8zu\n", row.label, s1, s10, s100);
  }
  std::printf(
      "\n   Shape: constant folding keeps residuals at a fixed size —\n"
      "   progression is a true online algorithm for these policies.\n");
}

void WitnessShrinking() {
  workload::PhoneDirectory pd = workload::MakePhoneDirectory();
  struct Probe {
    const char* label;
    const char* formula;
  };
  // Formula families whose raw engine witnesses typically carry
  // exploration padding.
  std::vector<Probe> probes = {
      {"F AcM1-with-known-name",
       "F [EXISTS n . IsBind_AcM1(n) AND "
       "(EXISTS s,p,h . Address_pre(s,p,n,h))]"},
      {"order: AcM2 before AcM1",
       "((NOT [IsBind_AcM1()]) U [IsBind_AcM2()]) AND F [IsBind_AcM1()]"},
      {"two obligations",
       "F [EXISTS n,p,s,ph . Mobile_post(n,p,s,ph)] AND "
       "F [EXISTS s,p,n,h . Address_post(s,p,n,h)]"},
  };
  std::printf(
      "D. witness shrinking (analysis/minimize, DecideOptions::"
      "shrink_witness)\n\n"
      "   property                   | raw steps/facts | shrunk steps/facts\n"
      "   ---------------------------+-----------------+-------------------\n");
  for (const Probe& probe : probes) {
    Result<acc::AccPtr> f =
        acc::ParseAccFormula(probe.formula, pd.schema);
    if (!f.ok()) continue;
    analysis::DecideOptions raw;
    Result<analysis::Decision> d1 =
        analysis::DecideSatisfiability(f.value(), pd.schema, raw);
    analysis::DecideOptions shrink = raw;
    shrink.shrink_witness = true;
    Result<analysis::Decision> d2 =
        analysis::DecideSatisfiability(f.value(), pd.schema, shrink);
    if (!d1.ok() || !d2.ok() || !d1.value().has_witness) continue;
    auto facts = [](const schema::AccessPath& p) {
      size_t n = 0;
      for (const schema::AccessStep& s : p.steps()) n += s.response.size();
      return n;
    };
    std::printf("   %-26s | %7zu / %5zu | %8zu / %6zu\n", probe.label,
                d1.value().witness.size(), facts(d1.value().witness),
                d2.value().witness.size(), facts(d2.value().witness));
  }
  std::printf(
      "\n   Shape: shrunk witnesses are 1-minimal — every remaining step\n"
      "   and response tuple is load-bearing for the property.\n");
}

}  // namespace

int main() {
  accltl::bench::PrintBuildContext();
  std::printf("=== Ablations (DESIGN.md design choices) ===\n\n");
  PruningAblation();
  MonitorEngineAblation();
  ResidualGrowth();
  WitnessShrinking();
  return 0;
}
