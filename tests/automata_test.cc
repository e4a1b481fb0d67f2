#include <gtest/gtest.h>

#include "src/accltl/fragments.h"
#include "src/accltl/parser.h"
#include "src/accltl/semantics.h"
#include "src/automata/compile.h"
#include "src/automata/emptiness.h"
#include "src/automata/progressive.h"
#include "src/logic/parser.h"
#include "src/obs/metrics.h"
#include "src/workload/workload.h"

namespace accltl {
namespace automata {
namespace {

Value S(const std::string& s) { return Value::Str(s); }
Value I(int64_t i) { return Value::Int(i); }

class AutomataTest : public ::testing::Test {
 protected:
  AutomataTest() : pd_(workload::MakePhoneDirectory()) {}

  logic::PosFormulaPtr ParseL(const std::string& text) {
    Result<logic::PosFormulaPtr> r = logic::ParseFormula(text, pd_.schema);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() ? r.value() : logic::PosFormula::False();
  }

  acc::AccPtr ParseAcc(const std::string& text) {
    Result<acc::AccPtr> r = acc::ParseAccFormula(text, pd_.schema);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() ? r.value() : acc::AccFormula::False();
  }

  schema::AccessPath IntroPath() {
    schema::AccessStep s1;
    s1.access = {pd_.acm1, {S("Smith")}};
    s1.response = {{S("Smith"), S("OX13QD"), S("Parks Rd"), I(5551212)}};
    schema::AccessStep s2;
    s2.access = {pd_.acm2, {S("Parks Rd"), S("OX13QD")}};
    s2.response = {{S("Parks Rd"), S("OX13QD"), S("Jones"), I(16)}};
    return schema::AccessPath({s1, s2});
  }

  workload::PhoneDirectory pd_;
};

TEST_F(AutomataTest, GuardEvalAndValidation) {
  AAutomaton a;
  int s0 = a.AddState();
  int s1 = a.AddState();
  a.SetInitial(s0);
  a.AddAccepting(s1);
  Guard g;
  g.positive = ParseL("EXISTS n . IsBind_AcM1(n)");
  g.negated = {ParseL("EXISTS n,p,s,ph . Mobile_pre(n,p,s,ph)")};
  a.AddTransition(s0, g, s1);
  EXPECT_TRUE(a.Validate().ok());

  // A negated guard with IsBind violates Def. 4.3.
  AAutomaton bad;
  bad.AddState();
  bad.SetInitial(0);
  Guard bg;
  bg.negated = {ParseL("EXISTS n . IsBind_AcM1(n)")};
  bad.AddTransition(0, bg, 0);
  EXPECT_FALSE(bad.Validate().ok());
}

TEST_F(AutomataTest, RunsOverPaths) {
  // Accepts paths whose first access is AcM1 on a fresh Mobile table.
  AAutomaton a;
  int s0 = a.AddState();
  int s1 = a.AddState();
  a.SetInitial(s0);
  a.AddAccepting(s1);
  Guard first;
  first.positive = ParseL("EXISTS n . IsBind_AcM1(n)");
  first.negated = {ParseL("EXISTS n,p,s,ph . Mobile_pre(n,p,s,ph)")};
  a.AddTransition(s0, first, s1);
  Guard rest;
  rest.positive = logic::PosFormula::True();
  a.AddTransition(s1, rest, s1);

  EXPECT_TRUE(
      Accepts(a, pd_.schema, IntroPath(), schema::Instance(pd_.schema)));
  // With a pre-populated Mobile table the negated guard fails.
  schema::Instance seeded(pd_.schema);
  seeded.AddFact(pd_.mobile, {S("X"), S("Y"), S("Z"), I(0)});
  EXPECT_FALSE(Accepts(a, pd_.schema, IntroPath(), seeded));
}

TEST_F(AutomataTest, CompileRejectsNonBindingPositive) {
  acc::AccPtr bad = ParseAcc("F NOT [EXISTS n . IsBind_AcM1(n)]");
  Result<AAutomaton> r = CompileToAutomaton(bad, pd_.schema);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kUnsupported);
}

TEST_F(AutomataTest, CompiledAutomatonMatchesSemantics) {
  acc::AccPtr f = ParseAcc(
      "F [EXISTS s,pc,h . Address_post(s, pc, \"Jones\", h)]");
  Result<AAutomaton> a = CompileToAutomaton(f, pd_.schema);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  schema::Instance empty(pd_.schema);
  schema::AccessPath p = IntroPath();
  EXPECT_EQ(acc::EvalOnPath(f, pd_.schema, p, empty),
            Accepts(a.value(), pd_.schema, p, empty));
  EXPECT_TRUE(Accepts(a.value(), pd_.schema, p, empty));

  // A path that never reveals Jones is rejected.
  schema::AccessStep only_smith;
  only_smith.access = {pd_.acm1, {S("Smith")}};
  only_smith.response = {
      {S("Smith"), S("OX13QD"), S("Parks Rd"), I(5551212)}};
  schema::AccessPath q({only_smith});
  EXPECT_FALSE(Accepts(a.value(), pd_.schema, q, empty));
  EXPECT_FALSE(acc::EvalOnPath(f, pd_.schema, q, empty));
}

/// Property: over random binding-positive formulas and random sampled
/// paths, the compiled automaton agrees with direct path semantics
/// (Lemma 4.5's equivalence).
class CompilePropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(CompilePropertyTest, AutomatonEquivalentToFormulaOnSampledPaths) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 97 + 7);
  workload::PhoneDirectory pd = workload::MakePhoneDirectory();
  acc::AccPtr f =
      workload::RandomBindingPositiveFormula(&rng, pd.schema, 3);
  Result<AAutomaton> a = CompileToAutomaton(f, pd.schema);
  ASSERT_TRUE(a.ok()) << a.status().ToString() << "\n"
                      << f->ToString(pd.schema);
  schema::Instance universe = workload::MakePhoneUniverse(pd, &rng, 2);
  schema::LtsOptions opts;
  opts.universe = universe;
  opts.seed_values = {S("Smith")};
  // Sample random walks of length 1..3 and compare.
  for (int walk = 0; walk < 8; ++walk) {
    schema::Instance current(pd.schema);
    std::vector<schema::AccessStep> steps;
    size_t len = 1 + rng.Uniform(3);
    for (size_t i = 0; i < len; ++i) {
      std::vector<schema::Transition> succ =
          Successors(pd.schema, current, opts);
      if (succ.empty()) break;
      schema::Transition& t = succ[rng.Uniform(succ.size())];
      steps.push_back(schema::AccessStep{t.access, t.response});
      current = t.post;
    }
    if (steps.empty()) continue;
    schema::AccessPath path(steps);
    schema::Instance empty(pd.schema);
    EXPECT_EQ(acc::EvalOnPath(f, pd.schema, path, empty),
              Accepts(a.value(), pd.schema, path, empty))
        << f->ToString(pd.schema) << "\npath:\n"
        << path.ToString(pd.schema);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CompilePropertyTest, ::testing::Range(0, 30));

TEST_F(AutomataTest, BoundedEmptinessFindsWitness) {
  acc::AccPtr f = ParseAcc(
      "F [EXISTS n,p,s,ph . Mobile_post(n,p,s,ph)]");
  Result<AAutomaton> a = CompileToAutomaton(f, pd_.schema);
  ASSERT_TRUE(a.ok());
  WitnessSearchOptions opts;
  opts.max_path_length = 3;
  WitnessSearchResult r = BoundedWitnessSearch(
      a.value(), pd_.schema, schema::Instance(pd_.schema), opts);
  ASSERT_TRUE(r.found);
  // The witness genuinely satisfies the formula.
  EXPECT_TRUE(acc::EvalOnPath(f, pd_.schema, r.witness,
                              schema::Instance(pd_.schema)));
}

// The automaton keeps the search plan its first search built. A search
// over a schema whose relation types differ where the plan froze facts
// gets a plan of its own (and the answer a fresh compile gives there);
// a copy shares the plan until AddTransition drops it.
TEST_F(AutomataTest, SearchPlanIsReusedOnlyWhereTheSchemaAgrees) {
  obs::SetMetricsEnabled(true);
  obs::Counter* builds = obs::Registry::Get().counter("automata.plan_builds");
  const std::string text =
      "F [EXISTS n . IsBind_AcM1(n) AND "
      "(EXISTS s,p,h . Address_pre(s,p,n,h))]";
  schema::Schema retyped;  // Address.houseno is a string here
  retyped.AddRelation("Mobile", pd_.schema.relation(pd_.mobile).position_types);
  retyped.AddRelation("Address", {ValueType::kString, ValueType::kString,
                                  ValueType::kString, ValueType::kString});
  retyped.AddAccessMethod("AcM1", pd_.mobile, {0});
  retyped.AddAccessMethod("AcM2", pd_.address, {0, 1});
  Result<AAutomaton> a = CompileToAutomaton(ParseAcc(text), pd_.schema);
  ASSERT_TRUE(a.ok());
  auto search = [](const AAutomaton& automaton, const schema::Schema& s) {
    WitnessSearchResult r = BoundedWitnessSearch(
        automaton, s, schema::Instance(s), WitnessSearchOptions{});
    EXPECT_TRUE(r.found);
    return r.witness.ToString(s) + "|" + std::to_string(r.nodes_explored);
  };

  uint64_t before = builds->Value();
  std::string own = search(a.value(), pd_.schema);
  EXPECT_EQ(builds->Value() - before, 1u);
  EXPECT_EQ(search(a.value(), pd_.schema), own);
  EXPECT_EQ(builds->Value() - before, 1u);

  Result<acc::AccPtr> f = acc::ParseAccFormula(text, retyped);
  ASSERT_TRUE(f.ok()) << f.status().ToString();
  Result<AAutomaton> fresh = CompileToAutomaton(f.value(), retyped);
  ASSERT_TRUE(fresh.ok());
  std::string want = search(fresh.value(), retyped);
  before = builds->Value();
  EXPECT_EQ(search(a.value(), retyped), want);
  EXPECT_EQ(search(a.value(), retyped), want);
  EXPECT_EQ(builds->Value() - before, 2u);  // one per search
  EXPECT_EQ(search(a.value(), pd_.schema), own);
  EXPECT_EQ(builds->Value() - before, 2u);  // the kept plan again

  AAutomaton copy = a.value();
  EXPECT_EQ(search(copy, pd_.schema), own);
  EXPECT_EQ(builds->Value() - before, 2u);
  copy.AddTransition(copy.initial(), Guard{}, copy.initial());
  search(copy, pd_.schema);
  EXPECT_EQ(builds->Value() - before, 3u);
  EXPECT_EQ(search(a.value(), pd_.schema), own);
  EXPECT_EQ(builds->Value() - before, 3u);
}

TEST_F(AutomataTest, BoundedEmptinessRespectsUnsatisfiable) {
  // [FALSE] is unsatisfiable: no witness at any bound.
  acc::AccPtr f = acc::AccFormula::Atom(logic::PosFormula::False());
  Result<AAutomaton> a = CompileToAutomaton(f, pd_.schema);
  ASSERT_TRUE(a.ok());
  WitnessSearchOptions opts;
  opts.max_path_length = 3;
  WitnessSearchResult r = BoundedWitnessSearch(
      a.value(), pd_.schema, schema::Instance(pd_.schema), opts);
  EXPECT_FALSE(r.found);
}

TEST_F(AutomataTest, BoundedEmptinessDataflowGuard) {
  // The intro property: an AcM1 access whose name was previously
  // revealed in Address — requires a 2-step witness with dataflow.
  acc::AccPtr f = ParseAcc(
      "F [EXISTS n . IsBind_AcM1(n) AND "
      "(EXISTS s,p,h . Address_pre(s,p,n,h))]");
  Result<AAutomaton> a = CompileToAutomaton(f, pd_.schema);
  ASSERT_TRUE(a.ok());
  WitnessSearchOptions opts;
  opts.max_path_length = 3;
  WitnessSearchResult r = BoundedWitnessSearch(
      a.value(), pd_.schema, schema::Instance(pd_.schema), opts);
  ASSERT_TRUE(r.found);
  EXPECT_GE(r.witness.size(), 2u);
  EXPECT_TRUE(acc::EvalOnPath(f, pd_.schema, r.witness,
                              schema::Instance(pd_.schema)));
}

TEST_F(AutomataTest, GroundedSearchBlocksGuessedBindings) {
  // Grounded from the empty instance, no AcM1 access is possible (its
  // binding would be guessed), so nothing is ever revealed.
  acc::AccPtr f = ParseAcc("F [EXISTS n,p,s,ph . Mobile_post(n,p,s,ph)]");
  Result<AAutomaton> a = CompileToAutomaton(f, pd_.schema);
  ASSERT_TRUE(a.ok());
  WitnessSearchOptions opts;
  opts.max_path_length = 4;
  opts.grounded = true;
  WitnessSearchResult r = BoundedWitnessSearch(
      a.value(), pd_.schema, schema::Instance(pd_.schema), opts);
  EXPECT_FALSE(r.found);
}

// --- Progressive decomposition & the Datalog pipeline ----------------------

TEST_F(AutomataTest, DecomposeSimpleEventually) {
  acc::AccPtr f = ParseAcc("F [EXISTS n,p,s,ph . Mobile_post(n,p,s,ph)]");
  Result<AAutomaton> a = CompileToAutomaton(f, pd_.schema);
  ASSERT_TRUE(a.ok());
  Result<std::vector<ProgressiveAutomaton>> vars =
      DecomposeToProgressive(a.value(), pd_.schema);
  ASSERT_TRUE(vars.ok()) << vars.status().ToString();
  EXPECT_FALSE(vars.value().empty());
  for (const ProgressiveAutomaton& pa : vars.value()) {
    EXPECT_GE(pa.stages.size(), 1u);
    // Types are monotone across stages.
    for (size_t i = 1; i < pa.stages.size(); ++i) {
      for (size_t k = 0; k < pa.phi.size(); ++k) {
        EXPECT_LE(pa.stages[i - 1].type[k], pa.stages[i].type[k]);
      }
    }
  }
}

TEST_F(AutomataTest, PipelineAgreesWithBoundedSearchOnSatisfiable) {
  acc::AccPtr f = ParseAcc("F [EXISTS n,p,s,ph . Mobile_post(n,p,s,ph)]");
  Result<AAutomaton> a = CompileToAutomaton(f, pd_.schema);
  ASSERT_TRUE(a.ok());
  Result<bool> empty = EmptinessViaDatalog(a.value(), pd_.schema);
  ASSERT_TRUE(empty.ok()) << empty.status().ToString();
  EXPECT_FALSE(empty.value());  // satisfiable: non-empty language
}

TEST_F(AutomataTest, PipelineProvesEmptinessOfFalse) {
  acc::AccPtr f = acc::AccFormula::Atom(logic::PosFormula::False());
  Result<AAutomaton> a = CompileToAutomaton(f, pd_.schema);
  ASSERT_TRUE(a.ok());
  Result<bool> empty = EmptinessViaDatalog(a.value(), pd_.schema);
  ASSERT_TRUE(empty.ok()) << empty.status().ToString();
  EXPECT_TRUE(empty.value());
}

TEST_F(AutomataTest, PipelineContradictoryGuardsAreEmpty) {
  // Eventually Mobile nonempty while globally Mobile empty.
  acc::AccPtr f = ParseAcc(
      "(F [EXISTS n,p,s,ph . Mobile_post(n,p,s,ph)]) AND "
      "(G NOT [EXISTS n,p,s,ph . Mobile_post(n,p,s,ph)])");
  Result<AAutomaton> a = CompileToAutomaton(f, pd_.schema);
  ASSERT_TRUE(a.ok());
  Result<bool> empty = EmptinessViaDatalog(a.value(), pd_.schema);
  ASSERT_TRUE(empty.ok()) << empty.status().ToString();
  EXPECT_TRUE(empty.value());
}

/// Property: pipeline and bounded search agree whenever the bounded
/// search finds a witness (pipeline must then report non-empty).
class PipelinePropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(PipelinePropertyTest, PipelineNeverContradictsWitness) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 131 + 17);
  workload::PhoneDirectory pd = workload::MakePhoneDirectory();
  acc::AccPtr f = workload::RandomZeroAryFormula(&rng, pd.schema, 2,
                                                 /*allow_until=*/true);
  acc::FragmentInfo info = acc::Analyze(f);
  if (!info.binding_positive) return;  // compile would reject
  Result<AAutomaton> a = CompileToAutomaton(f, pd.schema);
  if (!a.ok()) return;
  WitnessSearchOptions wopts;
  wopts.max_path_length = 3;
  wopts.max_nodes = 20000;
  WitnessSearchResult w = BoundedWitnessSearch(
      a.value(), pd.schema, schema::Instance(pd.schema), wopts);
  if (!w.found) return;
  DecomposeOptions dopts;
  dopts.max_variants = 512;
  Result<bool> empty = EmptinessViaDatalog(a.value(), pd.schema, dopts);
  if (!empty.ok()) return;  // capped decomposition: no verdict
  EXPECT_FALSE(empty.value())
      << "pipeline declared empty but a witness exists:\n"
      << f->ToString(pd.schema);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PipelinePropertyTest,
                         ::testing::Range(0, 20));

}  // namespace
}  // namespace automata
}  // namespace accltl
