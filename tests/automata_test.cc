#include <gtest/gtest.h>

#include <string>

#include "src/accltl/fragments.h"
#include "src/accltl/parser.h"
#include "src/accltl/semantics.h"
#include "src/automata/compile.h"
#include "src/automata/emptiness.h"
#include "src/automata/progressive.h"
#include "src/logic/parser.h"
#include "src/obs/metrics.h"
#include "src/store/fact_store.h"
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

// --- Realization programs -------------------------------------------------
//
// The expectations pin which accesses a guard realizes, in which order
// and with which fresh values: a capped step keeps its first
// realizations, so any reordering shows up as another witness.

/// One search's outcome plus its `automata.children` delta.
struct RealizedRun {
  bool found = false;
  bool exhausted = false;
  std::string witness;
  size_t nodes = 0;
  uint64_t children = 0;
};

RealizedRun RunRealized(const AAutomaton& a, const schema::Schema& schema,
                        const schema::Instance& initial,
                        const WitnessSearchOptions& opts, size_t workers) {
  obs::SetMetricsEnabled(true);
  obs::Counter* children = obs::Registry::Get().counter("automata.children");
  engine::ExecOptions exec;
  exec.num_threads = workers;
  uint64_t before = children->Value();
  WitnessSearchResult r = BoundedWitnessSearch(a, schema, initial, opts, exec);
  RealizedRun out;
  out.found = r.found;
  out.exhausted = r.exhausted_budget;
  out.witness = r.witness.ToString(schema);
  out.nodes = r.nodes_explored;
  out.children = children->Value() - before;
  return out;
}

/// s0 --g1--> s1 --g2--> s2 (accepting). g1 realizes one AcM2 access per
/// revealed Mobile fact, each revealing an Address; g2 looks the
/// revealed name up through AcM1.
AAutomaton TwoStepLookup(const schema::Schema& schema) {
  auto parse = [&](const std::string& text) {
    return logic::ParseFormula(text, schema).value();
  };
  AAutomaton a;
  int s0 = a.AddState();
  int s1 = a.AddState();
  int s2 = a.AddState();
  a.SetInitial(s0);
  a.AddAccepting(s2);
  Guard g1;
  g1.positive = parse(
      "EXISTS n,p,s,ph,m,h . Mobile_pre(n,p,s,ph) AND IsBind_AcM2(s,p) "
      "AND Address_post(s,p,m,h)");
  a.AddTransition(s0, g1, s1);
  Guard g2;
  g2.positive = parse(
      "EXISTS s,p,m,h,q,t,ph . Address_pre(s,p,m,h) AND IsBind_AcM1(m) "
      "AND Mobile_post(m,q,t,ph)");
  a.AddTransition(s1, g2, s2);
  return a;
}

TEST_F(AutomataTest, RealizationCapIsScheduleIndependent) {
  AAutomaton a = TwoStepLookup(pd_.schema);
  schema::Instance initial(pd_.schema);
  initial.AddFact(pd_.mobile, {S("Smith"), S("OX13QD"), S("Parks Rd"), I(1)});
  initial.AddFact(pd_.mobile, {S("Jones"), S("W1"), S("Baker St"), I(2)});
  initial.AddFact(pd_.mobile, {S("Brown"), S("E2"), S("Mare St"), I(3)});
  initial.AddFact(pd_.mobile, {S("Green"), S("N4"), S("Holly Rd"), I(4)});
  struct Expected {
    size_t cap;
    bool exhausted;
    const char* witness;
    uint64_t children;
  };
  // Four matches for g1: both caps cut the first step (unknown, not
  // "no"), and each keeps its first realizations in match order.
  const Expected cases[] = {
      {1, true,
       "0: AcM2:Address(\"Parks Rd\", \"OX13QD\", ?, ?) -> "
       "{(\"Parks Rd\", \"OX13QD\", \"~n13\", -1000014)}\n"
       "1: AcM1:Mobile(\"~n13\", ?, ?, ?) -> "
       "{(\"~n13\", \"~n15\", \"~n16\", -1000017)}\n",
       2},
      {3, true,
       "0: AcM2:Address(\"Baker St\", \"W1\", ?, ?) -> "
       "{(\"Baker St\", \"W1\", \"~n13\", -1000014)}\n"
       "1: AcM1:Mobile(\"~n13\", ?, ?, ?) -> "
       "{(\"~n13\", \"~n15\", \"~n16\", -1000017)}\n",
       4},
  };
  for (const Expected& want : cases) {
    WitnessSearchOptions opts;
    opts.max_path_length = 3;
    opts.max_realizations_per_step = want.cap;
    for (size_t workers : {size_t{1}, size_t{2}, size_t{8}}) {
      RealizedRun r = RunRealized(a, pd_.schema, initial, opts, workers);
      EXPECT_TRUE(r.found) << "cap " << want.cap << ", " << workers;
      EXPECT_EQ(r.exhausted, want.exhausted)
          << "cap " << want.cap << ", " << workers;
      EXPECT_EQ(r.witness, want.witness)
          << "cap " << want.cap << ", " << workers;
      EXPECT_EQ(r.children, want.children)
          << "cap " << want.cap << ", " << workers;
    }
  }
}

TEST_F(AutomataTest, RealizationWithConstantInequalityAndBinding) {
  // The Address_pre atom matches through its constant (an index
  // lookup); the inequality rejects Smith; the binding n = Jones
  // propagates into the response's input position, whose variable m
  // no other atom binds.
  AAutomaton a;
  int s0 = a.AddState();
  int s1 = a.AddState();
  a.SetInitial(s0);
  a.AddAccepting(s1);
  Guard g;
  g.positive = ParseL(
      "EXISTS s,n,h,m,s2,ph . Address_pre(s,\"OX13QD\",n,h) AND "
      "IsBind_AcM1(n) AND Mobile_post(m,\"OX13QD\",s2,ph) AND "
      "m != \"Smith\"");
  a.AddTransition(s0, g, s1);
  schema::Instance initial(pd_.schema);
  initial.AddFact(pd_.address,
                  {S("Parks Rd"), S("OX13QD"), S("Smith"), I(13)});
  initial.AddFact(pd_.address,
                  {S("Parks Rd"), S("OX13QD"), S("Jones"), I(16)});
  initial.AddFact(pd_.address, {S("Baker St"), S("W1"), S("Brown"), I(1)});
  WitnessSearchOptions opts;
  opts.max_path_length = 2;
  for (size_t workers : {size_t{1}, size_t{2}}) {
    RealizedRun r = RunRealized(a, pd_.schema, initial, opts, workers);
    EXPECT_TRUE(r.found);
    EXPECT_FALSE(r.exhausted);
    EXPECT_EQ(r.witness,
              "0: AcM1:Mobile(\"Jones\", ?, ?, ?) -> "
              "{(\"Jones\", \"OX13QD\", \"~n6\", -1000007)}\n");
    EXPECT_EQ(r.children, 1u);
    EXPECT_EQ(r.nodes, 2u);
  }
}

TEST_F(AutomataTest, GroundedRealizationsBindOnlyRevealedValues) {
  AAutomaton a = TwoStepLookup(pd_.schema);
  schema::Instance initial(pd_.schema);
  initial.AddFact(pd_.mobile, {S("Smith"), S("OX13QD"), S("Parks Rd"), I(1)});
  initial.AddFact(pd_.mobile, {S("Jones"), S("W1"), S("Baker St"), I(2)});
  WitnessSearchOptions opts;
  opts.max_path_length = 3;
  opts.grounded = true;
  for (size_t workers : {size_t{1}, size_t{2}}) {
    RealizedRun r = RunRealized(a, pd_.schema, initial, opts, workers);
    EXPECT_TRUE(r.found);
    EXPECT_FALSE(r.exhausted);
    EXPECT_EQ(r.witness,
              "0: AcM2:Address(\"Baker St\", \"W1\", ?, ?) -> "
              "{(\"Baker St\", \"W1\", \"~n13\", -1000014)}\n"
              "1: AcM1:Mobile(\"~n13\", ?, ?, ?) -> "
              "{(\"~n13\", \"~n15\", \"~n16\", -1000017)}\n");
    EXPECT_EQ(r.children, 3u);
    EXPECT_EQ(r.nodes, 3u);
  }
}

TEST_F(AutomataTest, RejectedRealizationsInternNothing) {
  // Every realization of the guard fails its inequality after its
  // response was instantiated with fresh values: none may reach the
  // append-only store.
  AAutomaton a;
  int s0 = a.AddState();
  int s1 = a.AddState();
  a.SetInitial(s0);
  a.AddAccepting(s1);
  Guard g;
  g.positive = ParseL(
      "EXISTS n,p,s,ph . IsBind_AcM1(n) AND Mobile_post(n,p,s,ph) AND "
      "ph != ph");
  a.AddTransition(s0, g, s1);
  WitnessSearchOptions opts;
  opts.max_path_length = 2;
  // The first search builds the plan (its pool facts are interned
  // then). The second starts above fresh index 40, so its fresh values
  // are ones no earlier search drew.
  EXPECT_FALSE(BoundedWitnessSearch(a, pd_.schema,
                                    schema::Instance(pd_.schema), opts)
                   .found);
  schema::Instance initial(pd_.schema);
  initial.AddFact(pd_.mobile, {S("~n40"), S("W1"), S("Baker St"), I(2)});
  const store::Store& store = store::Store::Get();
  size_t values = store.num_values();
  size_t facts = store.num_facts();
  WitnessSearchResult r =
      BoundedWitnessSearch(a, pd_.schema, initial, opts);
  EXPECT_FALSE(r.found);
  EXPECT_FALSE(r.exhausted_budget);
  EXPECT_EQ(store.num_values(), values);
  EXPECT_EQ(store.num_facts(), facts);
}

}  // namespace
}  // namespace automata
}  // namespace accltl
