#include <gtest/gtest.h>

#include <algorithm>

#include "src/accltl/abstraction.h"
#include "src/automata/a_automaton.h"
#include "src/logic/containment.h"
#include "src/logic/cq.h"
#include "src/logic/eval.h"
#include "src/logic/parser.h"
#include "src/oracle/oracle.h"
#include "src/store/fact_store.h"
#include "src/workload/workload.h"

namespace accltl {
namespace logic {
namespace {

Value S(const std::string& s) { return Value::Str(s); }
Value I(int64_t i) { return Value::Int(i); }

class LogicTest : public ::testing::Test {
 protected:
  LogicTest() : pd_(workload::MakePhoneDirectory()) {}

  PosFormulaPtr Parse(const std::string& text) {
    Result<PosFormulaPtr> r = ParseFormula(text, pd_.schema);
    EXPECT_TRUE(r.ok()) << r.status().ToString() << " for: " << text;
    return r.ok() ? r.value() : PosFormula::False();
  }

  workload::PhoneDirectory pd_;
};

TEST_F(LogicTest, ParserRoundTrips) {
  PosFormulaPtr f = Parse(
      "EXISTS n, p, s, ph . Mobile_pre(n, p, s, ph) AND IsBind_AcM1(n)");
  EXPECT_TRUE(f->IsSentence());
  EXPECT_TRUE(f->UsesNAryBind());
  EXPECT_FALSE(f->UsesInequality());
  // ToString re-parses to an equal formula.
  PosFormulaPtr g = Parse(f->ToString(pd_.schema));
  EXPECT_TRUE(PosFormula::Equal(f, g));
}

TEST_F(LogicTest, ParserErrors) {
  EXPECT_FALSE(ParseFormula("Mobile_pre(x)", pd_.schema).ok());  // arity
  EXPECT_FALSE(ParseFormula("Unknown(x)", pd_.schema).ok());
  EXPECT_FALSE(ParseFormula("EXISTS x Mobile_pre", pd_.schema).ok());
  EXPECT_FALSE(ParseFormula("x != ", pd_.schema).ok());
}

TEST_F(LogicTest, FreeVarsAndSentences) {
  PosFormulaPtr open = Parse("Mobile(n, p, s, ph)");
  EXPECT_EQ(open->FreeVars().size(), 4u);
  EXPECT_FALSE(open->IsSentence());
  PosFormulaPtr closed = Parse("EXISTS n,p,s,ph . Mobile(n,p,s,ph)");
  EXPECT_TRUE(closed->IsSentence());
}

TEST_F(LogicTest, EvalOnInstance) {
  schema::Instance inst(pd_.schema);
  inst.AddFact(pd_.mobile, {S("Smith"), S("OX13QD"), S("Parks Rd"), I(1)});
  EXPECT_TRUE(EvalOnInstance(
      Parse("EXISTS p, s, ph . Mobile(\"Smith\", p, s, ph)"), inst));
  EXPECT_FALSE(EvalOnInstance(
      Parse("EXISTS p, s, ph . Mobile(\"Jones\", p, s, ph)"), inst));
  // Join through a shared variable.
  inst.AddFact(pd_.address, {S("Parks Rd"), S("OX13QD"), S("Jones"), I(16)});
  EXPECT_TRUE(EvalOnInstance(
      Parse("EXISTS n,p,s,ph,pc,n2,h . Mobile(n,p,s,ph) AND "
            "Address(s,pc,n2,h)"),
      inst));
  EXPECT_FALSE(EvalOnInstance(
      Parse("EXISTS n,p,s,ph,pc,h . Mobile(n,p,s,ph) AND "
            "Address(s,pc,n,h)"),
      inst));
}

TEST_F(LogicTest, EvalEqualityAndInequality) {
  schema::Instance inst(pd_.schema);
  inst.AddFact(pd_.mobile, {S("A"), S("B"), S("A"), I(1)});
  EXPECT_TRUE(EvalOnInstance(
      Parse("EXISTS n,p,s,ph . Mobile(n,p,s,ph) AND n = s"), inst));
  EXPECT_FALSE(EvalOnInstance(
      Parse("EXISTS n,p,s,ph . Mobile(n,p,s,ph) AND n != s"), inst));
  EXPECT_TRUE(EvalOnInstance(
      Parse("EXISTS n,p,s,ph . Mobile(n,p,s,ph) AND n != p"), inst));
  EXPECT_TRUE(EvalOnInstance(
      Parse("EXISTS n,p,s,ph . Mobile(n,p,s,ph) AND n = \"A\""), inst));
}

TEST_F(LogicTest, EvalDisjunction) {
  schema::Instance inst(pd_.schema);
  inst.AddFact(pd_.address, {S("Parks Rd"), S("OX13QD"), S("Jones"), I(16)});
  EXPECT_TRUE(EvalOnInstance(
      Parse("(EXISTS n,p,s,ph . Mobile(n,p,s,ph)) OR "
            "(EXISTS s,pc,n,h . Address(s,pc,n,h))"),
      inst));
}

TEST_F(LogicTest, EnumerateAnswers) {
  schema::Instance inst(pd_.schema);
  inst.AddFact(pd_.mobile, {S("Smith"), S("OX13QD"), S("Parks Rd"), I(1)});
  inst.AddFact(pd_.mobile, {S("Jones"), S("W1"), S("Baker St"), I(2)});
  PosFormulaPtr open = Parse("EXISTS p, s, ph . Mobile(n, p, s, ph)");
  InstanceView view(inst);
  std::set<Tuple> answers = EnumerateAnswers(open, {"n"}, view);
  EXPECT_EQ(answers.size(), 2u);
  EXPECT_TRUE(answers.count({S("Smith")}) > 0);
  EXPECT_TRUE(answers.count({S("Jones")}) > 0);
}

TEST_F(LogicTest, TransitionViewSemantics) {
  schema::Instance pre(pd_.schema);
  pre.AddFact(pd_.address, {S("Parks Rd"), S("OX13QD"), S("Smith"), I(13)});
  schema::Transition t = schema::MakeTransition(
      pd_.schema, pre, schema::Access{pd_.acm1, {S("Smith")}},
      {{S("Smith"), S("OX13QD"), S("Parks Rd"), I(1)}});
  // The running example's second atom (§1): binding appears in
  // Address_pre.
  PosFormulaPtr f = Parse(
      "EXISTS n . IsBind_AcM1(n) AND (EXISTS s, p, h . "
      "Address_pre(s, p, n, h))");
  EXPECT_TRUE(EvalOnTransition(f, t));
  // Pre does not contain the new Mobile tuple; post does.
  EXPECT_FALSE(EvalOnTransition(
      Parse("EXISTS n,p,s,ph . Mobile_pre(n,p,s,ph)"), t));
  EXPECT_TRUE(EvalOnTransition(
      Parse("EXISTS n,p,s,ph . Mobile_post(n,p,s,ph)"), t));
  // 0-ary IsBind: the method used.
  EXPECT_TRUE(EvalOnTransition(Parse("IsBind_AcM1()"), t));
  EXPECT_FALSE(EvalOnTransition(Parse("IsBind_AcM2()"), t));
}

TEST_F(LogicTest, ShiftPlainSpace) {
  PosFormulaPtr q = Parse("EXISTS n,p,s,ph . Mobile(n,p,s,ph)");
  PosFormulaPtr qpre = ShiftPlainSpace(q, PredSpace::kPre);
  EXPECT_NE(qpre->ToString(pd_.schema).find("Mobile_pre"),
            std::string::npos);
  EXPECT_FALSE(qpre->UsesPlainSpace());
  PosFormulaPtr qpost = ShiftPlainSpace(q, PredSpace::kPost);
  EXPECT_NE(qpost->ToString(pd_.schema).find("Mobile_post"),
            std::string::npos);
}

TEST_F(LogicTest, NormalizeDistributesOr) {
  PosFormulaPtr f = Parse(
      "EXISTS n,p,s,ph . Mobile(n,p,s,ph) AND "
      "((EXISTS a,b,c,d . Address(a,b,c,d)) OR "
      " (EXISTS a,b,c,d . Mobile(a,b,c,d)))");
  Result<Ucq> ucq = NormalizeToUcq(f, {}, pd_.schema);
  ASSERT_TRUE(ucq.ok());
  EXPECT_EQ(ucq.value().disjuncts.size(), 2u);
  for (const Cq& d : ucq.value().disjuncts) {
    EXPECT_EQ(d.atoms.size(), 2u);
  }
}

TEST_F(LogicTest, NormalizeResolvesEqualities) {
  PosFormulaPtr f = Parse(
      "EXISTS n,p,s,ph,m . Mobile(n,p,s,ph) AND n = m AND m = \"Smith\"");
  Result<Ucq> ucq = NormalizeToUcq(f, {}, pd_.schema);
  ASSERT_TRUE(ucq.ok());
  ASSERT_EQ(ucq.value().disjuncts.size(), 1u);
  const Cq& d = ucq.value().disjuncts[0];
  ASSERT_EQ(d.atoms.size(), 1u);
  EXPECT_EQ(d.atoms[0].terms[0], Term::Const(S("Smith")));
}

TEST_F(LogicTest, NormalizeDropsContradictions) {
  PosFormulaPtr f = Parse(
      "(EXISTS n,p,s,ph . Mobile(n,p,s,ph) AND n = \"A\" AND n = \"B\") OR "
      "(EXISTS n,p,s,ph . Mobile(n,p,s,ph) AND n != n)");
  Result<Ucq> ucq = NormalizeToUcq(f, {}, pd_.schema);
  ASSERT_TRUE(ucq.ok());
  EXPECT_TRUE(ucq.value().disjuncts.empty());
}

TEST_F(LogicTest, FreezeCqBuildsCanonicalDb) {
  PosFormulaPtr f = Parse("EXISTS n,p,s,ph . Mobile(n,p,s,ph)");
  Result<Ucq> ucq = NormalizeToUcq(f, {}, pd_.schema);
  ASSERT_TRUE(ucq.ok());
  FreshValueFactory factory;
  Result<FrozenCq> frozen =
      FreezeCq(ucq.value().disjuncts[0], pd_.schema, &factory);
  ASSERT_TRUE(frozen.ok());
  EXPECT_EQ(frozen.value().db.TotalFacts(), 1u);
  // Typed freezing: string positions get string nulls, int position an
  // int null.
  const std::set<Tuple>& tuples =
      *frozen.value().db.GetTuples(Plain(pd_.mobile));
  const Tuple& t = *tuples.begin();
  EXPECT_TRUE(t[0].is_string());
  EXPECT_TRUE(t[3].is_int());
}

// --- Containment -----------------------------------------------------------

class ContainmentTest : public LogicTest {
 protected:
  bool Contained(const std::string& q1, const std::string& q2) {
    Result<Ucq> u1 = NormalizeToUcq(Parse(q1), {}, pd_.schema);
    Result<Ucq> u2 = NormalizeToUcq(Parse(q2), {}, pd_.schema);
    EXPECT_TRUE(u1.ok() && u2.ok());
    Result<bool> r = UcqContained(u1.value(), u2.value(), pd_.schema);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.value_or(false);
  }
};

TEST_F(ContainmentTest, Reflexive) {
  EXPECT_TRUE(Contained("EXISTS n,p,s,ph . Mobile(n,p,s,ph)",
                        "EXISTS n,p,s,ph . Mobile(n,p,s,ph)"));
}

TEST_F(ContainmentTest, MoreAtomsContainedInFewer) {
  EXPECT_TRUE(Contained(
      "EXISTS n,p,s,ph,a,b,c,d . Mobile(n,p,s,ph) AND Address(a,b,c,d)",
      "EXISTS n,p,s,ph . Mobile(n,p,s,ph)"));
  EXPECT_FALSE(Contained(
      "EXISTS n,p,s,ph . Mobile(n,p,s,ph)",
      "EXISTS n,p,s,ph,a,b,c,d . Mobile(n,p,s,ph) AND Address(a,b,c,d)"));
}

TEST_F(ContainmentTest, ConstantsSpecialize) {
  EXPECT_TRUE(Contained("EXISTS p,s,ph . Mobile(\"Smith\",p,s,ph)",
                        "EXISTS n,p,s,ph . Mobile(n,p,s,ph)"));
  EXPECT_FALSE(Contained("EXISTS n,p,s,ph . Mobile(n,p,s,ph)",
                         "EXISTS p,s,ph . Mobile(\"Smith\",p,s,ph)"));
}

TEST_F(ContainmentTest, UnionOnTheRight) {
  EXPECT_TRUE(Contained(
      "EXISTS p,s,ph . Mobile(\"Smith\",p,s,ph)",
      "(EXISTS p,s,ph . Mobile(\"Smith\",p,s,ph)) OR "
      "(EXISTS p,s,ph . Mobile(\"Jones\",p,s,ph))"));
  EXPECT_FALSE(Contained(
      "(EXISTS p,s,ph . Mobile(\"Smith\",p,s,ph)) OR "
      "(EXISTS p,s,ph . Mobile(\"Jones\",p,s,ph))",
      "EXISTS p,s,ph . Mobile(\"Smith\",p,s,ph)"));
}

TEST_F(ContainmentTest, SelfJoinCollapses) {
  // R(x,y) ∧ R(y,x)-style: Mobile(n,p,..) twice with swapped vars is
  // contained in the single-atom query, not vice versa.
  EXPECT_TRUE(Contained(
      "EXISTS n,p,s,ph,s2,ph2 . Mobile(n,p,s,ph) AND Mobile(p,n,s2,ph2)",
      "EXISTS n,p,s,ph . Mobile(n,p,s,ph)"));
}

TEST_F(ContainmentTest, InequalityRightRequiresIdentifications) {
  // ∃n,p: Mobile(n,p,..) is NOT contained in ∃n,p: Mobile(n,p,..) ∧ n≠p
  // (witness: n = p).
  EXPECT_FALSE(Contained("EXISTS n,p,s,ph . Mobile(n,p,s,ph)",
                         "EXISTS n,p,s,ph . Mobile(n,p,s,ph) AND n != p"));
  // With the inequality on both sides it holds.
  EXPECT_TRUE(Contained("EXISTS n,p,s,ph . Mobile(n,p,s,ph) AND n != p",
                        "EXISTS n,p,s,ph . Mobile(n,p,s,ph)"));
  EXPECT_TRUE(
      Contained("EXISTS n,p,s,ph . Mobile(n,p,s,ph) AND n != p",
                "EXISTS n,p,s,ph . Mobile(n,p,s,ph) AND n != p"));
}

TEST_F(ContainmentTest, InequalityWithConstants) {
  // Left restricted to Smith; right demands a non-Smith tuple: not
  // contained.
  EXPECT_FALSE(Contained(
      "EXISTS p,s,ph . Mobile(\"Smith\",p,s,ph)",
      "EXISTS n,p,s,ph . Mobile(n,p,s,ph) AND n != \"Smith\""));
  // Left's constant differs from the right's: contained.
  EXPECT_TRUE(Contained(
      "EXISTS p,s,ph . Mobile(\"Jones\",p,s,ph)",
      "EXISTS n,p,s,ph . Mobile(n,p,s,ph) AND n != \"Smith\""));
}

/// Property sweep: containment decisions are consistent with direct
/// evaluation on random instances (soundness of kContained answers).
class ContainmentPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(ContainmentPropertyTest, ContainmentSoundOnRandomInstances) {
  Rng rng(static_cast<uint64_t>(GetParam()));
  schema::Schema s = workload::RandomSchema(&rng, 2, 2);
  PosFormulaPtr q1 = workload::RandomCq(&rng, s, 2, 3);
  PosFormulaPtr q2 = workload::RandomCq(&rng, s, 2, 3);
  Result<Ucq> u1 = NormalizeToUcq(q1, {}, s);
  Result<Ucq> u2 = NormalizeToUcq(q2, {}, s);
  ASSERT_TRUE(u1.ok() && u2.ok());
  Result<bool> contained = UcqContained(u1.value(), u2.value(), s);
  ASSERT_TRUE(contained.ok());
  for (int i = 0; i < 20; ++i) {
    schema::Instance inst = workload::RandomInstance(&rng, s, 6, 3);
    bool v1 = EvalOnInstance(q1, inst);
    bool v2 = EvalOnInstance(q2, inst);
    if (contained.value()) {
      EXPECT_TRUE(!v1 || v2) << "containment violated on a random instance";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ContainmentPropertyTest,
                         ::testing::Range(0, 25));

/// Property sweep: UCQ normalization preserves semantics.
class NormalizePropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(NormalizePropertyTest, UcqEquivalentToFormula) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 77 + 5);
  schema::Schema s = workload::RandomSchema(&rng, 2, 2);
  PosFormulaPtr q = workload::RandomCq(&rng, s, 3, 3);
  Result<Ucq> u = NormalizeToUcq(q, {}, s);
  ASSERT_TRUE(u.ok());
  PosFormulaPtr back = u.value().ToFormula();
  for (int i = 0; i < 20; ++i) {
    schema::Instance inst = workload::RandomInstance(&rng, s, 5, 3);
    EXPECT_EQ(EvalOnInstance(q, inst), EvalOnInstance(back, inst));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, NormalizePropertyTest,
                         ::testing::Range(0, 25));

// --- Guard first, post later: CandidateView ---------------------------------

/// An atom over `pred` whose position `pos` carries `var` and every
/// other position i the filler variable "w<i>" (added to `vars` once).
PosFormulaPtr AtomWith(PredicateRef pred, int arity, int pos,
                       const std::string& var, std::vector<std::string>* vars) {
  std::vector<Term> terms;
  for (int i = 0; i < arity; ++i) {
    std::string v = i == pos ? var : "w" + std::to_string(i);
    if (std::find(vars->begin(), vars->end(), v) == vars->end()) {
      vars->push_back(v);
    }
    terms.push_back(Term::Var(v));
  }
  return PosFormula::MakeAtom(pred, std::move(terms));
}

/// Number of quantified variables: the oracle enumerates the active
/// domain to this power.
size_t QuantifiedVars(const PosFormula& f) {
  size_t n = f.kind() == NodeKind::kExists ? f.bound_vars().size() : 0;
  if (f.body() != nullptr) n += QuantifiedVars(*f.body());
  for (const PosFormulaPtr& c : f.children()) n += QuantifiedVars(*c);
  return n;
}

/// Hand-written probes the random generators rarely produce: a
/// never-seen constant, inequalities, an IsBind join, and an OR that
/// binds a variable on one branch only.
std::vector<PosFormulaPtr> ProbeSentences(const schema::Schema& s,
                                          const Value& unseen) {
  std::vector<PosFormulaPtr> out;
  for (schema::RelationId r = 0; r < s.num_relations(); ++r) {
    int arity = s.relation(r).arity();
    std::vector<std::string> vars = {"x"};
    PosFormulaPtr post = AtomWith(Post(r), arity, 0, "x", &vars);
    PosFormulaPtr pre = AtomWith(Pre(r), arity, 0, "x", &vars);
    // A post tuple whose first value is not the never-seen constant.
    out.push_back(PosFormula::Exists(
        vars, PosFormula::And({post, PosFormula::Neq(Term::Var("x"),
                                                     Term::Const(unseen))})));
    std::vector<Term> with_const;
    for (int i = 0; i < arity; ++i) with_const.push_back(Term::Const(unseen));
    out.push_back(PosFormula::MakeAtom(Post(r), with_const));
    out.push_back(PosFormula::Exists(vars, PosFormula::And({pre, post})));
    // x bound on the first branch only, then joined.
    std::vector<std::string> or_vars = {"x", "y"};
    PosFormulaPtr left = AtomWith(Pre(r), arity, 0, "x", &or_vars);
    PosFormulaPtr right = AtomWith(Post(r), arity, 0, "y", &or_vars);
    PosFormulaPtr join = AtomWith(Post(r), arity, 0, "x", &or_vars);
    out.push_back(PosFormula::Exists(
        or_vars, PosFormula::And({PosFormula::Or({left, right}), join})));
  }
  for (schema::AccessMethodId m = 0; m < s.num_access_methods(); ++m) {
    const schema::AccessMethod& am = s.method(m);
    if (am.num_inputs() == 0) continue;
    int arity = s.relation(am.relation).arity();
    std::vector<std::string> vars = {"b"};
    std::vector<Term> bind_terms = {Term::Var("b")};
    for (int i = 1; i < am.num_inputs(); ++i) {
      std::string v = "b" + std::to_string(i);
      vars.push_back(v);
      bind_terms.push_back(Term::Var(v));
    }
    PosFormulaPtr bind = PosFormula::MakeAtom(Bind(m), bind_terms);
    PosFormulaPtr post =
        AtomWith(Post(am.relation), arity, am.input_positions[0], "b", &vars);
    out.push_back(PosFormula::Exists(vars, PosFormula::And({bind, post})));
    out.push_back(PosFormula::Exists(
        vars, PosFormula::And({bind, PosFormula::Eq(Term::Var("b"),
                                                    Term::Const(unseen))})));
    out.push_back(PosFormula::MakeAtom(Bind(m), {}));
  }
  return out;
}

/// Sentences over pre/post/IsBind drawn from the workload generators
/// plus the probes above.
std::vector<PosFormulaPtr> CandidateSentences(Rng* rng,
                                              const schema::Schema& s,
                                              const Value& unseen) {
  std::vector<PosFormulaPtr> out = ProbeSentences(s, unseen);
  for (int i = 0; i < 3; ++i) {
    for (const PosFormulaPtr& a :
         acc::Abstract(workload::RandomBindingPositiveFormula(rng, s, 2))
             .atoms) {
      out.push_back(a);
    }
    for (const PosFormulaPtr& a :
         acc::Abstract(workload::RandomZeroAryFormula(rng, s, 2, true)).atoms) {
      out.push_back(a);
    }
    PosFormulaPtr cq = workload::RandomCq(rng, s, 2, 3);
    out.push_back(ShiftPlainSpace(cq, PredSpace::kPre));
    out.push_back(ShiftPlainSpace(cq, PredSpace::kPost));
  }
  return out;
}

/// One random candidate access from `pre`: a method, a binding mixing
/// active-domain values with values the store has never seen, and a
/// response of universe facts plus facts pre already holds (possibly
/// empty, possibly repeating an id).
schema::Access RandomAccess(Rng* rng, const schema::Schema& s,
                            const schema::Instance& pre,
                            const schema::Instance& universe,
                            const std::string& unseen_prefix,
                            std::vector<store::FactId>* response) {
  schema::AccessMethodId m =
      static_cast<schema::AccessMethodId>(rng->Uniform(
          static_cast<uint64_t>(s.num_access_methods())));
  const schema::AccessMethod& am = s.method(m);
  const schema::Relation& rel = s.relation(am.relation);
  std::set<Value> dom = pre.ActiveDomain();
  std::vector<Value> pool(dom.begin(), dom.end());
  schema::Access access{m, {}};
  for (schema::Position p : am.input_positions) {
    ValueType type = rel.position_types[static_cast<size_t>(p)];
    std::vector<Value> typed;
    for (const Value& v : pool) {
      if (v.type() == type) typed.push_back(v);
    }
    if (type == ValueType::kString && (typed.empty() || rng->Uniform(3) == 0)) {
      access.binding.push_back(Value::Str(
          unseen_prefix + "-bind-" + std::to_string(rng->Next() % 1000000)));
    } else if (type == ValueType::kInt && (typed.empty() || rng->Uniform(3) == 0)) {
      access.binding.push_back(
          Value::Int(-900000000 - static_cast<int64_t>(rng->Uniform(1000))));
    } else if (typed.empty()) {
      access.binding.push_back(Value::Bool(rng->Uniform(2) == 0));
    } else {
      access.binding.push_back(typed[rng->Uniform(typed.size())]);
    }
  }
  response->clear();
  for (store::FactId id : universe.facts(am.relation)->ids()) {
    if (rng->Uniform(2) == 0) response->push_back(id);
  }
  for (store::FactId id : pre.facts(am.relation)->ids()) {
    if (rng->Uniform(3) == 0) response->push_back(id);
  }
  if (!response->empty() && rng->Uniform(4) == 0) {
    response->push_back(response->front());
  }
  if (rng->Uniform(5) == 0) response->clear();
  return access;
}

class CandidateViewPropertyTest : public ::testing::TestWithParam<int> {};

/// The guard-first contract: a sentence decided on the pre+response
/// view equals its value on the materialized transition and the
/// oracle's naive active-domain evaluation.
TEST_P(CandidateViewPropertyTest, AgreesWithTransitionViewAndOracle) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 131 + 7);
  schema::Schema s = GetParam() % 2 == 0
                         ? workload::RandomSchema(&rng, 3, 2)
                         : workload::RandomHighArityMixedSchema(&rng, 2);
  std::string prefix = "cv-unseen-" + std::to_string(GetParam());
  Value unseen = Value::Str(prefix + "-const");
  std::vector<PosFormulaPtr> sentences = CandidateSentences(&rng, s, unseen);
  // One view buffer for every trial, as a search's candidate loop uses.
  std::vector<store::FactId> scratch;
  for (int trial = 0; trial < 12; ++trial) {
    schema::Instance pre = workload::RandomInstance(&rng, s, 6, 3);
    schema::Instance universe = workload::RandomInstance(&rng, s, 10, 4);
    std::vector<store::FactId> response;
    schema::Access access =
        RandomAccess(&rng, s, pre, universe, prefix, &response);
    CandidateView candidate(s, pre, access, response, &scratch);
    schema::Transition t =
        schema::MakeTransitionFromIds(s, pre, access, response);
    TransitionView materialized(t);
    oracle::NaiveStep step;
    step.method = access.method;
    step.binding = access.binding;
    step.response = t.response;
    step.pre = oracle::ToNaive(t.pre);
    step.post = oracle::ToNaive(t.post);
    for (const PosFormulaPtr& f : sentences) {
      bool on_candidate = EvalSentence(f, candidate);
      EXPECT_EQ(on_candidate, EvalSentence(f, materialized))
          << f->ToString(s) << "\n" << t.ToString(s);
      if (QuantifiedVars(*f) <= 4) {
        EXPECT_EQ(on_candidate, oracle::NaiveEvalSentence(f, step))
            << f->ToString(s) << "\n" << t.ToString(s);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CandidateViewPropertyTest,
                         ::testing::Range(0, 30));

/// Never intern on the evaluation path: deciding guards and atoms on a
/// candidate view whose constants and binding values the store has
/// never seen leaves the store unchanged (it never frees).
TEST_F(LogicTest, CandidateEvaluationNeverInterns) {
  Value unseen_name = S("ni-never-seen-name");
  Value unseen_street = S("ni-never-seen-street");
  store::Store& store = store::Store::Get();
  ASSERT_EQ(store.TryFindValue(unseen_name), store::kNoValueId);
  ASSERT_EQ(store.TryFindValue(unseen_street), store::kNoValueId);

  schema::Instance pre(pd_.schema);
  pre.AddFact(pd_.mobile, {S("Smith"), S("OX13QD"), S("Parks Rd"), I(5551212)});
  store::FactId jones = store.InternTuple(
      {S("Jones"), S("OX13QD"), S("Parks Rd"), I(5550000)});
  schema::Access access{pd_.acm1, {unseen_name}};
  std::vector<store::FactId> response = {jones};

  automata::Guard guard;
  guard.positive = Parse(
      "EXISTS n . IsBind_AcM1(n) AND n = \"ni-never-seen-name\"");
  guard.negated = {
      Parse("EXISTS n,p,ph . Mobile_post(n,p,\"ni-never-seen-street\",ph)"),
      Parse("EXISTS n,p,s,ph . Mobile_post(n,p,s,ph) AND "
            "n = \"ni-never-seen-name\"")};
  CompiledFormula atom(Parse(
      "EXISTS n,p,s,ph . IsBind_AcM1(n) AND Mobile_pre(n,p,s,ph)"));

  size_t values = store.num_values();
  size_t facts = store.num_facts();
  std::vector<store::FactId> scratch;
  CandidateView view(pd_.schema, pre, access, response, &scratch);
  EXPECT_TRUE(guard.Eval(view));
  EXPECT_FALSE(atom.Eval(view));
  EXPECT_TRUE(EvalSentence(guard.positive, view));
  EXPECT_EQ(store.num_values(), values);
  EXPECT_EQ(store.num_facts(), facts);
  EXPECT_EQ(store.TryFindValue(unseen_name), store::kNoValueId);
  EXPECT_EQ(store.TryFindValue(unseen_street), store::kNoValueId);
}

/// The compiled evaluator resolves shadowing statically: an inner
/// quantifier's variable never leaks into an outer conjunct.
TEST_F(LogicTest, CompiledFormulaScopesAndAnswers) {
  schema::Instance inst(pd_.schema);
  inst.AddFact(pd_.mobile, {S("Smith"), S("OX13QD"), S("Parks Rd"), I(1)});
  inst.AddFact(pd_.address, {S("Parks Rd"), S("OX13QD"), S("Jones"), I(16)});
  InstanceView view(inst);
  // Outer n is pinned to "Jones"; the inner EXISTS n rebinds it to
  // "Smith" only inside its body.
  PosFormulaPtr f = Parse(
      "(EXISTS n,p,s,ph . Mobile(n,p,s,ph)) AND "
      "(EXISTS s,p,h . Address(s,p,n,h))");
  EXPECT_TRUE(EvalWithEnv(f, view, {{"n", S("Jones")}}));
  EXPECT_FALSE(EvalWithEnv(f, view, {{"n", S("Smith")}}));
  EXPECT_EQ(EnumerateAnswers(f, {"n"}, view), std::set<Tuple>{{S("Jones")}});
  // A head variable the formula leaves unbound yields no answers.
  EXPECT_TRUE(EnumerateAnswers(f, {"zz"}, view).empty());
  EXPECT_TRUE(CompiledFormula().Eval(view));
}

/// Sentences compiled into one program answer exactly as each compiled
/// alone: they share constant slots (one constant here is unseen by the
/// store) but no variable, and one evaluation state serves them all.
TEST_F(LogicTest, CompiledSentencesAgreeWithSeparateCompiles) {
  schema::Instance inst(pd_.schema);
  inst.AddFact(pd_.mobile, {S("Smith"), S("OX13QD"), S("Parks Rd"), I(1)});
  inst.AddFact(pd_.address, {S("Parks Rd"), S("OX13QD"), S("Jones"), I(16)});
  InstanceView view(inst);
  std::vector<PosFormulaPtr> sentences = {
      Parse("EXISTS n,p,s,ph . Mobile(n,p,s,ph) AND n = \"Smith\""),
      Parse("EXISTS n,p,s,ph . Mobile(n,p,s,ph) AND n = \"cs-unseen\""),
      Parse("EXISTS s,p,h . Address(s,p,\"Jones\",h) OR "
            "Address(s,p,\"Smith\",h)"),
      Parse("EXISTS n,p,s,ph,h . Mobile(n,p,s,ph) AND Address(s,p,n,h)"),
      Parse("EXISTS s,p,n,h . Address(s,p,n,h) AND n != \"Jones\""),
  };
  std::vector<char> truth;
  CompiledFormula::Sentences(sentences).EvalEach(view, &truth);
  ASSERT_EQ(truth.size(), sentences.size());
  for (size_t i = 0; i < sentences.size(); ++i) {
    EXPECT_EQ(truth[i] != 0, CompiledFormula(sentences[i]).Eval(view)) << i;
  }
  EXPECT_EQ(truth, (std::vector<char>{1, 0, 1, 0, 0}));
  CompiledFormula::Sentences({}).EvalEach(view, &truth);
  EXPECT_TRUE(truth.empty());
}

/// Entries share their free variables by name, and each starts with
/// them unbound (entry 1 binds `n` although entry 0 bound it first).
/// Stream reports the matches in fact-id order, not value order, and
/// stops at the first continuation that asks.
TEST_F(LogicTest, CompiledEntriesStreamMatchesInFactOrder) {
  schema::Instance inst(pd_.schema);
  inst.AddFact(pd_.address, {S("st-road"), S("st-pc"), S("st-b"), I(1)});
  inst.AddFact(pd_.address, {S("st-road"), S("st-pc"), S("st-a"), I(2)});
  inst.AddFact(pd_.mobile, {S("st-a"), S("st-pc"), S("st-road"), I(3)});
  InstanceView view(inst);
  CompiledFormula f = CompiledFormula::Entries({
      Parse("Address(s,p,n,h)"),
      Parse("Mobile(n,p,s,ph) AND Address(s,p,n,h)"),
      Parse("Address(s,p,n,h) AND n = \"st-unseen\""),
  });
  const int n = f.FreeSlot("n");
  ASSERT_GE(n, 0);
  EXPECT_EQ(f.FreeSlot("zz"), -1);
  auto stream = [&](uint32_t entry, size_t stop_after) {
    std::vector<std::string> names;
    auto k = [&](const store::ValueId* slots) {
      names.push_back(store::Store::Get().value(slots[n]).AsString());
      return names.size() == stop_after;
    };
    const bool stopped = f.Stream(view, entry, k);
    EXPECT_EQ(stopped, names.size() == stop_after);
    return names;
  };
  EXPECT_EQ(stream(0, 9), (std::vector<std::string>{"st-b", "st-a"}));
  EXPECT_EQ(stream(0, 1), std::vector<std::string>{"st-b"});
  EXPECT_EQ(stream(1, 9), std::vector<std::string>{"st-a"});
  EXPECT_TRUE(stream(2, 9).empty());
}

}  // namespace
}  // namespace logic
}  // namespace accltl
