#include <gtest/gtest.h>

#include <vector>

#include "src/common/rng.h"
#include "src/ltl/sat.h"
#include "src/ltl/tableau.h"


namespace accltl {
namespace ltl {
namespace {

LtlPtr P(int i) { return LtlFormula::Prop(i); }

TEST(LtlEvalTest, PropAndBooleans) {
  Word w = {{0}, {1}};
  EXPECT_TRUE(EvalOnWord(P(0), w));
  EXPECT_FALSE(EvalOnWord(P(1), w));
  EXPECT_TRUE(EvalOnWord(LtlFormula::Not(P(1)), w));
  EXPECT_TRUE(EvalOnWord(LtlFormula::And({P(0), LtlFormula::Not(P(1))}), w));
  EXPECT_TRUE(EvalOnWord(LtlFormula::Or({P(1), P(0)}), w));
}

TEST(LtlEvalTest, StrongAndWeakNext) {
  Word w = {{0}, {1}};
  EXPECT_TRUE(EvalOnWord(LtlFormula::Next(P(1)), w));
  EXPECT_FALSE(EvalOnWord(LtlFormula::Next(P(0)), w));
  // At the last position, X φ is false and N φ is true.
  EXPECT_FALSE(EvalOnWord(LtlFormula::Next(LtlFormula::Next(P(0))), w));
  EXPECT_TRUE(EvalOnWord(LtlFormula::Next(LtlFormula::WeakNext(P(0))), w));
}

TEST(LtlEvalTest, UntilAndDeriveds) {
  Word w = {{0}, {0}, {1}};
  EXPECT_TRUE(EvalOnWord(LtlFormula::Until(P(0), P(1)), w));
  EXPECT_TRUE(EvalOnWord(LtlFormula::Eventually(P(1)), w));
  EXPECT_FALSE(EvalOnWord(LtlFormula::Globally(P(0)), w));
  EXPECT_TRUE(EvalOnWord(
      LtlFormula::Globally(LtlFormula::Or({P(0), P(1)})), w));
  // Until fails when the left side breaks first.
  Word w2 = {{0}, {}, {1}};
  EXPECT_FALSE(EvalOnWord(LtlFormula::Until(P(0), P(1)), w2));
}

TEST(LtlSatTest, SimpleSatisfiable) {
  SatResult r = CheckSatFinite(LtlFormula::Eventually(P(0)));
  EXPECT_TRUE(r.satisfiable);
  ASSERT_FALSE(r.witness.empty());
  EXPECT_TRUE(EvalOnWord(LtlFormula::Eventually(P(0)), r.witness));
}

TEST(LtlSatTest, SimpleUnsatisfiable) {
  // p ∧ ¬p at the first position.
  LtlPtr f = LtlFormula::And({P(0), LtlFormula::Not(P(0))});
  EXPECT_FALSE(CheckSatFinite(f).satisfiable);
  // G p ∧ F ¬p.
  LtlPtr g = LtlFormula::And(
      {LtlFormula::Globally(P(0)),
       LtlFormula::Eventually(LtlFormula::Not(P(0)))});
  EXPECT_FALSE(CheckSatFinite(g).satisfiable);
}

TEST(LtlSatTest, StrongNextNeedsLongerWords) {
  // X X X p needs a word of length >= 4.
  LtlPtr f = LtlFormula::Next(LtlFormula::Next(LtlFormula::Next(P(0))));
  SatResult r = CheckSatFinite(f);
  ASSERT_TRUE(r.satisfiable);
  EXPECT_GE(r.witness.size(), 4u);
  EXPECT_TRUE(EvalOnWord(f, r.witness));
}

TEST(LtlSatTest, UntilWithObligations) {
  // (p U q) ∧ G(¬q) is unsatisfiable.
  LtlPtr f = LtlFormula::And(
      {LtlFormula::Until(P(0), P(1)),
       LtlFormula::Globally(LtlFormula::Not(P(1)))});
  EXPECT_FALSE(CheckSatFinite(f).satisfiable);
}

TEST(LtlSatTest, NnfCorrectOnDuals) {
  // ¬(p U q) ≡ ¬p R ¬q on finite words; check via sat of the xor.
  LtlPtr u = LtlFormula::Until(P(0), P(1));
  LtlPtr r = LtlFormula::Release(LtlFormula::Not(P(0)),
                                 LtlFormula::Not(P(1)));
  // (¬(pUq) ∧ ¬(¬pR¬q)) and ((pUq) ∧ (¬pR¬q)) both unsatisfiable.
  EXPECT_FALSE(CheckSatFinite(LtlFormula::And(
                                  {LtlFormula::Not(u), LtlFormula::Not(r)}))
                   .satisfiable);
  EXPECT_FALSE(CheckSatFinite(LtlFormula::And({u, r})).satisfiable);
}

TEST(LtlFormulaTest, ClassifiersAndSize) {
  LtlPtr x_only = LtlFormula::Next(LtlFormula::And({P(0), P(1)}));
  EXPECT_TRUE(x_only->IsXOnly());
  EXPECT_EQ(x_only->XDepth(), 1);
  LtlPtr with_u = LtlFormula::Until(P(0), P(1));
  EXPECT_FALSE(with_u->IsXOnly());
  EXPECT_EQ(x_only->Props(), (std::set<int>{0, 1}));
  EXPECT_GE(with_u->Size(), 3u);
}

TEST(TableauTest, BuildsReachableGraph) {
  Result<TableauAutomaton> t =
      BuildTableau(LtlFormula::Eventually(P(0)), 1000);
  ASSERT_TRUE(t.ok());
  EXPECT_GT(t.value().num_states, 0);
  EXPECT_FALSE(t.value().edges.empty());
  // Some edge requiring p may end the word.
  bool found = false;
  for (const TableauEdge& e : t.value().edges) {
    if (e.pos_lits.count(0) > 0 && e.may_end) found = true;
  }
  EXPECT_TRUE(found);
}

/// (F p0 ∧ G(p1 ∨ X p2)) ∧ (p0 U (p1 ∧ N p2)), its operands built
/// left to right or right to left.
LtlPtr ObligationHeavyFormula(bool right_to_left) {
  if (!right_to_left) {
    LtlPtr f0 = LtlFormula::Eventually(P(0));
    LtlPtr g = LtlFormula::Globally(
        LtlFormula::Or({P(1), LtlFormula::Next(P(2))}));
    LtlPtr u = LtlFormula::Until(
        P(0), LtlFormula::And({P(1), LtlFormula::WeakNext(P(2))}));
    return LtlFormula::And({LtlFormula::And({f0, g}), u});
  }
  LtlPtr wn = LtlFormula::WeakNext(P(2));
  LtlPtr u = LtlFormula::Until(P(0), LtlFormula::And({P(1), wn}));
  LtlPtr x = LtlFormula::Next(P(2));
  LtlPtr g = LtlFormula::Globally(LtlFormula::Or({P(1), x}));
  LtlPtr f0 = LtlFormula::Eventually(P(0));
  return LtlFormula::And({LtlFormula::And({f0, g}), u});
}

TEST(TableauTest, IndependentOfAllocationOrder) {
  // Obligation sets are keyed by subformula ids from a pre-order walk,
  // not by node addresses: a formula built after the allocator has
  // been churned (freed nodes get reused in reverse order) compiles to
  // the same automaton, edge for edge.
  Result<TableauAutomaton> a =
      BuildTableau(ObligationHeavyFormula(/*right_to_left=*/false), 1000);
  std::vector<LtlPtr> churn;
  for (int i = 0; i < 256; ++i) {
    churn.push_back(LtlFormula::Next(P(i)));
  }
  for (size_t i = 0; i < churn.size(); i += 2) churn[i].reset();
  Result<TableauAutomaton> b =
      BuildTableau(ObligationHeavyFormula(/*right_to_left=*/true), 1000);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a.value().initial, b.value().initial);
  EXPECT_EQ(a.value().num_states, b.value().num_states);
  ASSERT_EQ(a.value().edges.size(), b.value().edges.size());
  for (size_t i = 0; i < a.value().edges.size(); ++i) {
    const TableauEdge& x = a.value().edges[i];
    const TableauEdge& y = b.value().edges[i];
    EXPECT_EQ(x.from, y.from) << "edge " << i;
    EXPECT_EQ(x.to, y.to) << "edge " << i;
    EXPECT_EQ(x.pos_lits, y.pos_lits) << "edge " << i;
    EXPECT_EQ(x.neg_lits, y.neg_lits) << "edge " << i;
    EXPECT_EQ(x.may_end, y.may_end) << "edge " << i;
  }
}

/// Exhaustive cross-check: tableau satisfiability agrees with brute
/// force over all words of length <= 3 over 2 propositions, for random
/// formulas. (If the formula has a witness at all, bounded-length
/// witnesses exist for this size of formula.)
class LtlRandomTest : public ::testing::TestWithParam<int> {
 protected:
  LtlPtr RandomFormula(Rng* rng, int depth) {
    if (depth == 0) {
      return P(static_cast<int>(rng->Uniform(2)));
    }
    switch (rng->Uniform(6)) {
      case 0:
        return LtlFormula::Not(RandomFormula(rng, depth - 1));
      case 1:
        return LtlFormula::And({RandomFormula(rng, depth - 1),
                                RandomFormula(rng, depth / 2)});
      case 2:
        return LtlFormula::Or({RandomFormula(rng, depth - 1),
                               RandomFormula(rng, depth / 2)});
      case 3:
        return LtlFormula::Next(RandomFormula(rng, depth - 1));
      case 4:
        return LtlFormula::Until(RandomFormula(rng, depth / 2),
                                 RandomFormula(rng, depth - 1));
      default:
        return LtlFormula::Globally(RandomFormula(rng, depth - 1));
    }
  }

  bool BruteForceSat(const LtlPtr& f, size_t max_len) {
    // All words over subsets of {0,1}.
    std::vector<Word> frontier = {{}};
    for (size_t len = 1; len <= max_len; ++len) {
      std::vector<Word> next;
      for (const Word& w : frontier) {
        for (int letter = 0; letter < 4; ++letter) {
          Word extended = w;
          std::set<int> props;
          if (letter & 1) props.insert(0);
          if (letter & 2) props.insert(1);
          extended.push_back(props);
          if (EvalOnWord(f, extended)) return true;
          next.push_back(std::move(extended));
        }
      }
      frontier = std::move(next);
    }
    return false;
  }
};

TEST_P(LtlRandomTest, SatAgreesWithBruteForceOnShortWords) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 31 + 1);
  LtlPtr f = RandomFormula(&rng, 3);
  SatResult r = CheckSatFinite(f);
  ASSERT_FALSE(r.resource_exhausted);
  bool brute = BruteForceSat(f, 3);
  if (brute) {
    EXPECT_TRUE(r.satisfiable) << f->ToString();
  }
  if (r.satisfiable) {
    // The witness really models the formula.
    EXPECT_TRUE(EvalOnWord(f, r.witness)) << f->ToString();
    // And if the witness is short, brute force must agree.
    if (r.witness.size() <= 3) {
      EXPECT_TRUE(brute) << f->ToString();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LtlRandomTest, ::testing::Range(0, 40));

}  // namespace
}  // namespace ltl
}  // namespace accltl
