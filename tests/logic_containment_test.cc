// Standalone coverage for src/logic/containment.cc: Chandra–Merlin
// containment, Klug's inequality method and sentence-level containment
// over unions. The same-shape-but-inequivalent cases matter most: equal
// atom and arity multisets with a different join structure must not
// be reported contained.

#include <gtest/gtest.h>

#include <string>

#include "src/logic/containment.h"
#include "src/logic/cq.h"
#include "src/logic/parser.h"
#include "src/schema/schema.h"

namespace accltl {
namespace logic {
namespace {

class LogicContainmentTest : public ::testing::Test {
 protected:
  LogicContainmentTest() {
    s_.AddRelation("R", {ValueType::kString, ValueType::kString});
    s_.AddRelation("S", {ValueType::kString});
  }

  PosFormulaPtr Parse(const std::string& text) {
    Result<PosFormulaPtr> f = ParseFormula(text, s_);
    EXPECT_TRUE(f.ok()) << text << ": " << f.status().ToString();
    return f.ok() ? f.value() : PosFormula::False();
  }

  /// Parses a boolean sentence that normalizes to a single CQ.
  Cq ParseCq(const std::string& text) {
    Result<Ucq> u = NormalizeToUcq(Parse(text), {}, s_);
    EXPECT_TRUE(u.ok()) << text << ": " << u.status().ToString();
    EXPECT_EQ(u.value().disjuncts.size(), 1u) << text;
    return u.value().disjuncts.at(0);
  }

  bool Contained(const Cq& q1, const Cq& q2) {
    Result<bool> r = CqContained(q1, q2, s_);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() && r.value();
  }

  bool Contained(const std::string& f1, const std::string& f2) {
    Result<bool> r = SentenceContained(Parse(f1), Parse(f2), s_);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() && r.value();
  }

  schema::Schema s_;
};

TEST_F(LogicContainmentTest, HomomorphismContainmentPositiveAndNegative) {
  // A length-2 r-path maps onto a single r-edge (fold), not conversely.
  Cq path2 = ParseCq("EXISTS x, y, z . R(x, y) AND R(y, z)");
  Cq edge = ParseCq("EXISTS u, v . R(u, v)");
  EXPECT_TRUE(Contained(path2, edge));
  EXPECT_FALSE(Contained(edge, path2));
  // Self-containment both ways.
  EXPECT_TRUE(Contained(edge, edge));
}

TEST_F(LogicContainmentTest, SameShapeButInequivalent) {
  // Identical atom/arity multisets, different join structure.
  Cq left = ParseCq("EXISTS x, y . R(x, y) AND S(x)");
  Cq right = ParseCq("EXISTS x, y . R(x, y) AND S(y)");
  EXPECT_FALSE(Contained(left, right));
  EXPECT_FALSE(Contained(right, left));
}

TEST_F(LogicContainmentTest, ConstantsBlockHomomorphisms) {
  Cq jones = ParseCq("EXISTS x . R(x, \"Jones\")");
  Cq any = ParseCq("EXISTS x, y . R(x, y)");
  EXPECT_TRUE(Contained(jones, any));
  EXPECT_FALSE(Contained(any, jones));
  Cq smith = ParseCq("EXISTS x . R(x, \"Smith\")");
  EXPECT_FALSE(Contained(jones, smith));
  EXPECT_FALSE(Contained(smith, jones));
}

TEST_F(LogicContainmentTest, InequalityUsesKlugsMethod) {
  Cq strict = ParseCq("EXISTS x, y . R(x, y) AND x != y");
  Cq loose = ParseCq("EXISTS x, y . R(x, y)");
  // Dropping a ≠ weakens; the plain homomorphism test alone would
  // wrongly accept loose ⊆ strict (the canonical database of loose
  // has distinct nulls), so this pins the identification sweep: the
  // collapsed database {R(a,a)} satisfies loose but not strict.
  EXPECT_TRUE(Contained(strict, loose));
  EXPECT_FALSE(Contained(loose, strict));
}

TEST_F(LogicContainmentTest, ContainmentIgnoresAtomOrderAndVariableNames) {
  // Same query, bound-variable order and conjunct order both flipped.
  Cq q1 = ParseCq("EXISTS x, y . R(x, y) AND S(x)");
  Cq q2 = ParseCq("EXISTS b, a . S(a) AND R(a, b)");
  EXPECT_TRUE(Contained(q1, q2));
  EXPECT_TRUE(Contained(q2, q1));
  // A ≠ read as an unordered pair; on one side only it strengthens.
  Cq n1 = ParseCq("EXISTS x, y . R(x, y) AND x != y");
  Cq n2 = ParseCq("EXISTS a, b . R(a, b) AND b != a");
  EXPECT_TRUE(Contained(n1, n2));
  EXPECT_TRUE(Contained(n2, n1));
  EXPECT_FALSE(Contained(ParseCq("EXISTS a, b . R(a, b)"), n1));
}

TEST_F(LogicContainmentTest, SentenceContainmentOverUnions) {
  const std::string some_s = "EXISTS x . S(x)";
  const std::string s_or_edge = "(EXISTS x . S(x)) OR (EXISTS x, y . R(x, y))";
  EXPECT_TRUE(Contained(some_s, s_or_edge));
  EXPECT_FALSE(Contained(s_or_edge, some_s));
  // Distribution: S(x) AND (S(x) OR R(x,y)) ≡ S(x) needs per-disjunct
  // reasoning on the normalized union.
  EXPECT_TRUE(Contained("EXISTS x, y . S(x) AND (S(x) OR R(x, y))", some_s));
  EXPECT_TRUE(Contained(some_s, "EXISTS x, y . S(x) AND (S(x) OR R(x, y))"));
}

TEST_F(LogicContainmentTest, SentenceContainmentIgnoresDisjunctOrder) {
  // Disjunct order flipped, variables renamed: contained both ways.
  const std::string f1 =
      "(EXISTS x . S(x)) OR (EXISTS x, y . R(x, y) AND S(x))";
  const std::string f2 =
      "(EXISTS b, a . R(a, b) AND S(a)) OR (EXISTS z . S(z))";
  EXPECT_TRUE(Contained(f1, f2));
  EXPECT_TRUE(Contained(f2, f1));
}

}  // namespace
}  // namespace logic
}  // namespace accltl
