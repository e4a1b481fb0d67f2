// Standalone coverage for src/datalog/containment.cc's UCQ-level
// forms: DlUcqContained and its agreement with ContainedInPositive /
// UnfoldToUcq on non-recursive programs. Mirrors
// tests/logic_containment_test.cc on the Datalog side.

#include <gtest/gtest.h>

#include <string>

#include "src/datalog/containment.h"
#include "src/datalog/program.h"
#include "src/logic/term.h"

namespace accltl {
namespace datalog {
namespace {

logic::Term V(const std::string& v) { return logic::Term::Var(v); }
logic::Term C(const std::string& c) {
  return logic::Term::Const(Value::Str(c));
}

TEST(DlUcqContainedTest, HomomorphismDirectionality) {
  // A 2-step e-path folds onto a single edge; not conversely.
  DlUcq path2 = {DlCq{{{"e", {V("x"), V("y")}}, {"e", {V("y"), V("z")}}}}};
  DlUcq edge = {DlCq{{{"e", {V("u"), V("v")}}}}};
  EXPECT_TRUE(DlUcqContained(path2, edge));
  EXPECT_FALSE(DlUcqContained(edge, path2));
}

TEST(DlUcqContainedTest, UnionAndConstants) {
  DlUcq just_a = {DlCq{{{"p", {C("a")}}}}};
  DlUcq a_or_b = {DlCq{{{"p", {C("a")}}}}, DlCq{{{"p", {C("b")}}}}};
  DlUcq any = {DlCq{{{"p", {V("x")}}}}};
  EXPECT_TRUE(DlUcqContained(just_a, a_or_b));
  EXPECT_FALSE(DlUcqContained(a_or_b, just_a));
  EXPECT_TRUE(DlUcqContained(a_or_b, any));
  EXPECT_FALSE(DlUcqContained(any, just_a));
}

TEST(DlUcqContainedTest, AtomOrderAndVariableNamesDoNotMatter) {
  DlCq a{{{"e", {V("x"), V("y")}}, {"s", {V("x")}}}};
  DlCq b{{{"s", {V("u")}}, {"e", {V("u"), V("w")}}}};
  EXPECT_TRUE(DlUcqContained({a}, {b}));
  EXPECT_TRUE(DlUcqContained({b}, {a}));
}

TEST(DlUcqContainedTest, SameShapeButInequivalent) {
  // Equal predicate multisets, different join structure: no
  // containment either way.
  DlCq src{{{"e", {V("x"), V("y")}}, {"s", {V("x")}}}};
  DlCq dst{{{"e", {V("x"), V("y")}}, {"s", {V("y")}}}};
  EXPECT_FALSE(DlUcqContained({src}, {dst}));
  EXPECT_FALSE(DlUcqContained({dst}, {src}));
  // A 2-chain is contained in a fork (the fork folds onto one edge),
  // not conversely.
  DlCq chain{{{"e", {V("x"), V("y")}}, {"e", {V("y"), V("z")}}}};
  DlCq fork{{{"e", {V("x"), V("y")}}, {"e", {V("x"), V("z")}}}};
  EXPECT_TRUE(DlUcqContained({chain}, {fork}));
  EXPECT_FALSE(DlUcqContained({fork}, {chain}));
}

TEST(ContainedInPositiveTest, AgreesWithUnfoldingOnNonRecursive) {
  // goal :- e(x, y), e(y, z)  — "there is a 2-path".
  Program p;
  p.AddRule({{"goal", {}}, {{"e", {V("x"), V("y")}}, {"e", {V("y"), V("z")}}}});
  p.SetGoal("goal");
  ASSERT_TRUE(p.Validate().ok());

  DlUcq edge = {DlCq{{{"e", {V("u"), V("v")}}}}};
  DlUcq path3 = {DlCq{{{"e", {V("a"), V("b")}},
                       {"e", {V("b"), V("c")}},
                       {"e", {V("c"), V("d")}}}}};
  Result<bool> in_edge = ContainedInPositive(p, edge);
  ASSERT_TRUE(in_edge.ok()) << in_edge.status().ToString();
  EXPECT_TRUE(in_edge.value());
  Result<bool> in_path3 = ContainedInPositive(p, path3);
  ASSERT_TRUE(in_path3.ok()) << in_path3.status().ToString();
  EXPECT_FALSE(in_path3.value());

  // The unfolding cross-check gives the same answers via DlUcqContained.
  Result<DlUcq> unfolded = UnfoldToUcq(p);
  ASSERT_TRUE(unfolded.ok()) << unfolded.status().ToString();
  EXPECT_TRUE(DlUcqContained(unfolded.value(), edge));
  EXPECT_FALSE(DlUcqContained(unfolded.value(), path3));
}

}  // namespace
}  // namespace datalog
}  // namespace accltl
