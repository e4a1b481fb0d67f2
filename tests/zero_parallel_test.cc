// Determinism and completeness tests for the two engine ports of PR 3:
// the zero-ary solver and the LTS breadth-first explorer must honor
// their num_threads knobs with schedule-independent results (verdict,
// witness, exhausted_budget, per-level stats identical at 1/2/8
// workers), and the two silent-incompleteness holes must stay closed
// (the >12-candidate pool cap and the mid-node budget cut).

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/accltl/parser.h"
#include "src/accltl/semantics.h"
#include "src/analysis/zero_solver.h"
#include "src/common/rng.h"
#include "src/engine/cancel.h"
#include "src/obs/metrics.h"
#include "src/schema/lts.h"
#include "src/workload/workload.h"

namespace accltl {
namespace {

Value S(const std::string& s) { return Value::Str(s); }

// --- Zero-ary solver: determinism across worker counts -----------------------

class ZeroParallelTest : public ::testing::Test {
 protected:
  ZeroParallelTest() : pd_(workload::MakePhoneDirectory()) {}

  acc::AccPtr Parse(const std::string& text) {
    Result<acc::AccPtr> r = acc::ParseAccFormula(text, pd_.schema);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() ? r.value() : acc::AccFormula::False();
  }

  static std::string PathKey(const schema::AccessPath& path,
                             const schema::Schema& schema) {
    std::string out;
    for (const schema::AccessStep& step : path.steps()) {
      out += step.ToString(schema);
      out += '\n';
    }
    return out;
  }

  /// Runs the same zero-solver query at 1, 2 and 8 workers and asserts
  /// the reduced result is identical (verdict, witness content,
  /// exhausted_budget flag).
  void ExpectDeterministicAcrossThreadCounts(
      const acc::AccPtr& f, const schema::Schema& schema,
      analysis::ZeroSolverOptions opts, bool expect_satisfiable,
      bool expect_exhausted) {
    engine::ExecOptions exec;
    exec.num_threads = 1;
    Result<analysis::ZeroSolverResult> serial =
        analysis::CheckZeroArySatisfiable(f, schema, opts, exec);
    ASSERT_TRUE(serial.ok()) << serial.status().ToString();
    EXPECT_EQ(serial.value().satisfiable, expect_satisfiable);
    EXPECT_EQ(serial.value().exhausted_budget, expect_exhausted);
    if (serial.value().satisfiable) {
      EXPECT_TRUE(acc::EvalOnPath(f, schema, serial.value().witness,
                                  schema::Instance(schema)));
    }
    for (size_t threads : {size_t{2}, size_t{8}}) {
      exec.num_threads = threads;
      // Repeat each parallel configuration a few times: a determinism
      // bug is a race, and races need shots to show.
      for (int round = 0; round < 3; ++round) {
        Result<analysis::ZeroSolverResult> parallel =
            analysis::CheckZeroArySatisfiable(f, schema, opts, exec);
        ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
        EXPECT_EQ(parallel.value().satisfiable, serial.value().satisfiable)
            << threads << " workers, round " << round;
        EXPECT_EQ(parallel.value().exhausted_budget,
                  serial.value().exhausted_budget)
            << threads << " workers, round " << round;
        EXPECT_EQ(PathKey(parallel.value().witness, schema),
                  PathKey(serial.value().witness, schema))
            << threads << " workers, round " << round;
      }
    }
  }

  workload::PhoneDirectory pd_;
};

TEST_F(ZeroParallelTest, SatisfiableSameWitnessAtAllThreadCounts) {
  acc::AccPtr f = Parse(
      "F [EXISTS n,p,s,ph . Mobile_post(n,p,s,ph)] AND "
      "F [EXISTS s,p,n,h . Address_post(s,p,n,h)] AND "
      "F [IsBind_AcM2()]");
  analysis::ZeroSolverOptions opts;
  opts.max_path_length = 6;
  ExpectDeterministicAcrossThreadCounts(f, pd_.schema, opts,
                                        /*expect_satisfiable=*/true,
                                        /*expect_exhausted=*/false);
}

TEST_F(ZeroParallelTest, UnsatisfiableSweepAgreesAtAllThreadCounts) {
  // Eventually nonempty but globally empty: the bounded space is
  // swept to exhaustion with a confident "no" at every worker count.
  acc::AccPtr f = Parse(
      "(F [EXISTS n,p,s,ph . Mobile_post(n,p,s,ph)]) AND "
      "(G NOT [EXISTS n,p,s,ph . Mobile_post(n,p,s,ph)])");
  analysis::ZeroSolverOptions opts;
  opts.max_path_length = 8;
  ExpectDeterministicAcrossThreadCounts(f, pd_.schema, opts,
                                        /*expect_satisfiable=*/false,
                                        /*expect_exhausted=*/false);
}

TEST_F(ZeroParallelTest, BudgetTruncatedAgreesOnExhausted) {
  // The same unsatisfiable query under a node budget far below the
  // space: every worker count must hit the budget and say "unknown".
  acc::AccPtr f = Parse(
      "(F [EXISTS n,p,s,ph . Mobile_post(n,p,s,ph)]) AND "
      "(X X X F [IsBind_AcM1()]) AND "
      "(G NOT [EXISTS n,p,s,ph . Mobile_post(n,p,s,ph)])");
  analysis::ZeroSolverOptions opts;
  opts.max_path_length = 8;
  opts.require_idempotent = true;  // disables the memo: a wide space
  opts.max_nodes = 300;            // past the pilot, below the space
  ExpectDeterministicAcrossThreadCounts(f, pd_.schema, opts,
                                        /*expect_satisfiable=*/false,
                                        /*expect_exhausted=*/true);
}

TEST_F(ZeroParallelTest, IdempotentFilterDeterministicAcrossThreads) {
  acc::AccPtr f = Parse(
      "F [EXISTS n,p,s,ph . Mobile_post(n,p,s,ph)] AND "
      "F [IsBind_AcM2()]");
  analysis::ZeroSolverOptions opts;
  opts.require_idempotent = true;
  opts.max_path_length = 4;
  ExpectDeterministicAcrossThreadCounts(f, pd_.schema, opts,
                                        /*expect_satisfiable=*/true,
                                        /*expect_exhausted=*/false);
}

/// Schema with one input-free method: the only shape on which grounded
/// zero-ary searches (which start from the empty instance) can move.
schema::Schema FreeAccessSchema() {
  schema::Schema s;
  schema::RelationId r = s.AddRelation("R", {ValueType::kString});
  schema::RelationId t =
      s.AddRelation("T", {ValueType::kString, ValueType::kString});
  s.AddAccessMethod("MFree", r, {});
  s.AddAccessMethod("MT", t, {0});
  return s;
}

TEST_F(ZeroParallelTest, GroundedDeterministicAcrossThreads) {
  schema::Schema s = FreeAccessSchema();
  // Constants tie the two obligations' values together: the free
  // access reveals R("a"), grounding the MT("a") access that reveals
  // T("a","b"). (Fresh-value pool facts can never be grounded — the
  // documented pool-completeness caveat.)
  Result<acc::AccPtr> f = acc::ParseAccFormula(
      "F [R_post(\"a\")] AND F [T_post(\"a\",\"b\")]", s);
  ASSERT_TRUE(f.ok()) << f.status().ToString();
  analysis::ZeroSolverOptions opts;
  opts.grounded = true;
  opts.max_path_length = 6;
  ExpectDeterministicAcrossThreadCounts(f.value(), s, opts,
                                        /*expect_satisfiable=*/true,
                                        /*expect_exhausted=*/false);
  // And the witness is actually grounded.
  Result<analysis::ZeroSolverResult> r =
      analysis::CheckZeroArySatisfiable(f.value(), s, opts);
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(r.value().satisfiable);
  EXPECT_TRUE(r.value().witness.IsGrounded(s, schema::Instance(s)));
}

// --- Regression: the silent 12-candidate pool cap ----------------------------

/// 20 distinct Mobile facts in the pool; the second obligation needs
/// the 20th. With a 2-step path bound the pre-engine solver's
/// first-12-candidates subset cap could never reach it — and it
/// reported a *definitive* "unsatisfiable" (exhausted_budget false)
/// for this satisfiable formula.
std::string TwentyFactFormula() {
  std::string big = "F [";
  for (int i = 0; i < 20; ++i) {
    if (i > 0) big += " OR ";
    big += "Mobile_post(\"n" + std::to_string(i) + "\",\"p\",\"s\",1)";
  }
  big += "]";
  return big + " AND F [Mobile_post(\"n19\",\"p\",\"s\",1)]";
}

TEST_F(ZeroParallelTest, PoolBeyondTwelveCandidatesIsStillComplete) {
  acc::AccPtr f = Parse(TwentyFactFormula());
  analysis::ZeroSolverOptions opts;
  opts.max_path_length = 2;
  Result<analysis::ZeroSolverResult> r =
      analysis::CheckZeroArySatisfiable(f, pd_.schema, opts);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(r.value().satisfiable);
  EXPECT_TRUE(acc::EvalOnPath(f, pd_.schema, r.value().witness,
                              schema::Instance(pd_.schema)));
}

TEST_F(ZeroParallelTest, SubsetCapTruncationIsFlaggedNotSilent) {
  // Force the subset cap below the enumeration: an incomplete search
  // must say "unknown" (exhausted_budget), never a definitive "no".
  acc::AccPtr f = Parse(TwentyFactFormula());
  analysis::ZeroSolverOptions opts;
  opts.max_path_length = 2;
  opts.max_subsets_per_access = 4;  // cuts long before candidate n19
  Result<analysis::ZeroSolverResult> r =
      analysis::CheckZeroArySatisfiable(f, pd_.schema, opts);
  ASSERT_TRUE(r.ok());
  if (!r.value().satisfiable) {
    EXPECT_TRUE(r.value().exhausted_budget);
  }
}

// --- Pinned work counters ---------------------------------------------------
//
// analysis.zero.candidates counts the (method, binding group, pool subset)
// accesses decided and analysis.zero.children the ones kept. Pinning them
// checks that the candidate loop enumerates the same subsets at every
// worker count and from one version to the next.

struct ZeroWork {
  bool satisfiable = false;
  bool exhausted = false;
  uint64_t candidates = 0;
  uint64_t children = 0;
};

ZeroWork SweepWork(const acc::AccPtr& f, const schema::Schema& schema,
                   const analysis::ZeroSolverOptions& opts, size_t workers) {
  obs::SetMetricsEnabled(true);
  obs::Counter* candidates =
      obs::Registry::Get().counter("analysis.zero.candidates");
  obs::Counter* children =
      obs::Registry::Get().counter("analysis.zero.children");
  engine::ExecOptions exec;
  exec.num_threads = workers;
  uint64_t c0 = candidates->Value();
  uint64_t k0 = children->Value();
  Result<analysis::ZeroSolverResult> r =
      analysis::CheckZeroArySatisfiable(f, schema, opts, exec);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  ZeroWork out;
  if (!r.ok()) return out;
  out.satisfiable = r.value().satisfiable;
  out.exhausted = r.value().exhausted_budget;
  out.candidates = candidates->Value() - c0;
  out.children = children->Value() - k0;
  return out;
}

/// One relation R(a, b) behind a method on `a` that returns at most two
/// tuples per access.
schema::Schema ResultBoundedSchema() {
  schema::Schema s;
  schema::RelationId r =
      s.AddRelation("R", {ValueType::kString, ValueType::kString});
  s.AddAccessMethod("MR", r, {0}, /*exact=*/false, /*idempotent=*/false,
                    /*result_bound=*/2);
  return s;
}

TEST_F(ZeroParallelTest, SweepWorkCountersArePinned) {
  struct Case {
    const char* name;
    schema::Schema schema;
    std::string formula;
    analysis::ZeroSolverOptions opts;
    ZeroWork want;  // at 1, 2 and 8 workers alike
  };
  std::vector<Case> cases;
  {
    Case c{"subset-cap", pd_.schema, TwentyFactFormula(), {}, {}};
    c.opts.max_path_length = 2;
    c.opts.max_subsets_per_access = 4;
    c.want = {false, true, 25, 25};
    cases.push_back(std::move(c));
  }
  {
    Case c{"result-bounded", ResultBoundedSchema(),
           "F [R_post(\"a\",\"b0\") AND R_post(\"a\",\"b1\") AND "
           "R_post(\"a\",\"b2\")] AND G NOT [R_post(\"a\",\"b3\")]",
           {}, {}};
    c.opts.max_path_length = 4;
    c.want = {true, false, 22, 13};
    cases.push_back(std::move(c));
  }
  {
    Case c{"grounded", FreeAccessSchema(),
           "F [R_post(\"a\")] AND F [T_post(\"a\",\"b\")]", {}, {}};
    c.opts.grounded = true;
    c.opts.max_path_length = 6;
    c.want = {true, false, 7, 7};
    cases.push_back(std::move(c));
  }
  {
    Case c{"idempotent", pd_.schema,
           "F [EXISTS n,p,s,ph . Mobile_post(n,p,s,ph)] AND "
           "F [IsBind_AcM2()]",
           {}, {}};
    c.opts.require_idempotent = true;
    c.opts.max_path_length = 4;
    c.want = {true, false, 33, 33};
    cases.push_back(std::move(c));
  }
  for (const Case& c : cases) {
    Result<acc::AccPtr> f = acc::ParseAccFormula(c.formula, c.schema);
    ASSERT_TRUE(f.ok()) << c.name << ": " << f.status().ToString();
    for (size_t workers : {size_t{1}, size_t{2}, size_t{8}}) {
      ZeroWork got = SweepWork(f.value(), c.schema, c.opts, workers);
      const ZeroWork& want = c.want;
      EXPECT_EQ(got.satisfiable, want.satisfiable) << c.name << " @" << workers;
      EXPECT_EQ(got.exhausted, want.exhausted) << c.name << " @" << workers;
      EXPECT_EQ(got.candidates, want.candidates) << c.name << " @" << workers;
      EXPECT_EQ(got.children, want.children) << c.name << " @" << workers;
    }
  }
}

// --- LTS explorer: determinism across worker counts --------------------------

class LtsParallelTest : public ::testing::Test {
 protected:
  LtsParallelTest() : pd_(workload::MakePhoneDirectory()) {}

  static void ExpectSameStats(const std::vector<schema::LtsLevelStats>& a,
                              const std::vector<schema::LtsLevelStats>& b,
                              const std::string& label) {
    ASSERT_EQ(a.size(), b.size()) << label;
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].depth, b[i].depth) << label << " level " << i;
      EXPECT_EQ(a[i].distinct_configurations, b[i].distinct_configurations)
          << label << " level " << i;
      EXPECT_EQ(a[i].transitions, b[i].transitions) << label << " level "
                                                    << i;
      EXPECT_EQ(a[i].max_configuration_facts, b[i].max_configuration_facts)
          << label << " level " << i;
      EXPECT_EQ(a[i].truncated, b[i].truncated) << label << " level " << i;
    }
  }

  void ExpectDeterministicStats(schema::LtsOptions opts, size_t depth,
                                size_t max_nodes) {
    engine::ExecOptions exec;
    exec.num_threads = 1;
    std::vector<schema::LtsLevelStats> serial = schema::ExploreBreadthFirst(
        pd_.schema, schema::Instance(pd_.schema), opts, depth, max_nodes,
        exec);
    for (size_t threads : {size_t{2}, size_t{8}}) {
      exec.num_threads = threads;
      for (int round = 0; round < 3; ++round) {
        std::vector<schema::LtsLevelStats> parallel =
            schema::ExploreBreadthFirst(pd_.schema,
                                        schema::Instance(pd_.schema), opts,
                                        depth, max_nodes, exec);
        ExpectSameStats(serial, parallel,
                        std::to_string(threads) + " workers, round " +
                            std::to_string(round));
      }
    }
  }

  workload::PhoneDirectory pd_;
};

TEST_F(LtsParallelTest, GroundedExplorationSameStatsAtAllThreadCounts) {
  Rng rng(1);
  schema::LtsOptions opts;
  opts.universe = workload::MakePhoneUniverse(pd_, &rng, 8);
  opts.grounded = true;
  opts.seed_values = {S("Smith")};
  ExpectDeterministicStats(opts, /*depth=*/3, /*max_nodes=*/10000);
}

TEST_F(LtsParallelTest, FreeExplorationSameStatsAtAllThreadCounts) {
  Rng rng(2);
  schema::LtsOptions opts;
  opts.universe = workload::MakePhoneUniverse(pd_, &rng, 4);
  opts.grounded = false;
  opts.seed_values = {S("Smith")};
  ExpectDeterministicStats(opts, /*depth=*/2, /*max_nodes=*/10000);
}

TEST_F(LtsParallelTest, BudgetEdgeTruncationIsDeterministicAndFlagged) {
  Rng rng(1);
  schema::LtsOptions opts;
  opts.universe = workload::MakePhoneUniverse(pd_, &rng, 8);
  opts.grounded = false;  // free exploration: plenty of configurations
  opts.seed_values = {S("Smith")};
  // A budget well inside the reachable space: the cut level must be
  // flagged and every statistic identical at every worker count.
  std::vector<schema::LtsLevelStats> serial = schema::ExploreBreadthFirst(
      pd_.schema, schema::Instance(pd_.schema), opts, 3, 10);
  bool truncated = false;
  for (const schema::LtsLevelStats& s : serial) {
    truncated = truncated || s.truncated;
  }
  EXPECT_TRUE(truncated) << "budget was expected to bind";
  ExpectDeterministicStats(opts, /*depth=*/3, /*max_nodes=*/10);
}

// --- Regression: singleton full response without singleton enumeration -------

TEST_F(LtsParallelTest, SingleMatchingFactResponseIsEnumerated) {
  // Universe with exactly one Smith tuple. With singleton enumeration
  // off, the non-exact method must still offer the full (one-fact)
  // response — it used to produce only the empty response, silently
  // dropping every configuration reachable through the fact.
  schema::Instance universe(pd_.schema);
  universe.AddFact(pd_.mobile,
                   {S("Smith"), S("OX13QD"), S("Parks Rd"), Value::Int(1)});
  schema::LtsOptions opts;
  opts.universe = universe;
  opts.grounded = true;
  opts.seed_values = {S("Smith")};
  opts.enumerate_singleton_responses = false;
  std::vector<schema::Transition> succ =
      schema::Successors(pd_.schema, schema::Instance(pd_.schema), opts);
  bool found_nonempty = false;
  for (const schema::Transition& t : succ) {
    if (t.access.method == pd_.acm1 && t.response.size() == 1) {
      found_nonempty = true;
    }
  }
  EXPECT_TRUE(found_nonempty)
      << "one-matching-fact full response was not enumerated";
  // And the tree actually grows through it: the only depth-1
  // configuration distinct from the initial one is reached through the
  // one-fact response (every other enumerated response is empty).
  std::vector<schema::LtsLevelStats> stats = schema::ExploreBreadthFirst(
      pd_.schema, schema::Instance(pd_.schema), opts, 2, 10000);
  ASSERT_GE(stats.size(), 2u);
  EXPECT_GT(stats[1].distinct_configurations, 0u)
      << "the singleton response should reveal a new configuration";
}

}  // namespace
}  // namespace accltl
