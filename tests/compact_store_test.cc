// Tests for the compact state-storage subsystem: the tree-compressed
// configuration database (src/store/treedb.h), the Cleary-style
// compact visited table and the serial ref set
// (src/engine/compact_table.h), the sharded table's evict hook, and
// the end-to-end VisitedMode contract — byte-identical verdicts, node
// counts and schedule-independent visited_bytes across worker counts
// in both storage modes.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <random>
#include <thread>
#include <vector>

#include "src/accltl/parser.h"
#include "src/analysis/zero_solver.h"
#include "src/automata/compile.h"
#include "src/automata/emptiness.h"
#include "src/common/rng.h"
#include "src/engine/cancel.h"
#include "src/engine/compact_table.h"
#include "src/engine/visited_table.h"
#include "src/obs/metrics.h"
#include "src/schema/lts.h"
#include "src/store/treedb.h"
#include "src/workload/workload.h"

namespace accltl {
namespace {

// --- TreeDb: canonical sets --------------------------------------------------

TEST(TreeDbTest, SetShapeIsInsertionOrderIndependent) {
  store::TreeDb db;
  std::vector<uint32_t> keys = {7, 1, 900, 42, 0, 0x80000000u, 13, 5};
  store::TreeRef forward = store::kNilTreeRef;
  for (uint32_t k : keys) forward = db.InsertSet(forward, k);
  store::TreeRef backward = store::kNilTreeRef;
  for (auto it = keys.rbegin(); it != keys.rend(); ++it) {
    backward = db.InsertSet(backward, *it);
  }
  EXPECT_EQ(forward, backward);

  std::mt19937 gen(123);
  for (int round = 0; round < 20; ++round) {
    std::shuffle(keys.begin(), keys.end(), gen);
    EXPECT_EQ(db.SetFromKeys(keys.data(), keys.size()), forward);
  }
}

TEST(TreeDbTest, RefEqualityIsSetEquality) {
  store::TreeDb db;
  // 200 random sets, some equal by construction: every distinct
  // content must get a distinct root, every equal content the same.
  std::mt19937 gen(7);
  std::vector<std::vector<uint32_t>> sets;
  for (int i = 0; i < 100; ++i) {
    std::vector<uint32_t> s;
    size_t n = 1 + gen() % 8;
    for (size_t j = 0; j < n; ++j) s.push_back(gen() % 64);
    std::sort(s.begin(), s.end());
    s.erase(std::unique(s.begin(), s.end()), s.end());
    sets.push_back(s);
    sets.push_back(s);  // duplicate content, later shuffled
  }
  std::vector<store::TreeRef> refs;
  for (std::vector<uint32_t> s : sets) {
    std::shuffle(s.begin(), s.end(), gen);
    refs.push_back(db.SetFromKeys(s.data(), s.size()));
  }
  for (size_t a = 0; a < sets.size(); ++a) {
    for (size_t b = a + 1; b < sets.size(); ++b) {
      EXPECT_EQ(refs[a] == refs[b], sets[a] == sets[b])
          << "sets " << a << " and " << b;
    }
  }
}

TEST(TreeDbTest, InsertExistingKeyReturnsSameRef) {
  store::TreeDb db;
  std::vector<uint32_t> keys = {3, 17, 255};
  store::TreeRef set = db.SetFromKeys(keys.data(), keys.size());
  size_t nodes_before = db.num_nodes();
  for (uint32_t k : keys) {
    EXPECT_EQ(db.InsertSet(set, k), set);
    EXPECT_TRUE(db.SetContains(set, k));
  }
  EXPECT_FALSE(db.SetContains(set, 4));
  EXPECT_EQ(db.num_nodes(), nodes_before);  // no-op inserts intern nothing
}

TEST(TreeDbTest, TuplesUpdateAlongTheSpine) {
  store::TreeDb db;
  constexpr size_t kSlots = 5;
  store::TreeRef slots[kSlots];
  for (size_t i = 0; i < kSlots; ++i) {
    slots[i] = db.InternLeaf(static_cast<uint32_t>(100 + i));
  }
  store::TreeRef root = db.InternTuple(slots, kSlots);
  // Updating slot i must equal re-folding the modified slot array, and
  // updating back must restore the original root.
  for (size_t i = 0; i < kSlots; ++i) {
    store::TreeRef fresh = db.InternLeaf(777);
    store::TreeRef updated = db.UpdateTuple(root, kSlots, i, fresh);
    store::TreeRef expect_slots[kSlots];
    std::copy(slots, slots + kSlots, expect_slots);
    expect_slots[i] = fresh;
    EXPECT_EQ(updated, db.InternTuple(expect_slots, kSlots)) << "slot " << i;
    EXPECT_NE(updated, root);
    EXPECT_EQ(db.UpdateTuple(updated, kSlots, i, slots[i]), root);
  }
  EXPECT_GT(db.bytes(), 0u);
  db.Clear();
  EXPECT_EQ(db.num_nodes(), 0u);
}

TEST(TreeDbTest, ExtendedConfigRefsEqualTheFoldOfTheChild) {
  store::TreeDb db;
  // Three relations; the child adds {4, 9} to relation 1, one of which
  // the parent already holds.
  std::vector<std::vector<store::FactId>> parent = {{1, 2}, {9}, {}};
  std::vector<std::vector<store::FactId>> child = {{1, 2}, {4, 9}, {}};
  auto fold = [&](const std::vector<std::vector<store::FactId>>& config) {
    return store::FoldConfigRefs(
        &db, config.size(),
        [&](size_t r) -> const std::vector<store::FactId>& {
          return config[r];
        });
  };
  store::ConfigRefs from_parent = fold(parent);
  store::ConfigRefs extended =
      store::ExtendConfigRefs(&db, from_parent, 1, {9, 4});
  store::ConfigRefs folded = fold(child);
  EXPECT_EQ(extended.rel_refs, folded.rel_refs);
  EXPECT_EQ(extended.config_ref, folded.config_ref);
  EXPECT_NE(extended.config_ref, from_parent.config_ref);
  // A response the configuration already holds leaves it unchanged.
  store::ConfigRefs same = store::ExtendConfigRefs(&db, extended, 1, {4});
  EXPECT_EQ(same.config_ref, extended.config_ref);
  EXPECT_EQ(same.rel_refs, extended.rel_refs);
}

TEST(TreeDbTest, ConcurrentInterningIsCanonical) {
  store::TreeDb db;
  // 64 distinct key sets, every thread interns all of them in its own
  // order; hash-consing must give every thread the same ref per set.
  std::vector<std::vector<uint32_t>> sets;
  std::mt19937 gen(99);
  for (int i = 0; i < 64; ++i) {
    std::vector<uint32_t> s;
    size_t n = 1 + gen() % 12;
    for (size_t j = 0; j < n; ++j) s.push_back(gen() % 1024);
    sets.push_back(s);
  }
  constexpr size_t kThreads = 8;
  std::vector<std::vector<store::TreeRef>> refs(
      kThreads, std::vector<store::TreeRef>(sets.size()));
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::mt19937 order(static_cast<unsigned>(t));
      std::vector<size_t> idx(sets.size());
      for (size_t i = 0; i < idx.size(); ++i) idx[i] = i;
      std::shuffle(idx.begin(), idx.end(), order);
      for (size_t i : idx) {
        std::vector<uint32_t> keys = sets[i];
        std::shuffle(keys.begin(), keys.end(), order);
        refs[t][i] = db.SetFromKeys(keys.data(), keys.size());
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (size_t t = 1; t < kThreads; ++t) {
    EXPECT_EQ(refs[t], refs[0]) << "thread " << t;
  }
}

// --- CompactVisitedTable -----------------------------------------------------

engine::CompactEntry Entry(store::TreeRef ref, uint32_t depth) {
  engine::CompactEntry e;
  e.ref = ref;
  e.depth = depth;
  return e;
}

// Shallower-or-equal dominates — the searches' depth component.
bool DepthDominates(const engine::CompactEntry& a,
                    const engine::CompactEntry& b) {
  return a.depth <= b.depth;
}

TEST(CompactTableTest, DominanceSuppresssAndEvicts) {
  engine::CompactVisitedTable table(1);  // one shard: all refs collide
  EXPECT_FALSE(table.CheckAndInsert(Entry(10, 5), DepthDominates));
  // A deeper twin is suppressed; the table is unchanged.
  EXPECT_TRUE(table.CheckAndInsert(Entry(10, 7), DepthDominates));
  EXPECT_EQ(table.size(), 1u);
  // A shallower twin evicts the old entry (reported to the hook).
  std::vector<uint32_t> evicted;
  EXPECT_FALSE(table.CheckAndInsert(
      Entry(10, 3), DepthDominates,
      [&](const engine::CompactEntry& e) { evicted.push_back(e.depth); }));
  EXPECT_EQ(evicted, std::vector<uint32_t>{5});
  EXPECT_EQ(table.size(), 1u);
  // Distinct refs never relate: both live regardless of depth.
  EXPECT_FALSE(table.CheckAndInsert(Entry(11, 100), DepthDominates));
  EXPECT_EQ(table.size(), 2u);
  EXPECT_EQ(table.bytes(), 2 * sizeof(engine::CompactEntry));
}

TEST(CompactTableTest, CollisionHeavySingleShard) {
  // Every ref lands in one shard: long probe chains, growth rehashes,
  // and tombstone churn all on one slot array. Dominance by depth
  // within each ref; the table must end with exactly one (the
  // shallowest) entry per ref.
  engine::CompactVisitedTable table(1);
  constexpr uint32_t kRefs = 500;
  std::mt19937 gen(5);
  std::vector<uint32_t> best(kRefs + 1, 0xffffffffu);
  for (int round = 0; round < 3; ++round) {
    std::vector<uint32_t> order(kRefs);
    for (uint32_t i = 0; i < kRefs; ++i) order[i] = i + 1;
    std::shuffle(order.begin(), order.end(), gen);
    for (uint32_t ref : order) {
      uint32_t depth = gen() % 64;
      bool suppressed =
          table.CheckAndInsert(Entry(ref, depth), DepthDominates);
      EXPECT_EQ(suppressed, best[ref] <= depth) << "ref " << ref;
      best[ref] = std::min(best[ref], depth);
    }
  }
  EXPECT_EQ(table.size(), static_cast<size_t>(kRefs));
  table.Clear();
  EXPECT_EQ(table.size(), 0u);
}

TEST(CompactTableTest, ConcurrentInsertKeepsOneWinnerPerRef) {
  engine::CompactVisitedTable table(4);
  constexpr uint32_t kRefs = 200;
  constexpr size_t kThreads = 8;
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::mt19937 gen(static_cast<unsigned>(1000 + t));
      for (int i = 0; i < 2000; ++i) {
        uint32_t ref = 1 + gen() % kRefs;
        table.CheckAndInsert(Entry(ref, gen() % 32), DepthDominates);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  // Total-order dominance per ref: exactly one survivor each.
  EXPECT_EQ(table.size(), static_cast<size_t>(kRefs));
}

TEST(CompactRefSetTest, InsertOnceGrowsAndCounts) {
  engine::CompactRefSet set;
  std::mt19937 gen(3);
  std::vector<uint32_t> refs;
  for (int i = 0; i < 300; ++i) refs.push_back(1 + gen() % 150);
  size_t distinct = 0;
  std::vector<bool> seen(151, false);
  for (uint32_t r : refs) {
    bool fresh = set.Insert(r);
    EXPECT_EQ(fresh, !seen[r]);
    if (fresh) ++distinct;
    seen[r] = true;
  }
  EXPECT_EQ(set.size(), distinct);
  EXPECT_EQ(set.bytes(), distinct * sizeof(store::TreeRef));
}

// Regression: kNilTreeRef is a legitimate key — a single-relation
// empty configuration folds to the canonical empty set, and a 1-slot
// tuple is the slot itself (treedb.h) — yet it is also the slot
// array's empty marker. The LTS explorer hit this as an off-by-one:
// the empty configuration was counted as newly reached at every
// single level because Insert(kNilTreeRef) never stored anything.
TEST(CompactRefSetTest, NilRefIsALegalKey) {
  engine::CompactRefSet set;
  EXPECT_TRUE(set.Insert(store::kNilTreeRef));
  EXPECT_FALSE(set.Insert(store::kNilTreeRef));
  EXPECT_EQ(set.size(), 1u);
  for (uint32_t r = 1; r <= 200; ++r) EXPECT_TRUE(set.Insert(r));
  // Growth rehashes must not resurrect nil's "absent" state.
  EXPECT_FALSE(set.Insert(store::kNilTreeRef));
  EXPECT_EQ(set.size(), 201u);
}

// --- ShardedVisitedTable evict hook ------------------------------------------

TEST(ShardedVisitedTableTest, EvictHookSeesDominatedEntries) {
  engine::ShardedVisitedTable<int> table(4);
  auto dominates = [](int a, int b) { return a <= b; };
  constexpr uint64_t kHash = 42;
  std::vector<int> evicted;
  auto hook = [&](int e) { evicted.push_back(e); };
  EXPECT_FALSE(table.CheckAndInsert(kHash, 10, dominates, hook));
  EXPECT_TRUE(table.CheckAndInsert(kHash, 12, dominates, hook));
  EXPECT_TRUE(evicted.empty());
  // The newcomer dominates: the old entry is reported, then dropped.
  EXPECT_FALSE(table.CheckAndInsert(kHash, 7, dominates, hook));
  EXPECT_EQ(evicted, std::vector<int>{10});
  // Same hash, incomparable entries coexist... (here total order, so
  // a single winner remains)
  EXPECT_EQ(table.size(), 1u);
}

// --- End-to-end mode equivalence ---------------------------------------------

class VisitedModeTest : public ::testing::Test {
 protected:
  VisitedModeTest() : pd_(workload::MakePhoneDirectory()) {}
  workload::PhoneDirectory pd_;
};

// The exhaustive diamond (two commuting obligations + one
// unsatisfiable): a fixed dedup-heavy workload.
const char kDiamond[] =
    "F [EXISTS n . IsBind_AcM1(n) AND "
    "(EXISTS p,s,ph . Mobile_post(n,p,s,ph))] AND "
    "F [EXISTS s,p . IsBind_AcM2(s,p) AND "
    "(EXISTS n,h . Address_post(s,p,n,h))] AND "
    "F [EXISTS n . IsBind_AcM1(n) AND n != n]";

TEST_F(VisitedModeTest, WitnessSearchModesAgreeAndBytesAreDeterministic) {
  acc::AccPtr f = acc::ParseAccFormula(kDiamond, pd_.schema).value();
  automata::AAutomaton a =
      automata::CompileToAutomaton(f, pd_.schema).value();
  automata::WitnessSearchOptions opts;
  opts.max_path_length = 3;

  struct Run {
    bool found;
    size_t nodes;
    size_t visited_bytes;
    size_t treedb_nodes;
  };
  auto run = [&](engine::VisitedMode mode, size_t threads) {
    engine::ExecOptions exec;
    exec.num_threads = threads;
    exec.visited_mode = mode;
    automata::WitnessSearchResult r = automata::BoundedWitnessSearch(
        a, pd_.schema, schema::Instance(pd_.schema), opts, exec);
    return Run{r.found, r.nodes_explored, r.visited_bytes, r.treedb_nodes};
  };

  // Mode equivalence at every worker count: kCompact is a storage
  // change, so found/nodes must match kExact run-for-run. (The serial
  // pf-DFS and the level sweep are different traversal disciplines, so
  // node counts are only compared within one worker count, never
  // across — the engines' documented scope.)
  Run exact[3], compact[3];
  const size_t kThreads[3] = {1, 2, 8};
  for (int i = 0; i < 3; ++i) {
    exact[i] = run(engine::VisitedMode::kExact, kThreads[i]);
    compact[i] = run(engine::VisitedMode::kCompact, kThreads[i]);
    EXPECT_FALSE(exact[i].found);
    EXPECT_GT(exact[i].nodes, 1000u);
    EXPECT_EQ(exact[i].treedb_nodes, 0u);
    EXPECT_EQ(compact[i].found, exact[i].found);
    EXPECT_EQ(compact[i].nodes, exact[i].nodes)
        << kThreads[i] << " threads";
    EXPECT_GT(compact[i].treedb_nodes, 0u);
    EXPECT_LT(compact[i].visited_bytes, exact[i].visited_bytes)
        << kThreads[i] << " threads";
  }
  // Schedule-independence within the level discipline: 2 and 8 workers
  // run the same two-phase sweep, so every statistic — including the
  // logical byte footprints of both modes — must be identical.
  EXPECT_EQ(exact[2].nodes, exact[1].nodes);
  EXPECT_EQ(exact[2].visited_bytes, exact[1].visited_bytes);
  EXPECT_EQ(compact[2].nodes, compact[1].nodes);
  EXPECT_EQ(compact[2].visited_bytes, compact[1].visited_bytes);
  EXPECT_EQ(compact[2].treedb_nodes, compact[1].treedb_nodes);
}

TEST_F(VisitedModeTest, WitnessSearchModesAgreeOnSatisfiable) {
  Rng rng(11);
  schema::Instance seeded = workload::MakePhoneUniverse(pd_, &rng, 24);
  acc::AccPtr f = acc::ParseAccFormula(
      "F [EXISTS n . IsBind_AcM1(n) AND "
      "(EXISTS s,p,h . Address_pre(s,p,n,h))]",
      pd_.schema).value();
  automata::AAutomaton a =
      automata::CompileToAutomaton(f, pd_.schema).value();
  automata::WitnessSearchOptions opts;
  opts.max_path_length = 3;
  engine::ExecOptions exact;
  automata::WitnessSearchResult base =
      automata::BoundedWitnessSearch(a, pd_.schema, seeded, opts, exact);
  ASSERT_TRUE(base.found);
  for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    engine::ExecOptions exec;
    exec.num_threads = threads;
    exec.visited_mode = engine::VisitedMode::kCompact;
    automata::WitnessSearchResult r =
        automata::BoundedWitnessSearch(a, pd_.schema, seeded, opts, exec);
    EXPECT_TRUE(r.found);
    EXPECT_EQ(r.nodes_explored, base.nodes_explored);
    EXPECT_EQ(r.witness.ToString(pd_.schema), base.witness.ToString(pd_.schema));
  }
}

TEST_F(VisitedModeTest, MemoryBudgetTruncatesExactButNotCompact) {
  acc::AccPtr f = acc::ParseAccFormula(kDiamond, pd_.schema).value();
  automata::AAutomaton a =
      automata::CompileToAutomaton(f, pd_.schema).value();
  automata::WitnessSearchOptions opts;
  opts.max_path_length = 3;
  engine::ExecOptions free_exec;
  automata::WitnessSearchResult unbounded = automata::BoundedWitnessSearch(
      a, pd_.schema, schema::Instance(pd_.schema), opts, free_exec);
  ASSERT_FALSE(unbounded.exhausted_budget);

  // A cap between the two modes' footprints: exact truncates (and a
  // truncated sweep is exhausted_budget, never a silent "no"),
  // compact completes the identical search.
  engine::ExecOptions capped;
  capped.max_visited_bytes = unbounded.visited_bytes / 4;
  automata::WitnessSearchResult exact_capped = automata::BoundedWitnessSearch(
      a, pd_.schema, schema::Instance(pd_.schema), opts, capped);
  EXPECT_TRUE(exact_capped.exhausted_budget);
  EXPECT_FALSE(exact_capped.found);

  capped.visited_mode = engine::VisitedMode::kCompact;
  automata::WitnessSearchResult compact_capped =
      automata::BoundedWitnessSearch(a, pd_.schema,
                                     schema::Instance(pd_.schema), opts,
                                     capped);
  EXPECT_FALSE(compact_capped.exhausted_budget);
  EXPECT_EQ(compact_capped.nodes_explored, unbounded.nodes_explored);
  EXPECT_LT(compact_capped.visited_bytes, capped.max_visited_bytes);
}

TEST_F(VisitedModeTest, ZeroSolverModesAgree) {
  // Zero-ary fragment: reveal-obligations over constants plus an
  // unsatisfiable conjunct force a full sweep.
  acc::AccPtr f = acc::ParseAccFormula(
      "F [Mobile_post(\"n0\",\"p\",\"s\",1) OR "
      "Mobile_post(\"n1\",\"p\",\"s\",1)] AND "
      "F ([IsBind_AcM1()] AND [IsBind_AcM2()])",
      pd_.schema).value();
  analysis::ZeroSolverOptions opts;
  opts.max_path_length = 3;
  engine::ExecOptions exact;
  Result<analysis::ZeroSolverResult> base =
      analysis::CheckZeroArySatisfiable(f, pd_.schema, opts, exact);
  ASSERT_TRUE(base.ok());
  size_t compact_bytes = 0;
  for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    engine::ExecOptions exec;
    exec.num_threads = threads;
    exec.visited_mode = engine::VisitedMode::kCompact;
    Result<analysis::ZeroSolverResult> r =
        analysis::CheckZeroArySatisfiable(f, pd_.schema, opts, exec);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.value().satisfiable, base.value().satisfiable);
    EXPECT_EQ(r.value().nodes_explored, base.value().nodes_explored);
    EXPECT_GT(r.value().visited_bytes, 0u);
    if (threads == 1) {
      compact_bytes = r.value().visited_bytes;
    } else {
      EXPECT_EQ(r.value().visited_bytes, compact_bytes)
          << threads << " threads";
    }
  }
}

// The zero solver's byte-budget cut points, pinned in both modes (the
// witness search's are covered above). One worker cuts at a pop, so
// the serial search stops mid-level; two and eight workers cut at a
// level barrier, after the reduction has registered the whole level,
// and agree with each other.
TEST_F(VisitedModeTest, ZeroSolverMemoryBudgetCutsArePinned) {
  std::string text = "F [";
  for (int i = 0; i < 20; ++i) {
    if (i > 0) text += " OR ";
    text += "Mobile_post(\"n" + std::to_string(i) + "\",\"p\",\"s\",1)";
  }
  text += "] AND F ([IsBind_AcM1()] AND [IsBind_AcM2()])";
  acc::AccPtr f = acc::ParseAccFormula(text, pd_.schema).value();
  analysis::ZeroSolverOptions opts;
  opts.max_path_length = 3;
  struct Pin {
    engine::VisitedMode mode;
    size_t uncapped_bytes;
    size_t serial_nodes, serial_bytes;
    size_t level_nodes, level_bytes;
  };
  const Pin kPins[] = {
      {engine::VisitedMode::kExact, 149536, 311, 38200, 469, 149536},
      {engine::VisitedMode::kCompact, 97328, 311, 24968, 469, 97328},
  };
  for (const Pin& pin : kPins) {
    engine::ExecOptions exec;
    exec.visited_mode = pin.mode;
    Result<analysis::ZeroSolverResult> uncapped =
        analysis::CheckZeroArySatisfiable(f, pd_.schema, opts, exec);
    ASSERT_TRUE(uncapped.ok());
    ASSERT_FALSE(uncapped.value().exhausted_budget);
    EXPECT_EQ(uncapped.value().visited_bytes, pin.uncapped_bytes);
    exec.max_visited_bytes = uncapped.value().visited_bytes / 4;
    for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
      exec.num_threads = threads;
      Result<analysis::ZeroSolverResult> r =
          analysis::CheckZeroArySatisfiable(f, pd_.schema, opts, exec);
      ASSERT_TRUE(r.ok());
      EXPECT_FALSE(r.value().satisfiable);
      EXPECT_TRUE(r.value().exhausted_budget) << threads << " threads";
      EXPECT_EQ(r.value().nodes_explored,
                threads == 1 ? pin.serial_nodes : pin.level_nodes)
          << threads << " threads";
      EXPECT_EQ(r.value().visited_bytes,
                threads == 1 ? pin.serial_bytes : pin.level_bytes)
          << threads << " threads";
    }
  }
}

// The LTS explorer's byte-budget cut, pinned in both modes: a cap of a
// quarter of the depth-2 footprint stops a depth-3 exploration at the
// level-2 barrier, which is flagged `truncated`, at every worker count.
TEST_F(VisitedModeTest, LtsMemoryBudgetCutIsPinned) {
  Rng rng(7);
  schema::LtsOptions opts;
  opts.universe = workload::MakePhoneUniverse(pd_, &rng, 16);
  opts.seed_values = {Value::Str("Smith")};
  // (distinct configurations, transitions, max facts, truncated).
  const std::vector<std::vector<size_t>> kLevels = {
      {1, 0, 0, 0}, {40, 1032, 2, 0}, {765, 41280, 4, 1}};
  for (engine::VisitedMode mode :
       {engine::VisitedMode::kExact, engine::VisitedMode::kCompact}) {
    engine::ExecOptions exec;
    exec.visited_mode = mode;
    schema::LtsMemoryStats depth2;
    schema::ExploreBreadthFirst(pd_.schema, schema::Instance(pd_.schema),
                                opts, /*max_depth=*/2, /*max_nodes=*/100000,
                                exec, &depth2);
    exec.max_visited_bytes = depth2.visited_bytes / 4;
    for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
      exec.num_threads = threads;
      std::vector<schema::LtsLevelStats> stats = schema::ExploreBreadthFirst(
          pd_.schema, schema::Instance(pd_.schema), opts, /*max_depth=*/3,
          /*max_nodes=*/100000, exec);
      ASSERT_EQ(stats.size(), kLevels.size()) << threads << " threads";
      EXPECT_TRUE(stats.back().truncated) << threads << " threads";
      for (size_t i = 0; i < stats.size(); ++i) {
        std::vector<size_t> got = {stats[i].distinct_configurations,
                                   stats[i].transitions,
                                   stats[i].max_configuration_facts,
                                   stats[i].truncated ? 1u : 0u};
        EXPECT_EQ(got, kLevels[i]) << "level " << i << ", " << threads
                                   << " threads";
      }
    }
  }
}

TEST_F(VisitedModeTest, LtsStatsAreModeIndependent) {
  Rng rng(7);
  schema::LtsOptions opts;
  opts.universe = workload::MakePhoneUniverse(pd_, &rng, 16);
  opts.seed_values = {Value::Str("Smith")};
  auto run = [&](engine::VisitedMode mode, size_t threads,
                 schema::LtsMemoryStats* memory) {
    engine::ExecOptions exec;
    exec.num_threads = threads;
    exec.visited_mode = mode;
    return schema::ExploreBreadthFirst(pd_.schema,
                                       schema::Instance(pd_.schema), opts,
                                       /*max_depth=*/2, /*max_nodes=*/100000,
                                       exec, memory);
  };
  schema::LtsMemoryStats exact_mem, compact_mem, compact_mem2;
  std::vector<schema::LtsLevelStats> exact_stats =
      run(engine::VisitedMode::kExact, 1, &exact_mem);
  std::vector<schema::LtsLevelStats> compact_stats =
      run(engine::VisitedMode::kCompact, 1, &compact_mem);
  std::vector<schema::LtsLevelStats> compact_stats2 =
      run(engine::VisitedMode::kCompact, 2, &compact_mem2);
  ASSERT_EQ(exact_stats.size(), compact_stats.size());
  for (size_t i = 0; i < exact_stats.size(); ++i) {
    EXPECT_EQ(compact_stats[i].distinct_configurations,
              exact_stats[i].distinct_configurations) << "level " << i;
    EXPECT_EQ(compact_stats[i].transitions, exact_stats[i].transitions)
        << "level " << i;
    EXPECT_EQ(compact_stats[i].max_configuration_facts,
              exact_stats[i].max_configuration_facts) << "level " << i;
  }
  EXPECT_GT(exact_mem.visited_bytes, 0u);
  EXPECT_GT(compact_mem.visited_bytes, 0u);
  EXPECT_LT(compact_mem.visited_bytes, exact_mem.visited_bytes);
  EXPECT_GT(compact_mem.treedb_nodes, 0u);
  EXPECT_EQ(compact_mem2.visited_bytes, compact_mem.visited_bytes);
  EXPECT_EQ(compact_mem2.treedb_nodes, compact_mem.treedb_nodes);
  ASSERT_EQ(compact_stats2.size(), compact_stats.size());
  for (size_t i = 0; i < compact_stats.size(); ++i) {
    EXPECT_EQ(compact_stats2[i].distinct_configurations,
              compact_stats[i].distinct_configurations) << "level " << i;
  }
}

// --- Lazy compact storage ----------------------------------------------------

TEST(TreeDbTest, ClearAcrossSeveralBlocksReinternsIdentically) {
  // Enough nodes to cross several arena blocks (block k of the node
  // StableVector holds 4096 << k slots), then a reset: the same content
  // re-interns to the same refs and node count in the reused blocks.
  constexpr uint32_t kLeaves = 70000;  // 70000 nodes: arena blocks 0..4
  auto fill = [](store::TreeDb* db, std::vector<store::TreeRef>* refs) {
    refs->clear();
    for (uint32_t v = 0; v < kLeaves; ++v) refs->push_back(db->InternLeaf(v));
    std::vector<uint32_t> keys;
    for (uint32_t k = 0; k < 5000; ++k) keys.push_back(k * 7919u);
    refs->push_back(db->SetFromKeys(keys.data(), keys.size()));
  };
  store::TreeDb db;
  std::vector<store::TreeRef> first, second;
  fill(&db, &first);
  size_t nodes = db.num_nodes();
  EXPECT_GT(nodes, size_t{kLeaves});
  db.Clear();
  EXPECT_EQ(db.num_nodes(), 0u);
  fill(&db, &second);
  EXPECT_EQ(db.num_nodes(), nodes);
  EXPECT_EQ(second, first);
  EXPECT_TRUE(db.SetContains(second.back(), 4999u * 7919u));
  EXPECT_FALSE(db.SetContains(second.back(), 1u));
}

// Exact mode must not touch compact storage at all: no tree nodes
// reported and not one intern recorded.
TEST_F(VisitedModeTest, ExactModeBuildsNoCompactStorage) {
  obs::SetMetricsEnabled(true);
  obs::Counter* interns =
      obs::Registry::Get().counter("store.treedb.interns");
  acc::AccPtr f = acc::ParseAccFormula(kDiamond, pd_.schema).value();
  automata::AAutomaton a =
      automata::CompileToAutomaton(f, pd_.schema).value();
  automata::WitnessSearchOptions wopts;
  wopts.max_path_length = 2;
  acc::AccPtr zf = acc::ParseAccFormula(
      "F ([IsBind_AcM1()] AND [IsBind_AcM2()])", pd_.schema).value();
  analysis::ZeroSolverOptions zopts;
  zopts.max_path_length = 3;
  Rng rng(7);
  schema::LtsOptions lopts;
  lopts.universe = workload::MakePhoneUniverse(pd_, &rng, 8);
  lopts.seed_values = {Value::Str("Smith")};

  for (size_t threads : {size_t{1}, size_t{2}}) {
    engine::ExecOptions exec;
    exec.num_threads = threads;
    uint64_t before = interns->Value();
    automata::WitnessSearchResult w = automata::BoundedWitnessSearch(
        a, pd_.schema, schema::Instance(pd_.schema), wopts, exec);
    Result<analysis::ZeroSolverResult> z =
        analysis::CheckZeroArySatisfiable(zf, pd_.schema, zopts, exec);
    ASSERT_TRUE(z.ok());
    schema::LtsMemoryStats memory;
    schema::ExploreBreadthFirst(pd_.schema, schema::Instance(pd_.schema),
                                lopts, /*max_depth=*/2,
                                /*max_nodes=*/100000, exec, &memory);
    EXPECT_EQ(w.treedb_nodes, 0u) << threads << " threads";
    EXPECT_EQ(z.value().treedb_nodes, 0u) << threads << " threads";
    EXPECT_EQ(memory.treedb_nodes, 0u) << threads << " threads";
    EXPECT_EQ(interns->Value(), before) << threads << " threads";

    // The same runs in compact mode do intern (the counter is live).
    exec.visited_mode = engine::VisitedMode::kCompact;
    automata::BoundedWitnessSearch(a, pd_.schema,
                                   schema::Instance(pd_.schema), wopts, exec);
    EXPECT_GT(interns->Value(), before) << threads << " threads";
  }
}

// A 2-worker compact run whose 256-node pilot is cut: the reset hook
// discards the pilot's treedb and compact table before the level
// sweep. The verdict and the tree-node count must match the 1-worker
// and 8-worker runs. The node count includes the pilot's pops, so it
// must match the 8-worker run (same pilot, same sweep) and the
// exact-mode run at 2 workers; the 1-worker pf-DFS has no pilot.
TEST_F(VisitedModeTest, CompactPilotResetMatchesOtherWorkerCounts) {
  struct Run {
    bool verdict;
    size_t nodes;
    size_t treedb_nodes;
  };
  auto exec_for = [](size_t threads, engine::VisitedMode mode) {
    engine::ExecOptions exec;
    exec.num_threads = threads;
    exec.visited_mode = mode;
    return exec;
  };

  acc::AccPtr f = acc::ParseAccFormula(kDiamond, pd_.schema).value();
  automata::AAutomaton a =
      automata::CompileToAutomaton(f, pd_.schema).value();
  automata::WitnessSearchOptions wopts;
  wopts.max_path_length = 3;
  auto witness = [&](size_t threads, engine::VisitedMode mode) {
    automata::WitnessSearchResult r = automata::BoundedWitnessSearch(
        a, pd_.schema, schema::Instance(pd_.schema), wopts,
        exec_for(threads, mode));
    return Run{r.found, r.nodes_explored, r.treedb_nodes};
  };

  // Reveal obligations over constants plus one obligation its G
  // conjunct forbids: an unsatisfiable sweep of a few hundred nodes.
  acc::AccPtr zf = acc::ParseAccFormula(
      "F [Mobile_post(\"n0\",\"p\",\"s\",1)] AND "
      "F [Mobile_post(\"n1\",\"p\",\"s\",1)] AND "
      "F [Mobile_post(\"n2\",\"p\",\"s\",1)] AND "
      "F [Mobile_post(\"n4\",\"p\",\"s\",1)] AND "
      "F [Address_post(\"s\",\"p\",\"n0\",1)] AND "
      "F [Address_post(\"s\",\"p\",\"n1\",2)] AND "
      "F [Address_post(\"s\",\"p\",\"n2\",3)] AND "
      "F [Mobile_post(\"n3\",\"q\",\"s\",1) AND "
      "Address_post(\"t\",\"q\",\"n3\",1)] AND "
      "G NOT [Address_post(\"t\",\"q\",\"n3\",1)]",
      pd_.schema).value();
  analysis::ZeroSolverOptions zopts;
  zopts.max_path_length = 6;
  auto zero = [&](size_t threads, engine::VisitedMode mode) {
    Result<analysis::ZeroSolverResult> r = analysis::CheckZeroArySatisfiable(
        zf, pd_.schema, zopts, exec_for(threads, mode));
    EXPECT_TRUE(r.ok());
    return Run{r.value().satisfiable, r.value().nodes_explored,
               r.value().treedb_nodes};
  };

  const engine::VisitedMode kCompact = engine::VisitedMode::kCompact;
  for (auto engine_run :
       {std::function<Run(size_t, engine::VisitedMode)>(witness),
        std::function<Run(size_t, engine::VisitedMode)>(zero)}) {
    Run one = engine_run(1, kCompact);
    Run two = engine_run(2, kCompact);
    Run eight = engine_run(8, kCompact);
    Run two_exact = engine_run(2, engine::VisitedMode::kExact);
    EXPECT_FALSE(two.verdict);
    EXPECT_GT(two.nodes, 256u);  // the pilot was cut
    EXPECT_EQ(two.verdict, one.verdict);
    EXPECT_EQ(two.verdict, eight.verdict);
    EXPECT_EQ(two.nodes, eight.nodes);
    EXPECT_EQ(two.nodes, two_exact.nodes);
    EXPECT_GT(two.treedb_nodes, 0u);
    EXPECT_EQ(two.treedb_nodes, one.treedb_nodes);
    EXPECT_EQ(two.treedb_nodes, eight.treedb_nodes);
  }
}

// Regression: in a single-relation schema the configuration tuple ref
// IS that relation's set ref (a 1-slot InternTuple returns the slot,
// treedb.h), so the empty initial configuration folds to kNilTreeRef.
// The compact seen-set must dedup it like any other key — this used to
// recount the empty configuration as newly reached at every level
// (+1 distinct configuration and +fanout transitions per level).
TEST(VisitedModeSingleRelationTest, EmptyConfigDedupsAcrossModes) {
  schema::Schema sch;
  schema::RelationId r = sch.AddRelation("R", {ValueType::kInt});
  sch.AddAccessMethod("M0", r, {});
  schema::Instance universe(sch);
  for (int i = 0; i < 8; ++i) universe.AddFact(r, {Value::Int(i)});
  schema::LtsOptions opts;
  opts.universe = universe;
  auto run = [&](engine::VisitedMode mode) {
    engine::ExecOptions exec;
    exec.num_threads = 2;
    exec.visited_mode = mode;
    return schema::ExploreBreadthFirst(sch, schema::Instance(sch), opts,
                                       /*max_depth=*/3, /*max_nodes=*/100000,
                                       exec, nullptr);
  };
  std::vector<schema::LtsLevelStats> exact = run(engine::VisitedMode::kExact);
  std::vector<schema::LtsLevelStats> compact =
      run(engine::VisitedMode::kCompact);
  ASSERT_EQ(exact.size(), compact.size());
  for (size_t i = 0; i < exact.size(); ++i) {
    EXPECT_EQ(compact[i].distinct_configurations,
              exact[i].distinct_configurations) << "level " << i;
    EXPECT_EQ(compact[i].transitions, exact[i].transitions) << "level " << i;
  }
  // Depth 1 reaches the 8 singletons plus the full set; the empty
  // response reproduces the root and must not be counted.
  EXPECT_EQ(exact[1].distinct_configurations, 9u);
}

}  // namespace
}  // namespace accltl
