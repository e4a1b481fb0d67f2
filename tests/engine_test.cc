// Tests for the parallel witness-search engine: the work-stealing
// deque and thread pool, the sharded visited table's dominance
// semantics, determinism of the reduced witness across worker counts
// (seeded / diamond / budget-truncated scenarios), and a stress test
// hammering the sharded store interner from 8 threads.

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/accltl/parser.h"
#include "src/accltl/semantics.h"
#include "src/automata/compile.h"
#include "src/automata/emptiness.h"
#include "src/common/rng.h"
#include "src/engine/explorer.h"
#include "src/engine/thread_pool.h"
#include "src/engine/visited_table.h"
#include "src/engine/work_deque.h"
#include "src/logic/parser.h"
#include "src/obs/metrics.h"
#include "src/store/fact_store.h"
#include "src/store/match_index.h"
#include "src/workload/workload.h"

namespace accltl {
namespace {

Value S(const std::string& s) { return Value::Str(s); }
Value I(int64_t i) { return Value::Int(i); }

// --- Work-stealing deque -----------------------------------------------------

TEST(WorkDequeTest, OwnerPushPopIsLifo) {
  engine::WorkStealingDeque<int*> deque(4);  // forces growth
  std::vector<int> items(100);
  for (int i = 0; i < 100; ++i) {
    items[static_cast<size_t>(i)] = i;
    deque.Push(&items[static_cast<size_t>(i)]);
  }
  int* out = nullptr;
  for (int i = 99; i >= 0; --i) {
    ASSERT_TRUE(deque.Pop(&out));
    EXPECT_EQ(*out, i);
  }
  EXPECT_FALSE(deque.Pop(&out));
}

TEST(WorkDequeTest, StealTakesOldestFirst) {
  engine::WorkStealingDeque<int*> deque;
  std::vector<int> items = {10, 20, 30};
  for (int& i : items) deque.Push(&i);
  int* out = nullptr;
  ASSERT_TRUE(deque.Steal(&out));
  EXPECT_EQ(*out, 10);
  ASSERT_TRUE(deque.Pop(&out));
  EXPECT_EQ(*out, 30);
}

TEST(WorkDequeTest, ConcurrentStealsConserveItems) {
  // One owner pushes and pops; three thieves steal. Every item must be
  // taken exactly once (counted via an atomic per-item flag).
  constexpr int kItems = 20000;
  engine::WorkStealingDeque<int*> deque(8);
  std::vector<int> items(kItems);
  std::vector<std::atomic<int>> taken(kItems);
  for (auto& t : taken) t.store(0);
  std::atomic<bool> done{false};
  std::atomic<int> total{0};

  auto thief = [&] {
    int* out = nullptr;
    while (!done.load(std::memory_order_acquire)) {
      if (deque.Steal(&out)) {
        taken[static_cast<size_t>(*out)].fetch_add(1);
        total.fetch_add(1);
      }
    }
  };
  std::vector<std::thread> thieves;
  for (int i = 0; i < 3; ++i) thieves.emplace_back(thief);

  int* out = nullptr;
  for (int i = 0; i < kItems; ++i) {
    items[static_cast<size_t>(i)] = i;
    deque.Push(&items[static_cast<size_t>(i)]);
    if (i % 3 == 0 && deque.Pop(&out)) {
      taken[static_cast<size_t>(*out)].fetch_add(1);
      total.fetch_add(1);
    }
  }
  while (deque.Pop(&out)) {
    taken[static_cast<size_t>(*out)].fetch_add(1);
    total.fetch_add(1);
  }
  // The owner drained its side; every remaining item was claimed by a
  // thief's CAS, and joining makes their counter updates visible.
  done.store(true, std::memory_order_release);
  for (std::thread& t : thieves) t.join();

  EXPECT_EQ(total.load(), kItems);
  for (int i = 0; i < kItems; ++i) {
    EXPECT_EQ(taken[static_cast<size_t>(i)].load(), 1) << "item " << i;
  }
}

// --- Thread pool -------------------------------------------------------------

TEST(ThreadPoolTest, RunsEveryWorkerIndexOnce) {
  engine::ThreadPool pool(3);
  for (size_t parallelism : {size_t{1}, size_t{2}, size_t{4}}) {
    std::vector<std::atomic<int>> hits(parallelism);
    for (auto& h : hits) h.store(0);
    pool.Run(parallelism, [&](size_t w) {
      ASSERT_LT(w, parallelism);
      hits[w].fetch_add(1);
    });
    for (size_t w = 0; w < parallelism; ++w) {
      EXPECT_EQ(hits[w].load(), 1) << "worker " << w;
    }
  }
  // Reusable across regions.
  std::atomic<int> count{0};
  pool.Run(4, [&](size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 4);
}

TEST(ThreadPoolTest, GlobalPoolSupportsEightWayRegions) {
  std::set<std::thread::id> ids;
  std::mutex mu;
  engine::ThreadPool::Global().Run(8, [&](size_t) {
    std::lock_guard<std::mutex> lock(mu);
    ids.insert(std::this_thread::get_id());
  });
  EXPECT_GE(ids.size(), 2u);  // caller + at least one pool thread
}

// --- Visited table -----------------------------------------------------------

struct FakeEntry {
  int key;
  int depth;
  int rank;
};

TEST(VisitedTableTest, DominanceChecksExactlyAndPrunesDominated) {
  engine::ShardedVisitedTable<FakeEntry> table(4);
  auto dominates = [](const FakeEntry& a, const FakeEntry& b) {
    return a.key == b.key && a.depth <= b.depth && a.rank <= b.rank;
  };
  // First entry inserts.
  EXPECT_FALSE(table.CheckAndInsert(7, FakeEntry{1, 2, 2}, dominates));
  // Same hash, different key (a "collision"): must not prune.
  EXPECT_FALSE(table.CheckAndInsert(7, FakeEntry{2, 0, 0}, dominates));
  // Dominated on both axes: pruned.
  EXPECT_TRUE(table.CheckAndInsert(7, FakeEntry{1, 3, 3}, dominates));
  // Better depth, worse rank: incomparable, inserts.
  EXPECT_FALSE(table.CheckAndInsert(7, FakeEntry{1, 1, 5}, dominates));
  // Dominates everything with key 1: inserts and evicts both.
  EXPECT_FALSE(table.CheckAndInsert(7, FakeEntry{1, 0, 0}, dominates));
  // Now anything with key 1 is pruned by the {1,0,0} entry.
  EXPECT_TRUE(table.CheckAndInsert(7, FakeEntry{1, 9, 9}, dominates));
  EXPECT_EQ(table.size(), 2u);  // {2,0,0} and {1,0,0}
}

// --- Worker-seeded RNG (reproducible parallel benchmarks) --------------------

TEST(RngTest, ForWorkerIsDeterministicAndDecorrelated) {
  Rng a0 = Rng::ForWorker(42, 0);
  Rng a0_again = Rng::ForWorker(42, 0);
  Rng a1 = Rng::ForWorker(42, 1);
  Rng b0 = Rng::ForWorker(43, 0);
  std::vector<uint64_t> s0, s0_again, s1, t0;
  for (int i = 0; i < 16; ++i) {
    s0.push_back(a0.Next());
    s0_again.push_back(a0_again.Next());
    s1.push_back(a1.Next());
    t0.push_back(b0.Next());
  }
  EXPECT_EQ(s0, s0_again);  // same (seed, worker): same stream
  EXPECT_NE(s0, s1);        // same seed, different worker: different
  EXPECT_NE(s0, t0);        // different seed: different
}

// --- Concurrent interning stress --------------------------------------------

TEST(StoreStressTest, EightThreadsInterningSharedAndPrivateData) {
  // Workers intern a mix of shared payloads (every worker interns the
  // same values/tuples — racing the same shards) and private ones,
  // while continuously reading back earlier results through the
  // lock-free id-indexed accessors. Interning must be idempotent and
  // round-trip exactly under the race.
  constexpr size_t kWorkers = 8;
  constexpr int kRounds = 400;
  store::Store& store = store::Store::Get();
  std::vector<std::vector<store::FactId>> shared_ids(kWorkers);
  engine::ThreadPool pool(kWorkers - 1);
  pool.Run(kWorkers, [&](size_t w) {
    Rng rng = Rng::ForWorker(1234, w);
    std::vector<store::FactId> mine;
    for (int round = 0; round < kRounds; ++round) {
      // Shared: same tuple text from every worker.
      Tuple shared = {S("stress-shared-" + std::to_string(round)),
                      I(round)};
      store::FactId sid = store.InternTuple(shared);
      EXPECT_EQ(store.tuple(sid), shared);
      EXPECT_EQ(store.InternTuple(shared), sid);
      shared_ids[w].push_back(sid);
      // Private: worker-tagged tuple.
      Tuple priv = {S("stress-w" + std::to_string(w)),
                    I(static_cast<int64_t>(rng.Uniform(1u << 20)))};
      store::FactId pid = store.InternTuple(priv);
      EXPECT_EQ(store.tuple(pid), priv);
      mine.push_back(pid);
      // Read back an earlier fact of ours through the lock-free path.
      store::FactId probe = mine[rng.Uniform(mine.size())];
      EXPECT_EQ(store.fact_values(probe).size(),
                store.tuple(probe).size());
      EXPECT_NE(store.fact_hash(probe), 0u);
    }
  });
  // All workers agreed on every shared id.
  for (size_t w = 1; w < kWorkers; ++w) {
    EXPECT_EQ(shared_ids[w], shared_ids[0]);
  }
}

TEST(StoreStressTest, ConcurrentMatchIndexReaders) {
  // Eight workers query the same shared MatchIndexCache over one big
  // fact set (plus per-worker LocalViews). Results must match a
  // serially-computed reference, and references returned early must
  // stay valid while other workers keep indexing new positions.
  store::Store& store = store::Store::Get();
  std::vector<store::FactId> ids;
  for (int i = 0; i < 512; ++i) {
    ids.push_back(store.InternTuple(
        {S("mi-stress-k" + std::to_string(i % 8)), I(i),
         S("mi-stress-v" + std::to_string(i % 3))}));
  }
  store::FactSet::Ptr set = store::FactSet::FromUnsorted(ids);
  store::MatchIndexCache cache;
  store::ValueId k3 = store.InternValue(S("mi-stress-k3"));
  const std::vector<store::FactId>& reference = cache.Lookup(set, 0, k3);
  size_t expected = reference.size();
  ASSERT_EQ(expected, 64u);
  engine::ThreadPool pool(7);
  pool.Run(8, [&](size_t w) {
    store::MatchIndexCache::LocalView view(&cache);
    for (int round = 0; round < 200; ++round) {
      store::ValueId k =
          store.InternValue(S("mi-stress-k" + std::to_string(round % 8)));
      store::ValueId v =
          store.InternValue(S("mi-stress-v" + std::to_string(round % 3)));
      EXPECT_EQ(view.Lookup(set, 0, k).size(), 64u);
      EXPECT_EQ(view.Lookup(set, 2, v).size(), round % 3 == 2 ? 170u : 171u);
      EXPECT_EQ(view.Lookup(set, 1, store::kNoValueId - 1).size(), 0u);
      (void)w;
    }
  });
  // The early reference is still intact.
  EXPECT_EQ(reference.size(), expected);
}

// --- Witness determinism across worker counts --------------------------------

class EngineSearchTest : public ::testing::Test {
 protected:
  EngineSearchTest() : pd_(workload::MakePhoneDirectory()) {}

  automata::AAutomaton Compile(const std::string& text) {
    acc::AccPtr f = acc::ParseAccFormula(text, pd_.schema).value();
    formula_ = f;
    return automata::CompileToAutomaton(f, pd_.schema).value();
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

  /// Runs the same search at 1, 2 and 8 workers and asserts the
  /// reduced result is identical (witness content, found flag,
  /// exhausted_budget flag).
  void ExpectDeterministicAcrossThreadCounts(
      const automata::AAutomaton& a, const schema::Instance& initial,
      automata::WitnessSearchOptions opts, bool expect_found,
      bool expect_exhausted) {
    engine::ExecOptions exec;
    exec.num_threads = 1;
    automata::WitnessSearchResult serial =
        automata::BoundedWitnessSearch(a, pd_.schema, initial, opts, exec);
    EXPECT_EQ(serial.found, expect_found);
    EXPECT_EQ(serial.exhausted_budget, expect_exhausted);
    if (serial.found && formula_ != nullptr) {
      EXPECT_TRUE(acc::EvalOnPath(formula_, pd_.schema, serial.witness,
                                  initial));
    }
    for (size_t threads : {size_t{2}, size_t{8}}) {
      exec.num_threads = threads;
      // Repeat each parallel configuration a few times: a determinism
      // bug is a race, and races need shots to show.
      for (int round = 0; round < 3; ++round) {
        automata::WitnessSearchResult parallel =
            automata::BoundedWitnessSearch(a, pd_.schema, initial, opts,
                                           exec);
        EXPECT_EQ(parallel.found, serial.found)
            << threads << " workers, round " << round;
        EXPECT_EQ(parallel.exhausted_budget, serial.exhausted_budget)
            << threads << " workers, round " << round;
        EXPECT_EQ(PathKey(parallel.witness, pd_.schema),
                  PathKey(serial.witness, pd_.schema))
            << threads << " workers, round " << round;
      }
    }
  }

  workload::PhoneDirectory pd_;
  acc::AccPtr formula_;
};

TEST_F(EngineSearchTest, SeededScenarioSameWitnessAtAllThreadCounts) {
  Rng rng(11);
  schema::Instance seeded = workload::MakePhoneUniverse(pd_, &rng, 24);
  automata::AAutomaton a = Compile(
      "F [EXISTS n . IsBind_AcM1(n) AND "
      "(EXISTS s,p,h . Address_pre(s,p,n,h))] AND "
      "F [EXISTS s,p . IsBind_AcM2(s,p) AND "
      "(EXISTS n,ph . Mobile_pre(n,p,s,ph))]");
  automata::WitnessSearchOptions opts;
  opts.max_path_length = 4;
  ExpectDeterministicAcrossThreadCounts(a, seeded, opts,
                                        /*expect_found=*/true,
                                        /*expect_exhausted=*/false);
}

TEST_F(EngineSearchTest, DiamondScenarioSameWitnessAtAllThreadCounts) {
  Rng rng(13);
  schema::Instance seeded = workload::MakePhoneUniverse(pd_, &rng, 16);
  automata::AAutomaton a = Compile(
      "F [EXISTS n . IsBind_AcM1(n) AND "
      "(EXISTS s,p,h . Address_pre(s,p,n,h))] AND "
      "F [EXISTS s,p . IsBind_AcM2(s,p) AND "
      "(EXISTS n,ph . Mobile_pre(n,p,s,ph))] AND "
      "F [EXISTS n . IsBind_AcM1(n) AND "
      "(EXISTS s,p,h . Address_pre(s,p,n,h))]");
  automata::WitnessSearchOptions opts;
  opts.max_path_length = 5;
  ExpectDeterministicAcrossThreadCounts(a, seeded, opts,
                                        /*expect_found=*/true,
                                        /*expect_exhausted=*/false);
}

TEST_F(EngineSearchTest, ExhaustiveDiamondAgreesOnNoWitness) {
  // Third obligation is unsatisfiable: the bounded space is explored
  // to exhaustion at every worker count, with a confident "no".
  automata::AAutomaton a = Compile(
      "F [EXISTS n . IsBind_AcM1(n) AND "
      "(EXISTS p,s,ph . Mobile_post(n,p,s,ph))] AND "
      "F [EXISTS s,p . IsBind_AcM2(s,p) AND "
      "(EXISTS n,h . Address_post(s,p,n,h))] AND "
      "F [EXISTS n . IsBind_AcM1(n) AND n != n]");
  automata::WitnessSearchOptions opts;
  opts.max_path_length = 3;
  ExpectDeterministicAcrossThreadCounts(a, schema::Instance(pd_.schema),
                                        opts,
                                        /*expect_found=*/false,
                                        /*expect_exhausted=*/false);
}

TEST_F(EngineSearchTest, BudgetTruncatedScenarioAgreesOnExhausted) {
  // Same exhaustive diamond, but with a node budget far below the
  // space: every worker count must hit the budget and say "unknown".
  automata::AAutomaton a = Compile(
      "F [EXISTS n . IsBind_AcM1(n) AND "
      "(EXISTS p,s,ph . Mobile_post(n,p,s,ph))] AND "
      "F [EXISTS s,p . IsBind_AcM2(s,p) AND "
      "(EXISTS n,h . Address_post(s,p,n,h))] AND "
      "F [EXISTS n . IsBind_AcM1(n) AND n != n]");
  automata::WitnessSearchOptions opts;
  opts.max_path_length = 3;
  opts.max_nodes = 40;
  ExpectDeterministicAcrossThreadCounts(a, schema::Instance(pd_.schema),
                                        opts,
                                        /*expect_found=*/false,
                                        /*expect_exhausted=*/true);
}

TEST_F(EngineSearchTest, DedupStillReducesNodesExploredWhenParallel) {
  automata::AAutomaton a = Compile(
      "F [EXISTS n . IsBind_AcM1(n) AND "
      "(EXISTS p,s,ph . Mobile_post(n,p,s,ph))] AND "
      "F [EXISTS s,p . IsBind_AcM2(s,p) AND "
      "(EXISTS n,h . Address_post(s,p,n,h))] AND "
      "F [EXISTS n . IsBind_AcM1(n) AND n != n]");
  automata::WitnessSearchOptions opts;
  opts.max_path_length = 3;
  engine::ExecOptions exec;
  exec.num_threads = 4;
  automata::WitnessSearchResult r = automata::BoundedWitnessSearch(
      a, pd_.schema, schema::Instance(pd_.schema), opts, exec);
  EXPECT_FALSE(r.found);
  // Pinned with the visited table on. The same sweep without it
  // explored 56000 nodes.
  EXPECT_EQ(r.nodes_explored, 5877u);
}

// One state with many outgoing transitions: the search decides each
// candidate access once for all of them, evaluating each distinct guard
// sentence at most once, and the answer is the one the guards define.
TEST_F(EngineSearchTest, SharedGuardSentencesDecideEachAccessOnce) {
  auto parse = [&](const std::string& text) {
    return logic::ParseFormula(text, pd_.schema).value();
  };
  logic::PosFormulaPtr mobile_pre =
      parse("EXISTS n,p,s,ph . Mobile_pre(n,p,s,ph)");
  logic::PosFormulaPtr address_pre =
      parse("EXISTS s,p,n,h . Address_pre(s,p,n,h)");
  logic::PosFormulaPtr mobile_post =
      parse("EXISTS n,p,s,ph . Mobile_post(n,p,s,ph)");
  logic::PosFormulaPtr address_post =
      parse("EXISTS s,p,n,h . Address_post(s,p,n,h)");
  logic::PosFormulaPtr bind1 = parse("EXISTS n . IsBind_AcM1(n)");
  logic::PosFormulaPtr bind2 = parse("EXISTS s,p . IsBind_AcM2(s,p)");
  logic::PosFormulaPtr join = parse(
      "EXISTS n,p,s,ph,h . Mobile_pre(n,p,s,ph) AND Address_post(s,p,n,h)");
  // Eight distinct sentences in all.
  const size_t kSentences = 8;

  automata::AAutomaton a;
  int s0 = a.AddState();
  int s1 = a.AddState();
  int dead = a.AddState();
  int accept = a.AddState();
  int dead2 = a.AddState();
  a.SetInitial(s0);
  a.AddAccepting(accept);
  automata::Guard reveal_mobile;  // shares its ψ− with `any_address`
  reveal_mobile.positive = logic::PosFormula::And({bind1, mobile_post});
  reveal_mobile.negated = {mobile_pre};
  a.AddTransition(s0, reveal_mobile, s1);
  automata::Guard any_address;
  any_address.positive = bind2;
  any_address.negated = {mobile_pre};
  a.AddTransition(s0, any_address, dead);
  // A disjunctive ψ+ whose ψ− never holds: the initial instance has an
  // Address fact, and facts are never removed. Skipping ψ− would make
  // every first access an accepting one-step path.
  automata::Guard blocked;
  blocked.positive = logic::PosFormula::Or({bind1, bind2});
  blocked.negated = {address_pre};
  a.AddTransition(s0, blocked, accept);
  automata::Guard quiet;  // TRUE ψ+
  quiet.positive = logic::PosFormula::True();
  quiet.negated = {mobile_post};
  a.AddTransition(s0, quiet, s0);
  automata::Guard twin;  // the same guard to two targets
  twin.positive = logic::PosFormula::And({bind2, address_post});
  twin.negated = {mobile_pre, mobile_post};
  a.AddTransition(s0, twin, dead);
  a.AddTransition(s0, twin, dead2);
  automata::Guard finish;
  finish.positive = logic::PosFormula::And({bind2, join});
  a.AddTransition(s1, finish, accept);
  ASSERT_TRUE(a.Validate().ok());

  schema::Instance initial(pd_.schema);
  initial.AddFact(pd_.address, {Value::Str("Parks Rd"), Value::Str("OX13QD"),
                                Value::Str("Jones"), Value::Int(16)});
  automata::WitnessSearchOptions opts;
  opts.max_path_length = 3;
  obs::Registry& registry = obs::Registry::Get();
  obs::Counter* accesses = registry.counter("automata.accesses");
  obs::Counter* evals = registry.counter("automata.sentence_evals");
  obs::Counter* candidates = registry.counter("automata.candidates");
  automata::WitnessSearchResult serial;
  for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    engine::ExecOptions exec;
    exec.num_threads = threads;
    uint64_t accesses0 = accesses->Value();
    uint64_t evals0 = evals->Value();
    uint64_t candidates0 = candidates->Value();
    automata::WitnessSearchResult r =
        automata::BoundedWitnessSearch(a, pd_.schema, initial, opts, exec);
    uint64_t n_accesses = accesses->Value() - accesses0;
    uint64_t n_evals = evals->Value() - evals0;
    uint64_t n_candidates = candidates->Value() - candidates0;
    ASSERT_TRUE(r.found) << threads << " workers";
    EXPECT_FALSE(r.exhausted_budget) << threads << " workers";
    EXPECT_TRUE(automata::Accepts(a, pd_.schema, r.witness, initial))
        << PathKey(r.witness, pd_.schema);
    EXPECT_EQ(r.witness.steps().size(), 2u) << PathKey(r.witness, pd_.schema);
    EXPECT_GT(n_accesses, 0u);
    EXPECT_LE(n_evals, kSentences * n_accesses) << threads << " workers";
    // Several transitions decide each pool injection on one view.
    EXPECT_LT(n_accesses, n_candidates) << threads << " workers";
    if (threads == 1) {
      serial = r;
      continue;
    }
    EXPECT_EQ(PathKey(r.witness, pd_.schema),
              PathKey(serial.witness, pd_.schema))
        << threads << " workers";
    EXPECT_EQ(r.nodes_explored, serial.nodes_explored) << threads;
    EXPECT_EQ(r.visited_bytes, serial.visited_bytes) << threads;
  }
}

}  // namespace
}  // namespace accltl
