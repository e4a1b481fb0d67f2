// Tests for the interned fact-store core: the block-stable payload
// vector, value/tuple interning, immutable fact sets, copy-on-write
// instance aliasing, configuration hashing, and the
// visited-configuration dedup built on top of it.

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/accltl/parser.h"
#include "src/automata/compile.h"
#include "src/automata/emptiness.h"
#include "src/common/rng.h"
#include "src/schema/instance.h"
#include "src/schema/lts.h"
#include "src/store/fact_set.h"
#include "src/store/fact_store.h"
#include "src/store/match_index.h"
#include "src/store/stable_vector.h"
#include "src/store/tuple_range.h"
#include "src/workload/workload.h"

namespace accltl {
namespace {

Value S(const std::string& s) { return Value::Str(s); }
Value I(int64_t i) { return Value::Int(i); }

// --- StableVector ------------------------------------------------------------

using Vec = store::StableVector<uint64_t>;

uint64_t Payload(size_t i) { return store::Mix64(i) | 1; }

TEST(StableVectorTest, BlockLayoutIsGeometric) {
  // Block k holds kBlockSize << k slots, starting where block k-1 ends.
  size_t first = 0;
  for (size_t k = 0; k < 12; ++k) {
    EXPECT_EQ(Vec::BlockSlots(k), Vec::kBlockSize << k);
    EXPECT_EQ(Vec::BlockOf(first), k) << "first slot of block " << k;
    EXPECT_EQ(Vec::BlockOf(first + Vec::BlockSlots(k) - 1), k)
        << "last slot of block " << k;
    first += Vec::BlockSlots(k);
  }
  // The inline directory covers every 32-bit id (the global store's
  // value and fact ids), so no capacity was traded for the small
  // directory.
  EXPECT_GE(Vec::kCapacity, size_t{1} << 32);
  EXPECT_LT(Vec::BlockOf(0xffffffffu), Vec::kMaxBlocks);
}

TEST(StableVectorTest, SequentialEmplaceReadsBackAtEveryBoundary) {
  constexpr size_t kCount = (size_t{1} << 20) + 4096;
  Vec vec;
  for (size_t i = 0; i < kCount; ++i) vec.Emplace(i, Payload(i));
  // First, last and next slot of every block the indices reach.
  size_t checked_blocks = 0;
  for (size_t first = 0, k = 0; first < kCount;
       first += Vec::BlockSlots(k), ++k) {
    size_t last = first + Vec::BlockSlots(k) - 1;
    for (size_t i : {first, last, last + 1}) {
      if (i >= kCount) continue;
      EXPECT_EQ(vec[i], Payload(i)) << "index " << i << " block " << k;
    }
    ++checked_blocks;
  }
  EXPECT_EQ(checked_blocks, vec.blocks_allocated());
  EXPECT_EQ(vec.blocks_allocated(), Vec::BlockOf(kCount - 1) + 1);
  // Full sweep: growth never moved an earlier slot's contents.
  for (size_t i = 0; i < kCount; ++i) {
    if (vec[i] != Payload(i)) {
      ADD_FAILURE() << "index " << i;
      break;
    }
  }
}

TEST(StableVectorTest, ReferencesSurviveGrowth) {
  store::StableVector<std::string, 4> vec;
  vec.Emplace(0, "slot zero survives every later block allocation");
  const std::string* zero = &vec[0];
  for (size_t i = 1; i < 5000; ++i) vec.Emplace(i, std::to_string(i));
  EXPECT_EQ(&vec[0], zero);
  EXPECT_EQ(*zero, "slot zero survives every later block allocation");
  EXPECT_EQ(vec[4999], "4999");
}

// Four writers fill interleaved disjoint index ranges; readers only
// read ids handed to them through a mutex-guarded queue (the
// happens-before edge the class contract requires). Clean under TSAN.
TEST(StableVectorTest, ConcurrentWritersAndPublishedReaders) {
  constexpr size_t kWriters = 4;
  constexpr size_t kReaders = 2;
  constexpr size_t kChunk = 256;
  constexpr size_t kChunksPerWriter = 128;  // 2^17 ids: blocks 0..4
  constexpr size_t kTotal = kWriters * kChunksPerWriter * kChunk;
  Vec vec;
  std::mutex mu;
  std::deque<size_t> published;  // chunk starts
  size_t writers_done = 0;
  std::vector<std::thread> threads;
  for (size_t w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      for (size_t c = 0; c < kChunksPerWriter; ++c) {
        size_t start = (c * kWriters + w) * kChunk;
        for (size_t i = start; i < start + kChunk; ++i) {
          vec.Emplace(i, Payload(i));
        }
        std::lock_guard<std::mutex> lock(mu);
        published.push_back(start);
      }
      std::lock_guard<std::mutex> lock(mu);
      ++writers_done;
    });
  }
  std::vector<size_t> read(kReaders, 0);
  std::vector<size_t> bad(kReaders, 0);
  for (size_t r = 0; r < kReaders; ++r) {
    threads.emplace_back([&, r] {
      for (;;) {
        size_t start = 0;
        bool have = false;
        bool done = false;
        {
          std::lock_guard<std::mutex> lock(mu);
          if (!published.empty()) {
            start = published.front();
            published.pop_front();
            have = true;
          } else {
            done = writers_done == kWriters;
          }
        }
        if (!have) {
          if (done) return;
          std::this_thread::yield();
          continue;
        }
        for (size_t i = start; i < start + kChunk; ++i) {
          if (vec[i] != Payload(i)) ++bad[r];
          ++read[r];
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  size_t total_read = 0;
  for (size_t r = 0; r < kReaders; ++r) {
    EXPECT_EQ(bad[r], 0u) << "reader " << r;
    total_read += read[r];
  }
  EXPECT_EQ(total_read, kTotal);
  EXPECT_EQ(vec.blocks_allocated(), Vec::BlockOf(kTotal - 1) + 1);
  for (size_t i = 0; i < kTotal; ++i) {
    if (vec[i] != Payload(i)) {
      ADD_FAILURE() << "index " << i;
      break;
    }
  }
}

// Heap-owning payloads, so the ASan job sees a leak or a double free
// if destruction misses a block or frees one twice.
TEST(StableVectorTest, DestroysOneBlockOrManyBlocks) {
  const std::string kLong(64, 'x');  // beyond the small-string buffer
  {
    store::StableVector<std::string, 4> only_first;
    for (size_t i = 0; i < 10; ++i) only_first.Emplace(i, kLong);
    EXPECT_EQ(only_first.blocks_allocated(), 1u);
    EXPECT_EQ(only_first[9], kLong);
  }
  {
    store::StableVector<std::string, 4> many;
    constexpr size_t kCount = 16 * ((size_t{1} << 10) - 1);  // blocks 0..9
    for (size_t i = 0; i < kCount; ++i) many.Emplace(i, kLong);
    EXPECT_EQ(many.blocks_allocated(), 10u);
    EXPECT_EQ(many[kCount - 1], kLong);
  }
  {
    // Sparse: a block is allocated only where an index lands.
    store::StableVector<std::string, 4> sparse;
    sparse.Emplace(0, kLong);
    sparse.Emplace(100000, kLong);
    EXPECT_EQ(sparse.blocks_allocated(), 2u);
    EXPECT_EQ(sparse[100000], kLong);
  }
}

// --- Interning ---------------------------------------------------------------

TEST(StoreTest, ValueInterningRoundTrips) {
  store::Store& store = store::Store::Get();
  std::vector<Value> values = {S("store-test-a"), S("store-test-b"), I(421),
                               Value::Bool(true)};
  for (const Value& v : values) {
    store::ValueId id = store.InternValue(v);
    EXPECT_EQ(store.value(id), v);
    // Re-interning is idempotent.
    EXPECT_EQ(store.InternValue(v), id);
    EXPECT_EQ(store.TryFindValue(v), id);
  }
}

TEST(StoreTest, TupleInterningRoundTrips) {
  store::Store& store = store::Store::Get();
  Tuple t = {S("store-test-x"), I(7), S("store-test-y")};
  store::FactId id = store.InternTuple(t);
  EXPECT_EQ(store.tuple(id), t);
  EXPECT_EQ(store.InternTuple(t), id);
  EXPECT_EQ(store.TryFindTuple(t), id);
  EXPECT_EQ(store.fact_values(id).size(), 3u);

  // A distinct tuple gets a distinct id; a never-interned one is absent.
  Tuple other = {S("store-test-x"), I(8), S("store-test-y")};
  EXPECT_NE(store.InternTuple(other), id);
  EXPECT_EQ(store.TryFindTuple({S("store-test-never-interned")}),
            store::kNoFactId);
}

// --- FactSet -----------------------------------------------------------------

TEST(StoreTest, FactSetDerivationAndHash) {
  store::Store& store = store::Store::Get();
  store::FactId a = store.InternTuple({S("fs-a")});
  store::FactId b = store.InternTuple({S("fs-b")});
  store::FactId c = store.InternTuple({S("fs-c")});

  bool added = false;
  store::FactSet::Ptr s1 =
      store::FactSet::WithFact(store::FactSet::Empty(), a, &added);
  EXPECT_TRUE(added);
  store::FactSet::Ptr s2 = store::FactSet::WithFact(s1, b, &added);
  EXPECT_TRUE(added);
  // Adding a present fact returns the same set, no copy.
  store::FactSet::Ptr s2b = store::FactSet::WithFact(s2, a, &added);
  EXPECT_FALSE(added);
  EXPECT_EQ(s2b.get(), s2.get());

  // Hash is order-independent and incremental == batch.
  store::FactSet::Ptr forward = store::FactSet::FromUnsorted({a, b, c});
  store::FactSet::Ptr backward = store::FactSet::FromUnsorted({c, b, a});
  EXPECT_EQ(forward->hash(), backward->hash());
  EXPECT_TRUE(*forward == *backward);
  store::FactSet::Ptr grown = store::FactSet::WithFact(s2, c);
  EXPECT_EQ(grown->hash(), forward->hash());
  EXPECT_TRUE(*grown == *forward);

  EXPECT_TRUE(s2->SubsetOf(*forward));
  EXPECT_FALSE(forward->SubsetOf(*s2));
  EXPECT_EQ(store::FactSet::Union(s1, s2)->ids(), s2->ids());
}

// --- TupleRange ----------------------------------------------------------------

std::vector<Tuple> Collect(const store::TupleRange& range) {
  std::vector<Tuple> out;
  for (const Tuple& t : range) out.push_back(t);
  return out;
}

TEST(TupleRangeTest, TwoSpansIterateSetThenExtra) {
  store::Store& store = store::Store::Get();
  store::FactId a = store.InternTuple({S("tr-a")});
  store::FactId b = store.InternTuple({S("tr-b")});
  store::FactId c = store.InternTuple({S("tr-c")});
  store::FactId d = store.InternTuple({S("tr-d")});
  store::FactSet::Ptr base = store::FactSet::FromUnsorted({a, c});
  std::vector<store::FactId> extra = {b, d};
  std::sort(extra.begin(), extra.end());

  store::TupleRange range(base.get(), extra.data(), extra.size());
  EXPECT_TRUE(range.has_fact_ids());
  EXPECT_EQ(range.size(), 4u);
  EXPECT_FALSE(range.empty());
  std::vector<Tuple> want;
  for (store::FactId id : base->ids()) want.push_back(store.tuple(id));
  for (store::FactId id : extra) want.push_back(store.tuple(id));
  EXPECT_EQ(Collect(range), want);
  for (const Tuple& t : want) EXPECT_TRUE(range.Contains(t));
  EXPECT_FALSE(range.Contains({S("tr-e")}));          // never interned
  store.InternTuple({S("tr-f")});
  EXPECT_FALSE(range.Contains({S("tr-f")}));          // interned, absent
  EXPECT_FALSE(range.Contains({S("tr-a"), S("x")}));  // other arity
}

TEST(TupleRangeTest, EitherSpanMayBeEmpty) {
  store::Store& store = store::Store::Get();
  store::FactId a = store.InternTuple({S("tr-only-a")});
  store::FactId b = store.InternTuple({S("tr-only-b")});
  store::FactSet::Ptr base = store::FactSet::FromUnsorted({a});

  // Only the set.
  store::TupleRange set_only(base.get(), nullptr, 0);
  EXPECT_EQ(set_only.size(), 1u);
  EXPECT_EQ(Collect(set_only), std::vector<Tuple>{store.tuple(a)});
  EXPECT_FALSE(set_only.Contains(store.tuple(b)));

  // Only the extra span (an empty or absent set).
  store::TupleRange extra_only(store::FactSet::Empty().get(), &b, 1);
  EXPECT_EQ(extra_only.size(), 1u);
  EXPECT_EQ(Collect(extra_only), std::vector<Tuple>{store.tuple(b)});
  EXPECT_TRUE(extra_only.Contains(store.tuple(b)));
  EXPECT_FALSE(extra_only.Contains(store.tuple(a)));
  store::TupleRange null_set(nullptr, &b, 1);
  EXPECT_EQ(Collect(null_set), std::vector<Tuple>{store.tuple(b)});

  // Neither.
  store::TupleRange neither(nullptr, nullptr, 0);
  EXPECT_TRUE(neither.empty());
  EXPECT_TRUE(neither.has_fact_ids());
  EXPECT_TRUE(Collect(neither).empty());
  EXPECT_FALSE(neither.Contains(store.tuple(a)));
  EXPECT_TRUE(Collect(store::TupleRange()).empty());
}

TEST(TupleRangeTest, SingleTupleRange) {
  Tuple binding = {S("tr-single"), I(7)};
  store::TupleRange range = store::TupleRange::Single(&binding);
  EXPECT_FALSE(range.has_fact_ids());
  EXPECT_EQ(range.size(), 1u);
  EXPECT_EQ(Collect(range), std::vector<Tuple>{binding});
  EXPECT_TRUE(range.Contains(binding));
  EXPECT_FALSE(range.Contains({S("tr-single")}));
}

TEST(StoreTest, MatchIndexFindsByPositionValue) {
  store::Store& store = store::Store::Get();
  store::FactId f1 = store.InternTuple({S("mi-k1"), S("mi-v1")});
  store::FactId f2 = store.InternTuple({S("mi-k1"), S("mi-v2")});
  store::FactId f3 = store.InternTuple({S("mi-k2"), S("mi-v1")});
  store::FactSet::Ptr set = store::FactSet::FromUnsorted({f1, f2, f3});

  store::MatchIndexCache cache;
  store::ValueId k1 = store.InternValue(S("mi-k1"));
  store::ValueId v1 = store.InternValue(S("mi-v1"));
  EXPECT_EQ(cache.Lookup(set, 0, k1).size(), 2u);
  EXPECT_EQ(cache.Lookup(set, 1, v1).size(), 2u);
  EXPECT_EQ(cache.Lookup(set, 0, v1).size(), 0u);
  EXPECT_EQ(cache.num_indexed_sets(), 1u);
}

// --- Copy-on-write instances -------------------------------------------------

class StoreInstanceTest : public ::testing::Test {
 protected:
  StoreInstanceTest() : pd_(workload::MakePhoneDirectory()) {}
  workload::PhoneDirectory pd_;
};

TEST_F(StoreInstanceTest, CowChildMutationNeverChangesParent) {
  schema::Instance parent(pd_.schema);
  parent.AddFact(pd_.mobile, {S("Smith"), S("OX13QD"), S("Parks Rd"), I(1)});
  schema::Instance snapshot = parent;

  schema::Instance child = parent;  // shares both relations
  EXPECT_EQ(child.facts(pd_.mobile).get(), parent.facts(pd_.mobile).get());
  child.AddFact(pd_.mobile, {S("Jones"), S("W1"), S("Baker St"), I(2)});
  child.AddFact(pd_.address, {S("Parks Rd"), S("OX13QD"), S("Smith"), I(13)});

  // Parent is bit-for-bit what it was; untouched relation still shared.
  EXPECT_TRUE(parent == snapshot);
  EXPECT_EQ(parent.tuples(pd_.mobile).size(), 1u);
  EXPECT_EQ(parent.tuples(pd_.address).size(), 0u);
  EXPECT_EQ(child.tuples(pd_.mobile).size(), 2u);
  EXPECT_NE(child.facts(pd_.mobile).get(), parent.facts(pd_.mobile).get());

  // Builder-derived instances behave the same.
  schema::Instance::Builder builder(parent);
  builder.Add(pd_.mobile, {S("Ada"), S("N1"), S("Ring Rd"), I(3)});
  schema::Instance built = std::move(builder).Build();
  EXPECT_TRUE(parent == snapshot);
  EXPECT_EQ(built.tuples(pd_.mobile).size(), 2u);
  EXPECT_EQ(built.facts(pd_.address).get(), parent.facts(pd_.address).get());
}

TEST_F(StoreInstanceTest, HashEqualityMatchesInstanceEquality) {
  Rng rng(23);
  // Spot checks: same facts in different insertion orders hash and
  // compare equal; any single-fact difference changes both.
  for (int round = 0; round < 20; ++round) {
    schema::Instance universe =
        workload::MakePhoneUniverse(pd_, &rng, 1 + round % 5);
    std::vector<std::pair<schema::RelationId, Tuple>> facts;
    for (schema::RelationId r = 0; r < universe.num_relations(); ++r) {
      for (const Tuple& t : universe.tuples(r)) facts.emplace_back(r, t);
    }
    schema::Instance forward(pd_.schema);
    for (const auto& [r, t] : facts) forward.AddFact(r, t);
    schema::Instance backward(pd_.schema);
    for (auto it = facts.rbegin(); it != facts.rend(); ++it) {
      backward.AddFact(it->first, it->second);
    }
    EXPECT_EQ(forward.hash(), backward.hash());
    EXPECT_TRUE(forward == backward);
    EXPECT_TRUE(forward == universe);

    schema::Instance missing_one(pd_.schema);
    for (size_t i = 1; i < facts.size(); ++i) {
      missing_one.AddFact(facts[i].first, facts[i].second);
    }
    EXPECT_NE(missing_one.hash(), forward.hash());
    EXPECT_FALSE(missing_one == forward);
  }
}

TEST_F(StoreInstanceTest, InstanceOpsSurviveInterning) {
  schema::Instance a(pd_.schema);
  a.AddFact(pd_.mobile, {S("Smith"), S("OX13QD"), S("Parks Rd"), I(1)});
  schema::Instance b = a;
  b.AddFact(pd_.address, {S("Parks Rd"), S("OX13QD"), S("Smith"), I(13)});

  EXPECT_TRUE(a.SubinstanceOf(b));
  EXPECT_FALSE(b.SubinstanceOf(a));
  EXPECT_TRUE(a.Contains(pd_.mobile,
                         {S("Smith"), S("OX13QD"), S("Parks Rd"), I(1)}));
  EXPECT_FALSE(a.Contains(pd_.mobile, {S("Nobody"), S("x"), S("y"), I(0)}));
  EXPECT_EQ(b.TotalFacts(), 2u);
  EXPECT_EQ(b.ActiveDomain().size(), 5u);  // shared values counted once

  schema::Instance c(pd_.schema);
  c.UnionWith(b);
  EXPECT_TRUE(c == b);
  EXPECT_EQ(
      c.Matching(pd_.mobile, pd_.schema.method(pd_.acm1).input_positions,
                 {S("Smith")})
          .size(),
      1u);
  EXPECT_EQ(c.MatchingIds(pd_.mobile,
                          pd_.schema.method(pd_.acm1).input_positions,
                          {S("Nobody")})
                .size(),
            0u);
}

// --- Visited-configuration dedup ---------------------------------------------

TEST_F(StoreInstanceTest, BfsDedupCollapsesDiamond) {
  // Two independent singleton reveals commute: the depth-2 level of the
  // LTS has far fewer distinct configurations than transitions.
  Rng rng(7);
  schema::LtsOptions opts;
  opts.universe = workload::MakePhoneUniverse(pd_, &rng, 2);
  opts.seed_values = {S("Smith")};
  std::vector<schema::LtsLevelStats> stats = schema::ExploreBreadthFirst(
      pd_.schema, schema::Instance(pd_.schema), opts, 2, 4000);
  ASSERT_GE(stats.size(), 3u);
  EXPECT_GT(stats[2].transitions, stats[2].distinct_configurations);
}

TEST_F(StoreInstanceTest, WitnessSearchDedupReducesNodesExplored) {
  // ψ = F[reveal-Mobile-fact] ∧ F[reveal-Address-fact] ∧ F[unsat]: the
  // third obligation never fires, so the search exhausts the bounded
  // space. The first two obligations commute — a diamond — and the
  // (state, configuration-hash) dedup collapses the interleavings.
  acc::AccPtr f =
      acc::ParseAccFormula(
          "F [EXISTS n . IsBind_AcM1(n) AND "
          "(EXISTS p,s,ph . Mobile_post(n,p,s,ph))] AND "
          "F [EXISTS s,p . IsBind_AcM2(s,p) AND "
          "(EXISTS n,h . Address_post(s,p,n,h))] AND "
          "F [EXISTS n . IsBind_AcM1(n) AND n != n]",
          pd_.schema)
          .value();
  automata::AAutomaton a =
      automata::CompileToAutomaton(f, pd_.schema).value();

  automata::WitnessSearchOptions opts;
  opts.max_path_length = 3;

  automata::WitnessSearchResult r = automata::BoundedWitnessSearch(
      a, pd_.schema, schema::Instance(pd_.schema), opts);
  EXPECT_FALSE(r.found);
  // Pinned with the visited table on. The same search without it
  // explored 55743 nodes, about ten times as many.
  EXPECT_EQ(r.nodes_explored, 5620u)
      << "visited dedup must keep collapsing the diamond";
}

TEST_F(StoreInstanceTest, RealizationCapSetsExhaustedBudget) {
  // Many realizations exist for the first obligation, but the witness
  // does not (second conjunct is unsatisfiable). With a tiny
  // per-step realization cap the search is non-exhaustive and must say
  // so via exhausted_budget, not report a confident "no".
  Rng rng(29);
  schema::Instance seeded = workload::MakePhoneUniverse(pd_, &rng, 6);
  acc::AccPtr f =
      acc::ParseAccFormula(
          "F [EXISTS n . IsBind_AcM1(n) AND "
          "(EXISTS p,s,ph . Mobile_pre(n,p,s,ph))] AND "
          "F [EXISTS n . IsBind_AcM1(n) AND n != n]",
          pd_.schema)
          .value();
  automata::AAutomaton a =
      automata::CompileToAutomaton(f, pd_.schema).value();

  automata::WitnessSearchOptions opts;
  opts.max_path_length = 2;
  opts.max_realizations_per_step = 1;
  automata::WitnessSearchResult r =
      automata::BoundedWitnessSearch(a, pd_.schema, seeded, opts);
  EXPECT_FALSE(r.found);
  EXPECT_TRUE(r.exhausted_budget)
      << "hitting max_realizations_per_step must mark the result unknown";

  // With a generous cap the same search is exhaustive again.
  opts.max_realizations_per_step = 4096;
  automata::WitnessSearchResult full =
      automata::BoundedWitnessSearch(a, pd_.schema, seeded, opts);
  EXPECT_FALSE(full.found);
  EXPECT_FALSE(full.exhausted_budget);
}

}  // namespace
}  // namespace accltl
