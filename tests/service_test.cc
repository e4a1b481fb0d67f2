// Service-layer tests: prepared-query reuse must return byte-identical
// Decisions to the one-shot API across all three engines; deadlines
// fire as kDeadlineExceeded (never a wrong definitive answer) at every
// worker count; a prepared query compiles its engine plan once, however
// many checks (and concurrent first checks) it serves; cache hits
// return the identical cached response, a renamed-schema twin hits
// too, and cut or budget-exhausted answers are never cached;
// cross-thread cancel unblocks a long sweep promptly; and the thread
// knob is single-sourced (the engines' option structs carry no
// per-engine copy a caller could leave mismatched).

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "src/accltl/parser.h"
#include "src/analysis/decide.h"
#include "src/analysis/zero_solver.h"
#include "src/automata/emptiness.h"
#include "src/common/rng.h"
#include "src/engine/cancel.h"
#include "src/obs/metrics.h"
#include "src/schema/lts.h"
#include "src/service/analysis_service.h"
#include "src/service/result_cache.h"
#include "src/workload/workload.h"

namespace accltl {
namespace {

using service::AnalysisService;
using service::CheckRequest;
using service::CheckResponse;
using service::PendingResult;
using service::PreparedQuery;
using service::ServiceOptions;
using service::Verdict;

// --- Satellite regression: the thread knob is single-sourced -----------------

template <typename T, typename = void>
struct HasNumThreads : std::false_type {};
template <typename T>
struct HasNumThreads<T, std::void_t<decltype(std::declval<T>().num_threads)>>
    : std::true_type {};

// The pre-service API hand-copied DecideOptions::num_threads into
// zero.num_threads and bounded.num_threads; a missed copy silently ran
// the two engines of one request at different worker counts. The knob
// now lives only in engine::ExecOptions — the per-engine copies are
// gone, so a mismatch is unrepresentable.
static_assert(!HasNumThreads<analysis::ZeroSolverOptions>::value,
              "ZeroSolverOptions must not grow its own thread knob back");
static_assert(!HasNumThreads<automata::WitnessSearchOptions>::value,
              "WitnessSearchOptions must not grow its own thread knob back");
static_assert(!HasNumThreads<schema::LtsOptions>::value,
              "LtsOptions must not grow its own thread knob back");
static_assert(!HasNumThreads<analysis::DecideOptions>::value,
              "DecideOptions threads live in exec, nowhere else");
static_assert(HasNumThreads<engine::ExecOptions>::value,
              "engine::ExecOptions is the single thread-knob source");

// --- Fixture -----------------------------------------------------------------

// Formulas over the phone-directory schema, one per engine.
const char kZeroFormula[] =
    "F [EXISTS n,p,s,ph . Mobile_post(n,p,s,ph)] AND F [IsBind_AcM2()]";
const char kBoundedFormula[] =
    "F [EXISTS n . IsBind_AcM1(n) AND "
    "(EXISTS s,p,h . Address_pre(s,p,n,h))]";
const char kDatalogFormula[] =
    "(F [EXISTS n . IsBind_AcM1(n) AND "
    "(EXISTS p,s,ph . Mobile_pre(n,p,s,ph))]) AND "
    "(G NOT [EXISTS n,p,s,ph . Mobile_post(n,p,s,ph)])";
// Two commuting reveal-obligations plus one unsatisfiable one: the
// interleaving diamond is swept to exhaustion — a large, definitely
// slow workload for deadline/cancel tests at depth 5.
const char kDiamondExhaustive[] =
    "F [EXISTS n . IsBind_AcM1(n) AND "
    "(EXISTS p,s,ph . Mobile_post(n,p,s,ph))] AND "
    "F [EXISTS s,p . IsBind_AcM2(s,p) AND "
    "(EXISTS n,h . Address_post(s,p,n,h))] AND "
    "F [EXISTS n . IsBind_AcM1(n) AND n != n]";
// Wide zero-ary space (idempotence disables the memo); globally
// unsatisfiable, so a full sweep takes far longer than any test
// deadline.
const char kZeroWideUnsat[] =
    "(F [EXISTS n,p,s,ph . Mobile_post(n,p,s,ph)]) AND "
    "(X X X F [IsBind_AcM1()]) AND "
    "(G NOT [EXISTS n,p,s,ph . Mobile_post(n,p,s,ph)])";

class ServiceTest : public ::testing::Test {
 protected:
  ServiceTest() : pd_(workload::MakePhoneDirectory()) {}

  acc::AccPtr Parse(const std::string& text) {
    Result<acc::AccPtr> r = acc::ParseAccFormula(text, pd_.schema);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() ? r.value() : acc::AccFormula::False();
  }

  /// Canonical byte rendering of a Decision. `include_nodes` adds the
  /// nodes_explored statistic: exact for repeated runs of one
  /// traversal discipline, but legitimately different between the
  /// serial DFS and the pilot+sweep disciplines (they visit the same
  /// space through different node sets), so cross-worker-count
  /// comparisons leave it out.
  static std::string DecisionKey(const analysis::Decision& d,
                                 const schema::Schema& schema,
                                 bool include_nodes = true) {
    std::string key;
    key += analysis::AnswerName(d.satisfiable);
    key += '|';
    key += d.engine;
    key += '|';
    key += std::to_string(static_cast<int>(d.fragment));
    key += d.uses_inequality ? "|neq|" : "|eq|";
    key += d.has_witness ? "w:" : "-";
    if (d.has_witness) key += d.witness.ToString(schema);
    if (include_nodes) {
      key += '|';
      key += std::to_string(d.nodes_explored);
    }
    key += d.exhausted_budget ? "|exhausted" : "|swept";
    return key;
  }

  workload::PhoneDirectory pd_;
};

// --- Prepared reuse is byte-identical to the one-shot API --------------------

TEST_F(ServiceTest, PreparedReuseMatchesOneShotAcrossAllThreeEngines) {
  struct Case {
    const char* formula;
    bool datalog;
    const char* want_engine;
  };
  const Case cases[] = {
      {kZeroFormula, false, "zero-ary"},
      {kBoundedFormula, false, "automata-bounded"},
      {kDatalogFormula, true, "automata-datalog"},
  };
  AnalysisService svc;
  for (const Case& c : cases) {
    acc::AccPtr f = Parse(c.formula);
    analysis::DecideOptions oneshot_opts;
    oneshot_opts.use_datalog_pipeline = c.datalog;
    Result<analysis::Decision> oneshot =
        analysis::DecideSatisfiability(f, pd_.schema, oneshot_opts);
    ASSERT_TRUE(oneshot.ok()) << oneshot.status().ToString();
    EXPECT_EQ(oneshot.value().engine, c.want_engine) << c.formula;

    service::PrepareOptions popts;
    popts.use_datalog_pipeline = c.datalog;
    Result<std::shared_ptr<const PreparedQuery>> prepared =
        svc.Prepare(pd_.schema, f, popts);
    ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();

    CheckRequest request;
    request.use_cache = false;  // every submission must really search
    for (int round = 0; round < 3; ++round) {
      CheckResponse resp = svc.Check(*prepared.value(), request);
      ASSERT_TRUE(resp.status.ok()) << resp.status.ToString();
      EXPECT_EQ(resp.verdict, Verdict::kCompleted);
      EXPECT_EQ(DecisionKey(resp.decision, pd_.schema),
                DecisionKey(oneshot.value(), pd_.schema))
          << c.formula << " round " << round;
    }
  }
}

TEST_F(ServiceTest, WorkerCountNeverChangesThePreparedAnswer) {
  AnalysisService svc;
  for (const char* text : {kZeroFormula, kBoundedFormula}) {
    Result<std::shared_ptr<const PreparedQuery>> prepared =
        svc.Prepare(pd_.schema, std::string(text), service::PrepareOptions{});
    ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
    CheckRequest request;
    request.use_cache = false;
    request.num_threads = 1;
    CheckResponse serial = svc.Check(*prepared.value(), request);
    ASSERT_TRUE(serial.status.ok());
    for (size_t threads : {size_t{2}, size_t{8}}) {
      request.num_threads = threads;
      CheckResponse parallel = svc.Check(*prepared.value(), request);
      ASSERT_TRUE(parallel.status.ok());
      EXPECT_EQ(DecisionKey(parallel.decision, pd_.schema, false),
                DecisionKey(serial.decision, pd_.schema, false))
          << text << " at " << threads << " workers";
    }
  }
}

// --- Deadlines ---------------------------------------------------------------

TEST_F(ServiceTest, DeadlineMidSearchYieldsDeadlineExceededAtAllWorkerCounts) {
  struct Case {
    const char* formula;
    bool idempotent;
  };
  // One case per cancellable engine: the automata diamond sweep and
  // the zero solver's wide idempotent space. Both are globally
  // unsatisfiable, so the only sound outcomes are a completed "no"
  // (impossible within the deadline on these spaces) or an "unknown"
  // with kDeadlineExceeded — a "no" under a fired deadline would be a
  // wrong definitive answer.
  const Case cases[] = {{kDiamondExhaustive, false}, {kZeroWideUnsat, true}};
  AnalysisService svc;
  for (const Case& c : cases) {
    service::PrepareOptions popts;
    popts.bounded.max_path_length = 5;
    popts.bounded.max_nodes = 100000000;
    popts.zero.require_idempotent = true;
    popts.zero.max_nodes = 100000000;
    Result<std::shared_ptr<const PreparedQuery>> prepared =
        svc.Prepare(pd_.schema, std::string(c.formula), popts);
    ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
    for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
      CheckRequest request;
      request.use_cache = false;
      request.num_threads = threads;
      request.deadline = std::chrono::milliseconds(10);
      auto start = std::chrono::steady_clock::now();
      CheckResponse resp = svc.Check(*prepared.value(), request);
      auto elapsed = std::chrono::steady_clock::now() - start;
      ASSERT_TRUE(resp.status.ok()) << resp.status.ToString();
      EXPECT_EQ(resp.verdict, Verdict::kDeadlineExceeded)
          << c.formula << " at " << threads << " workers";
      EXPECT_TRUE(resp.decision.cancelled);
      // Never a wrong definitive answer under a fired deadline.
      EXPECT_EQ(resp.decision.satisfiable, analysis::Answer::kUnknown)
          << c.formula << " at " << threads << " workers";
      // Promptness: node-granular polling should land well inside
      // seconds even on a loaded CI box (typical: within ~2x of the
      // 10ms deadline; bench_service measures that bound precisely).
      EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
                    .count(),
                5000)
          << c.formula << " at " << threads << " workers";
    }
  }
}

TEST_F(ServiceTest, GenerousDeadlineReproducesTheSerialDecision) {
  AnalysisService svc;
  service::PrepareOptions popts;
  popts.bounded.max_path_length = 3;  // the depth-3 diamond completes
  Result<std::shared_ptr<const PreparedQuery>> prepared =
      svc.Prepare(pd_.schema, std::string(kDiamondExhaustive), popts);
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  CheckRequest no_deadline;
  no_deadline.use_cache = false;
  no_deadline.num_threads = 1;
  CheckResponse serial = svc.Check(*prepared.value(), no_deadline);
  ASSERT_TRUE(serial.status.ok());
  EXPECT_EQ(serial.decision.satisfiable, analysis::Answer::kUnknown);
  for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    CheckRequest request;
    request.use_cache = false;
    request.num_threads = threads;
    request.deadline = std::chrono::minutes(10);  // never fires
    CheckResponse resp = svc.Check(*prepared.value(), request);
    ASSERT_TRUE(resp.status.ok());
    EXPECT_EQ(resp.verdict, Verdict::kCompleted);
    // The determinism contract: a token that never fires never
    // changes any result (nodes_explored moves between the serial
    // and pilot+sweep disciplines, like every cross-worker-count
    // comparison in this suite).
    EXPECT_EQ(DecisionKey(resp.decision, pd_.schema, false),
              DecisionKey(serial.decision, pd_.schema, false))
        << threads << " workers";
  }
}

// --- Compiled state is built once per prepared query -------------------------

uint64_t CounterValue(const char* name) {
  return obs::Registry::Get().counter(name)->Value();
}

TEST_F(ServiceTest, EachPreparedQueryBuildsItsSearchPlanOnce) {
  obs::SetMetricsEnabled(true);
  AnalysisService svc;
  CheckRequest request;
  request.use_cache = false;

  // 150 distinct automaton-routed queries (IsBind with a variable
  // term), checked as a cycle twice: only the first check of each
  // builds its plan. A process-wide plan cache smaller than the cycle
  // would rebuild on nearly every check.
  constexpr int kQueries = 150;
  std::vector<std::shared_ptr<const PreparedQuery>> automaton_queries;
  for (int i = 0; i < kQueries; ++i) {
    std::string text = "F [EXISTS n . IsBind_AcM1(n) AND "
                       "(EXISTS s,h . Address_pre(s, \"P" +
                       std::to_string(i) + "\", n, h))]";
    Result<std::shared_ptr<const PreparedQuery>> p =
        svc.Prepare(pd_.schema, text, service::PrepareOptions{});
    ASSERT_TRUE(p.ok()) << p.status().ToString();
    automaton_queries.push_back(p.value());
  }
  uint64_t builds = CounterValue("automata.plan_builds");
  std::vector<std::string> first_cycle;
  for (int cycle = 0; cycle < 2; ++cycle) {
    for (int i = 0; i < kQueries; ++i) {
      CheckResponse resp = svc.Check(*automaton_queries[i], request);
      ASSERT_TRUE(resp.status.ok()) << resp.status.ToString();
      ASSERT_EQ(resp.decision.engine, "automata-bounded") << i;
      std::string key = DecisionKey(resp.decision, pd_.schema);
      if (cycle == 0) {
        first_cycle.push_back(key);
      } else {
        EXPECT_EQ(key, first_cycle[i]) << i;
      }
    }
  }
  EXPECT_EQ(CounterValue("automata.plan_builds") - builds,
            static_cast<uint64_t>(kQueries));

  // A zero-ary query: checks never rebuild its plan, and the compiled
  // state the first check builds changes no later answer.
  Result<std::shared_ptr<const PreparedQuery>> zero =
      svc.Prepare(pd_.schema, std::string(kZeroFormula));
  ASSERT_TRUE(zero.ok()) << zero.status().ToString();
  uint64_t zero_builds = CounterValue("analysis.zero.plan_builds");
  std::string first;
  for (int i = 0; i < 100; ++i) {
    CheckResponse resp = svc.Check(*zero.value(), request);
    ASSERT_TRUE(resp.status.ok()) << resp.status.ToString();
    ASSERT_EQ(resp.decision.engine, "zero-ary");
    std::string key = DecisionKey(resp.decision, pd_.schema);
    if (i == 0) first = key;
    EXPECT_EQ(key, first) << "check " << i;
  }
  EXPECT_EQ(CounterValue("analysis.zero.plan_builds"), zero_builds);
}

TEST_F(ServiceTest, ConcurrentFirstChecksShareOnePreparedQuery) {
  // Two dispatchers pick up submissions of one fresh PreparedQuery at
  // once, so their first searches race to build its compiled state
  // (the zero plan's atoms, layout and pool-fact ids; the automaton's
  // search plan). Every answer must equal a later serial check.
  ServiceOptions sopts;
  sopts.num_dispatchers = 2;
  AnalysisService svc(sopts);
  CheckRequest request;
  request.use_cache = false;
  for (const char* text : {kZeroFormula, kBoundedFormula}) {
    Result<std::shared_ptr<const PreparedQuery>> prepared =
        svc.Prepare(pd_.schema, std::string(text), service::PrepareOptions{});
    ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
    std::vector<PendingResult> pending;
    for (int i = 0; i < 8; ++i) {
      pending.push_back(svc.Submit(prepared.value(), request));
    }
    CheckResponse serial = svc.Check(*prepared.value(), request);
    ASSERT_TRUE(serial.status.ok()) << serial.status.ToString();
    for (PendingResult& p : pending) {
      const CheckResponse& resp = p.Get();
      ASSERT_TRUE(resp.status.ok()) << resp.status.ToString();
      EXPECT_EQ(DecisionKey(resp.decision, pd_.schema),
                DecisionKey(serial.decision, pd_.schema))
          << text;
    }
  }
}

// --- Result cache ------------------------------------------------------------

TEST_F(ServiceTest, CacheHitReturnsTheIdenticalCachedResponse) {
  ServiceOptions sopts;
  sopts.cache_capacity = 16;
  AnalysisService svc(sopts);
  Result<std::shared_ptr<const PreparedQuery>> prepared =
      svc.Prepare(pd_.schema, std::string(kZeroFormula),
                  service::PrepareOptions{});
  ASSERT_TRUE(prepared.ok());
  CheckResponse first = svc.Check(*prepared.value(), CheckRequest{});
  ASSERT_TRUE(first.status.ok());
  EXPECT_FALSE(first.cache_hit);
  EXPECT_EQ(svc.cache_entries(), 1u);
  CheckResponse second = svc.Check(*prepared.value(), CheckRequest{});
  ASSERT_TRUE(second.status.ok());
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ(svc.cache_hits(), 1u);
  EXPECT_EQ(DecisionKey(second.decision, pd_.schema),
            DecisionKey(first.decision, pd_.schema));
  // A second PreparedQuery with the same content hits the same entry
  // (the key is canonical content, not object identity).
  Result<std::shared_ptr<const PreparedQuery>> twin =
      svc.Prepare(pd_.schema, std::string(kZeroFormula),
                  service::PrepareOptions{});
  ASSERT_TRUE(twin.ok());
  CheckResponse third = svc.Check(*twin.value(), CheckRequest{});
  EXPECT_TRUE(third.cache_hit);
  // Different semantic options miss: they are part of the key.
  service::PrepareOptions grounded;
  grounded.grounded = true;
  Result<std::shared_ptr<const PreparedQuery>> other =
      svc.Prepare(pd_.schema, std::string(kZeroFormula), grounded);
  ASSERT_TRUE(other.ok());
  CheckResponse fourth = svc.Check(*other.value(), CheckRequest{});
  EXPECT_FALSE(fourth.cache_hit);
}

TEST_F(ServiceTest, RenamedSchemaTwinReplaysFromTheCache) {
  AnalysisService svc;
  Result<std::shared_ptr<const PreparedQuery>> prepared =
      svc.Prepare(pd_.schema, std::string(kZeroFormula));
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  CheckResponse first = svc.Check(*prepared.value());
  ASSERT_TRUE(first.status.ok()) << first.status.ToString();
  EXPECT_FALSE(first.cache_hit);

  // Every relation and method renamed; ids, types, inputs and
  // promises unchanged. The cache key is name-free, so the twin hits.
  schema::Schema renamed;
  for (schema::RelationId r = 0; r < pd_.schema.num_relations(); ++r) {
    renamed.AddRelation("X" + pd_.schema.relation(r).name,
                        pd_.schema.relation(r).position_types);
  }
  for (schema::AccessMethodId m = 0; m < pd_.schema.num_access_methods();
       ++m) {
    const schema::AccessMethod& am = pd_.schema.method(m);
    renamed.AddAccessMethod("X" + am.name, am.relation, am.input_positions,
                            am.exact, am.idempotent, am.result_bound);
  }
  const std::string twin_text =
      "F [EXISTS n,p,s,ph . XMobile_post(n,p,s,ph)] AND F [IsBind_XAcM2()]";
  Result<std::shared_ptr<const PreparedQuery>> twin =
      svc.Prepare(renamed, twin_text);
  ASSERT_TRUE(twin.ok()) << twin.status().ToString();
  EXPECT_EQ(twin.value()->cache_key(), prepared.value()->cache_key());
  CheckResponse hit = svc.Check(*twin.value());
  ASSERT_TRUE(hit.status.ok()) << hit.status.ToString();
  EXPECT_TRUE(hit.cache_hit);
  EXPECT_EQ(svc.cache_stats().size, 1u);

  // The replayed Decision is the one a fresh search on the renamed
  // schema produces (its witness refers to methods by id).
  Result<acc::AccPtr> twin_formula = acc::ParseAccFormula(twin_text, renamed);
  ASSERT_TRUE(twin_formula.ok());
  Result<analysis::Decision> fresh =
      analysis::DecideSatisfiability(twin_formula.value(), renamed);
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  EXPECT_EQ(DecisionKey(hit.decision, renamed),
            DecisionKey(fresh.value(), renamed));
}

TEST_F(ServiceTest, NonTransferableResponsesAreNeverCached) {
  AnalysisService svc;

  // Deadline-cut: the wide idempotent sweep with an unbinding node
  // budget cannot finish in 10ms.
  service::PrepareOptions wide;
  wide.zero.require_idempotent = true;
  wide.zero.max_nodes = 100000000;
  Result<std::shared_ptr<const PreparedQuery>> slow =
      svc.Prepare(pd_.schema, std::string(kZeroWideUnsat), wide);
  ASSERT_TRUE(slow.ok()) << slow.status().ToString();
  CheckRequest deadline;
  deadline.deadline = std::chrono::milliseconds(10);
  CheckResponse cut = svc.Check(*slow.value(), deadline);
  ASSERT_TRUE(cut.status.ok()) << cut.status.ToString();
  ASSERT_NE(cut.verdict, Verdict::kCompleted);
  EXPECT_EQ(svc.cache_stats().size, 0u);

  // Budget-exhausted: a one-node budget cannot complete the search.
  service::PrepareOptions tiny;
  tiny.zero.max_nodes = 1;
  Result<std::shared_ptr<const PreparedQuery>> starved =
      svc.Prepare(pd_.schema, std::string(kZeroFormula), tiny);
  ASSERT_TRUE(starved.ok()) << starved.status().ToString();
  CheckResponse exhausted = svc.Check(*starved.value());
  ASSERT_TRUE(exhausted.status.ok()) << exhausted.status.ToString();
  ASSERT_TRUE(exhausted.decision.exhausted_budget);
  EXPECT_EQ(svc.cache_stats().size, 0u);
  // A repeat searches again rather than replaying the cut answer.
  EXPECT_FALSE(svc.Check(*starved.value()).cache_hit);
}

TEST_F(ServiceTest, UseCacheFalseNeitherReadsNorFillsTheCache) {
  AnalysisService svc;
  Result<std::shared_ptr<const PreparedQuery>> prepared =
      svc.Prepare(pd_.schema, std::string(kZeroFormula));
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  CheckRequest no_cache;
  no_cache.use_cache = false;

  CheckResponse fresh = svc.Check(*prepared.value(), no_cache);
  ASSERT_TRUE(fresh.status.ok());
  EXPECT_FALSE(fresh.cache_hit);
  service::LruCache<CheckResponse>::Stats stats = svc.cache_stats();
  EXPECT_EQ(stats.size, 0u);
  EXPECT_EQ(stats.hits + stats.misses, 0u);

  // Fill the cache, then opt out again: no hit is served.
  ASSERT_FALSE(svc.Check(*prepared.value()).cache_hit);
  ASSERT_EQ(svc.cache_stats().size, 1u);
  CheckResponse bypass = svc.Check(*prepared.value(), no_cache);
  EXPECT_FALSE(bypass.cache_hit);
  EXPECT_EQ(svc.cache_stats().hits, 0u);
  EXPECT_EQ(DecisionKey(bypass.decision, pd_.schema),
            DecisionKey(fresh.decision, pd_.schema));
}

TEST_F(ServiceTest, LruCacheEvictsLeastRecentlyUsed) {
  service::LruCache<int> cache(2);
  cache.Insert("a", 1);
  cache.Insert("b", 2);
  int out = 0;
  EXPECT_TRUE(cache.Lookup("a", &out));  // refreshes a
  cache.Insert("c", 3);                  // evicts b
  EXPECT_FALSE(cache.Lookup("b", &out));
  EXPECT_TRUE(cache.Lookup("a", &out));
  EXPECT_EQ(out, 1);
  EXPECT_TRUE(cache.Lookup("c", &out));
  EXPECT_EQ(cache.size(), 2u);
}

// --- Async submission and cancellation ---------------------------------------

TEST_F(ServiceTest, CancelFromAnotherThreadUnblocksALongSweepPromptly) {
  AnalysisService svc;
  service::PrepareOptions popts;
  popts.bounded.max_path_length = 5;
  popts.bounded.max_nodes = 100000000;
  Result<std::shared_ptr<const PreparedQuery>> prepared =
      svc.Prepare(pd_.schema, std::string(kDiamondExhaustive), popts);
  ASSERT_TRUE(prepared.ok());
  CheckRequest request;
  request.use_cache = false;
  request.num_threads = 2;
  auto start = std::chrono::steady_clock::now();
  PendingResult pending = svc.Submit(prepared.value(), request);
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_FALSE(pending.ready()) << "the depth-5 sweep finished in 30ms?";
  pending.Cancel();
  const CheckResponse& resp = pending.Get();  // must not hang
  auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);
  ASSERT_TRUE(resp.status.ok());
  EXPECT_EQ(resp.verdict, Verdict::kCancelled);
  EXPECT_EQ(resp.decision.satisfiable, analysis::Answer::kUnknown);
  // Bounded wall-clock: cooperative polling is node-granular, so the
  // cancel lands orders of magnitude below this bound.
  EXPECT_LT(elapsed.count(), 10000) << "cancellation wakeup was lost";
}

TEST_F(ServiceTest, DestructionCancelsInFlightWorkPromptly) {
  PendingResult pending;
  auto start = std::chrono::steady_clock::now();
  {
    AnalysisService svc;
    service::PrepareOptions popts;
    popts.bounded.max_path_length = 5;
    popts.bounded.max_nodes = 100000000;
    Result<std::shared_ptr<const PreparedQuery>> prepared =
        svc.Prepare(pd_.schema, std::string(kDiamondExhaustive), popts);
    ASSERT_TRUE(prepared.ok());
    CheckRequest request;
    request.use_cache = false;
    request.num_threads = 2;
    pending = svc.Submit(prepared.value(), request);
    // Let the dispatcher pop the job so it is in flight, not queued.
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
  }  // ~AnalysisService fires the in-flight token and joins
  auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);
  EXPECT_LT(elapsed.count(), 10000)
      << "destruction blocked on the full sweep instead of cancelling it";
  ASSERT_TRUE(pending.ready());
  EXPECT_EQ(pending.Get().verdict, Verdict::kCancelled);
}

TEST_F(ServiceTest, InvalidPendingResultGetReturnsErrorNotCrash) {
  PendingResult invalid;
  EXPECT_FALSE(invalid.valid());
  EXPECT_FALSE(invalid.ready());
  EXPECT_FALSE(invalid.WaitFor(std::chrono::milliseconds(1)));
  EXPECT_FALSE(invalid.Get().status.ok());
}

TEST_F(ServiceTest, CancelBeforeDispatchResolvesWithoutSearching) {
  // One dispatcher: a slow job in front keeps the queue busy while we
  // cancel the queued one behind it.
  AnalysisService svc;
  service::PrepareOptions slow_opts;
  slow_opts.bounded.max_path_length = 5;
  slow_opts.bounded.max_nodes = 100000000;
  Result<std::shared_ptr<const PreparedQuery>> slow =
      svc.Prepare(pd_.schema, std::string(kDiamondExhaustive), slow_opts);
  Result<std::shared_ptr<const PreparedQuery>> fast =
      svc.Prepare(pd_.schema, std::string(kZeroFormula),
                  service::PrepareOptions{});
  ASSERT_TRUE(slow.ok());
  ASSERT_TRUE(fast.ok());
  CheckRequest request;
  request.use_cache = false;
  PendingResult blocker = svc.Submit(slow.value(), request);
  PendingResult queued = svc.Submit(fast.value(), request);
  queued.Cancel();
  blocker.Cancel();
  EXPECT_EQ(queued.Get().verdict, Verdict::kCancelled);
  EXPECT_EQ(blocker.Get().verdict, Verdict::kCancelled);
  EXPECT_EQ(queued.Get().decision.nodes_explored, 0u);
}

TEST_F(ServiceTest, BatchedSubmissionsResolveInAnyOrderWithSyncAnswers) {
  ServiceOptions sopts;
  sopts.num_dispatchers = 2;
  AnalysisService svc(sopts);
  std::vector<const char*> formulas = {kZeroFormula, kBoundedFormula,
                                       kZeroFormula, kBoundedFormula,
                                       kZeroFormula, kBoundedFormula};
  std::vector<std::shared_ptr<const PreparedQuery>> prepared;
  for (const char* text : formulas) {
    Result<std::shared_ptr<const PreparedQuery>> p =
        svc.Prepare(pd_.schema, std::string(text), service::PrepareOptions{});
    ASSERT_TRUE(p.ok());
    prepared.push_back(p.value());
  }
  CheckRequest request;
  request.use_cache = false;
  std::vector<PendingResult> pending;
  pending.reserve(prepared.size());
  for (const auto& p : prepared) pending.push_back(svc.Submit(p, request));
  for (size_t i = 0; i < pending.size(); ++i) {
    const CheckResponse& resp = pending[i].Get();
    ASSERT_TRUE(resp.status.ok()) << i;
    EXPECT_EQ(resp.verdict, Verdict::kCompleted) << i;
    CheckResponse sync = svc.Check(*prepared[i], request);
    EXPECT_EQ(DecisionKey(resp.decision, pd_.schema),
              DecisionKey(sync.decision, pd_.schema))
        << i;
  }
}

// --- Cancellation through the LTS explorer -----------------------------------

TEST_F(ServiceTest, LtsExplorationHonorsTheCancelToken) {
  Rng rng(3);
  schema::LtsOptions opts;
  opts.universe = workload::MakePhoneUniverse(pd_, &rng, 24);
  opts.grounded = false;
  opts.seed_values = {Value::Str("Smith")};
  engine::CancelToken token;
  engine::ExecOptions exec;
  exec.num_threads = 2;
  exec.cancel = &token;
  token.Cancel();  // fire before the exploration starts
  auto start = std::chrono::steady_clock::now();
  std::vector<schema::LtsLevelStats> stats = schema::ExploreBreadthFirst(
      pd_.schema, schema::Instance(pd_.schema), opts, /*max_depth=*/3,
      /*max_nodes=*/1000000, exec);
  auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);
  ASSERT_FALSE(stats.empty());
  EXPECT_TRUE(stats.back().cancelled);
  EXPECT_LT(elapsed.count(), 5000);
  // And an unfired token changes nothing.
  engine::CancelToken idle;
  exec.cancel = &idle;
  std::vector<schema::LtsLevelStats> with_token = schema::ExploreBreadthFirst(
      pd_.schema, schema::Instance(pd_.schema), opts, /*max_depth=*/2,
      /*max_nodes=*/100000, exec);
  exec.cancel = nullptr;
  std::vector<schema::LtsLevelStats> without = schema::ExploreBreadthFirst(
      pd_.schema, schema::Instance(pd_.schema), opts, /*max_depth=*/2,
      /*max_nodes=*/100000, exec);
  ASSERT_EQ(with_token.size(), without.size());
  for (size_t i = 0; i < with_token.size(); ++i) {
    EXPECT_EQ(with_token[i].distinct_configurations,
              without[i].distinct_configurations);
    EXPECT_EQ(with_token[i].transitions, without[i].transitions);
    EXPECT_EQ(with_token[i].truncated, without[i].truncated);
    EXPECT_FALSE(with_token[i].cancelled);
  }
}

}  // namespace
}  // namespace accltl
