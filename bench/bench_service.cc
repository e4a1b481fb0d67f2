// Service-layer benchmarks: prepared-vs-cold submission throughput
// and deadline-hit latency. Results land in BENCH_service.json.
//
// The acceptance bar of the service PR: prepared+cached submission
// beats the cold one-shot path by >= 5x on repeated identical checks
// (compare BM_ColdOneShotCheck against BM_PreparedCachedSubmit), and a
// deadline set below the median search time returns kDeadlineExceeded
// within 2x the deadline (BM_DeadlineHitLatency's overshoot_ratio
// counter) while a generous deadline reproduces the exact serial
// Decision at every worker count (asserted in tests/service_test.cc).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_context.h"
#include "bench/bench_memory.h"
#include "src/accltl/parser.h"
#include "src/analysis/decide.h"
#include "src/service/analysis_service.h"
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

// One formula per engine (see tests/service_test.cc for provenance).
const char kZeroFormula[] =
    "F [EXISTS n,p,s,ph . Mobile_post(n,p,s,ph)] AND F [IsBind_AcM2()]";
const char kBoundedFormula[] =
    "F [EXISTS n . IsBind_AcM1(n) AND "
    "(EXISTS s,p,h . Address_pre(s,p,n,h))]";
const char kDiamondExhaustive[] =
    "F [EXISTS n . IsBind_AcM1(n) AND "
    "(EXISTS p,s,ph . Mobile_post(n,p,s,ph))] AND "
    "F [EXISTS s,p . IsBind_AcM2(s,p) AND "
    "(EXISTS n,h . Address_post(s,p,n,h))] AND "
    "F [EXISTS n . IsBind_AcM1(n) AND n != n]";

const char* FormulaForArg(int64_t arg) {
  return arg == 0 ? kZeroFormula : kBoundedFormula;
}

// The cold path a one-shot caller pays per request: parse the formula
// text, classify the fragment, build the zero plan or compile the
// automaton, search.
void BM_ColdOneShotCheck(benchmark::State& state) {
  workload::PhoneDirectory pd = workload::MakePhoneDirectory();
  const char* text = FormulaForArg(state.range(0));
  size_t checks = 0;
  for (auto _ : state) {
    Result<acc::AccPtr> f = acc::ParseAccFormula(text, pd.schema);
    Result<analysis::Decision> d =
        analysis::DecideSatisfiability(f.value(), pd.schema);
    benchmark::DoNotOptimize(d.ok());
    ++checks;
  }
  state.SetItemsProcessed(static_cast<int64_t>(checks));
}
BENCHMARK(BM_ColdOneShotCheck)
    ->Arg(0)
    ->Arg(1)
    ->ArgNames({"formula"})
    ->Unit(benchmark::kMicrosecond);

// Prepared, uncached: the parse/classify/compile cost is paid once
// outside the loop; every submission still searches.
void BM_PreparedSubmit(benchmark::State& state) {
  workload::PhoneDirectory pd = workload::MakePhoneDirectory();
  AnalysisService svc;
  auto prepared =
      svc.Prepare(pd.schema, std::string(FormulaForArg(state.range(0))),
                  service::PrepareOptions{})
          .value();
  CheckRequest request;
  request.use_cache = false;
  size_t checks = 0;
  size_t nodes = 0;
  for (auto _ : state) {
    CheckResponse resp = svc.Check(*prepared, request);
    benchmark::DoNotOptimize(resp.verdict);
    nodes = resp.decision.nodes_explored;
    ++checks;
  }
  state.SetItemsProcessed(static_cast<int64_t>(checks));
  // Deterministic counter (bench_compare.py gates on it): the engines'
  // schedule-independence makes the node count a fixed function of the
  // formula, so any drift is a semantic regression, not noise.
  state.counters["nodes"] = static_cast<double>(nodes);
}
BENCHMARK(BM_PreparedSubmit)
    ->Arg(0)
    ->Arg(1)
    ->ArgNames({"formula"})
    ->Unit(benchmark::kMicrosecond);

// Prepared and cached: repeated identical checks are served from the
// LRU result cache.
void BM_PreparedCachedSubmit(benchmark::State& state) {
  workload::PhoneDirectory pd = workload::MakePhoneDirectory();
  AnalysisService svc;
  auto prepared =
      svc.Prepare(pd.schema, std::string(FormulaForArg(state.range(0))),
                  service::PrepareOptions{})
          .value();
  CheckRequest request;
  size_t checks = 0;
  bool last_was_hit = false;
  size_t nodes = 0;
  for (auto _ : state) {
    CheckResponse resp = svc.Check(*prepared, request);
    benchmark::DoNotOptimize(resp.cache_hit);
    last_was_hit = resp.cache_hit;
    nodes = resp.decision.nodes_explored;
    ++checks;
  }
  state.SetItemsProcessed(static_cast<int64_t>(checks));
  state.counters["cache_hits"] = static_cast<double>(svc.cache_hits());
  // Deterministic counters: after the first iteration every identical
  // request must be served from the cache (cache_hit = 1), and a hit
  // reproduces the cached Decision byte-for-byte, node count included.
  state.counters["cache_hit"] = last_was_hit ? 1.0 : 0.0;
  state.counters["nodes"] = static_cast<double>(nodes);
}
BENCHMARK(BM_PreparedCachedSubmit)
    ->Arg(0)
    ->Arg(1)
    ->ArgNames({"formula"})
    ->Unit(benchmark::kMicrosecond);

// Batched async submission throughput: 64 requests over two prepared
// queries per iteration, drained in order.
void BM_ServiceBatchThroughput(benchmark::State& state) {
  workload::PhoneDirectory pd = workload::MakePhoneDirectory();
  ServiceOptions sopts;
  sopts.cache_capacity = state.range(0) != 0 ? 256 : 0;
  AnalysisService svc(sopts);
  std::vector<std::shared_ptr<const PreparedQuery>> prepared;
  for (const char* text : {kZeroFormula, kBoundedFormula}) {
    prepared.push_back(
        svc.Prepare(pd.schema, std::string(text), service::PrepareOptions{})
            .value());
  }
  constexpr size_t kBatch = 64;
  size_t requests = 0;
  for (auto _ : state) {
    std::vector<PendingResult> pending;
    pending.reserve(kBatch);
    for (size_t i = 0; i < kBatch; ++i) {
      pending.push_back(svc.Submit(prepared[i % prepared.size()], {}));
    }
    for (PendingResult& p : pending) {
      benchmark::DoNotOptimize(p.Get().verdict);
    }
    requests += kBatch;
  }
  state.SetItemsProcessed(static_cast<int64_t>(requests));
  state.counters["peak_rss_mb"] =
      static_cast<double>(bench::PeakRssBytes()) / (1024.0 * 1024.0);
  state.counters["heap_mb"] =
      static_cast<double>(bench::AllocatorFootprintBytes()) /
      (1024.0 * 1024.0);
}
BENCHMARK(BM_ServiceBatchThroughput)
    ->Arg(0)
    ->Arg(1)
    ->ArgNames({"cache"})
    ->Unit(benchmark::kMillisecond);

// Deadline-hit latency: a deadline far below the median sweep time of
// the depth-5 diamond (seconds at any worker count on this box), yet
// large enough to amortize fixed OS scheduling noise on 2-vCPU cloud
// hosts. `overshoot_ratio_max` is the worst observed (time-to-return /
// deadline), `overshoot_ratio_mean` the average; the acceptance bar
// is <= 2.
void BM_DeadlineHitLatency(benchmark::State& state) {
  workload::PhoneDirectory pd = workload::MakePhoneDirectory();
  AnalysisService svc;
  service::PrepareOptions popts;
  popts.bounded.max_path_length = 5;
  popts.bounded.max_nodes = 100000000;
  auto prepared =
      svc.Prepare(pd.schema, std::string(kDiamondExhaustive), popts).value();
  const std::chrono::milliseconds deadline(50);
  CheckRequest request;
  request.use_cache = false;
  request.num_threads = static_cast<size_t>(state.range(0));
  request.deadline = deadline;
  double worst_ratio = 0;
  double ratio_sum = 0;
  size_t deadline_hits = 0;
  size_t runs = 0;
  for (auto _ : state) {
    auto start = std::chrono::steady_clock::now();
    CheckResponse resp = svc.Check(*prepared, request);
    auto elapsed = std::chrono::duration_cast<std::chrono::microseconds>(
        std::chrono::steady_clock::now() - start);
    ++runs;
    if (resp.verdict == Verdict::kDeadlineExceeded) ++deadline_hits;
    double ratio = static_cast<double>(elapsed.count()) /
                   (static_cast<double>(deadline.count()) * 1000.0);
    ratio_sum += ratio;
    if (ratio > worst_ratio) worst_ratio = ratio;
  }
  state.counters["overshoot_ratio_max"] = worst_ratio;
  state.counters["overshoot_ratio_mean"] =
      runs == 0 ? 0 : ratio_sum / static_cast<double>(runs);
  state.counters["deadline_hit_rate"] =
      runs == 0 ? 0 : static_cast<double>(deadline_hits) /
                          static_cast<double>(runs);
}
BENCHMARK(BM_DeadlineHitLatency)
    ->Arg(1)
    ->Arg(2)
    ->Arg(8)
    ->ArgNames({"threads"})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// Result-cache hit latency on a renamed-schema batch: one engine
// search fills the cache, then every iteration prepares the same
// request against a freshly renamed schema and times the Check. The
// cache key is name-free, so each renamed twin must replay from the
// LRU. The prepare cost is excluded (PauseTiming), so the
// per-iteration time IS the per-hit latency end-to-end.
void BM_RenamedTwinCachedCheck(benchmark::State& state) {
  workload::PhoneDirectory pd = workload::MakePhoneDirectory();
  AnalysisService svc;
  auto donor =
      svc.Prepare(pd.schema, std::string(kZeroFormula),
                  service::PrepareOptions{})
          .value();
  benchmark::DoNotOptimize(svc.Check(*donor).verdict);

  size_t i = 0;
  bool last_was_hit = false;
  for (auto _ : state) {
    state.PauseTiming();
    schema::Schema renamed;
    std::string prefix = "B" + std::to_string(i++) + "_";
    for (schema::RelationId r = 0; r < pd.schema.num_relations(); ++r) {
      renamed.AddRelation(prefix + pd.schema.relation(r).name,
                          pd.schema.relation(r).position_types);
    }
    for (schema::AccessMethodId m = 0; m < pd.schema.num_access_methods();
         ++m) {
      const schema::AccessMethod& am = pd.schema.method(m);
      renamed.AddAccessMethod(prefix + am.name, am.relation,
                              am.input_positions, am.exact, am.idempotent,
                              am.result_bound);
    }
    auto twin = svc.Prepare(renamed, donor->formula()).value();
    state.ResumeTiming();
    CheckResponse resp = svc.Check(*twin);
    benchmark::DoNotOptimize(resp.verdict);
    last_was_hit = resp.cache_hit;
  }
  // Deterministic counter (bench_compare.py gates on cache_hit): every
  // renamed twin must replay from the cache, so the final iteration
  // is a hit.
  state.counters["cache_hit"] = last_was_hit ? 1.0 : 0.0;
}
BENCHMARK(BM_RenamedTwinCachedCheck)->Unit(benchmark::kMicrosecond);

// Streaming sessions at scale: 1000 concurrent sessions stepped
// round-robin through the synchronous surface. Half the sessions run
// a formula that finalizes on the first step (kSatisfied is
// irrevocable: later steps are verdict-stable), half a formula that
// never finalizes — so `finalized` is a deterministic 500 and `steps`
// a deterministic 2000 after the fixed warmup sweeps, both gated by
// bench_compare.py. `step_p99_us` is the per-step p99 over the timed
// loop, and `step_cost_10x_ratio` compares a 100-step block at a
// ~100-step prefix against one at a ~1000-step prefix on a dedicated
// session — the O(delta) acceptance bar: steps must not get slower as
// the consumed prefix grows 10x.
void BM_ConcurrentSessions(benchmark::State& state) {
  workload::PhoneDirectory pd = workload::MakePhoneDirectory();
  constexpr size_t kSessions = 1000;
  ServiceOptions sopts;
  sopts.session.max_sessions = 2 * kSessions;
  AnalysisService svc(sopts);
  auto finalizing =
      svc.Prepare(pd.schema, std::string("F [IsBind_AcM1()]"),
                  service::PrepareOptions{})
          .value();
  auto streaming =
      svc.Prepare(pd.schema, std::string("G [TRUE]"),
                  service::PrepareOptions{})
          .value();

  service::StepRequest step;
  step.access = {pd.acm1, {Value::Str("Nobody")}};
  step.response = {};

  std::vector<session::SessionId> ids;
  ids.reserve(kSessions);
  for (size_t i = 0; i < kSessions; ++i) {
    ids.push_back(
        svc.OpenSession(i % 2 == 0 ? finalizing : streaming).value());
  }

  // Fixed warmup: two sweeps over the whole table. Every session has
  // consumed exactly 2 steps and every finalizing session reached its
  // irrevocable verdict — the deterministic counters the CI gate pins.
  size_t warmup_steps = 0;
  for (int sweep = 0; sweep < 2; ++sweep) {
    for (session::SessionId id : ids) {
      session::StepResult r = svc.StepSession(id, step);
      if (r.status.ok()) ++warmup_steps;
    }
  }
  size_t finalized = 0;
  for (session::SessionId id : ids) {
    Result<session::SessionInfo> info = svc.DescribeSession(id);
    if (info.ok() && monitor::IsFinal(info.value().verdict)) ++finalized;
  }

  // O(delta) probe: per-step cost at a short prefix vs a 10x prefix.
  double cost_ratio = 0;
  {
    session::SessionId probe = svc.OpenSession(streaming).value();
    auto block = [&](size_t steps) {
      auto start = std::chrono::steady_clock::now();
      for (size_t i = 0; i < steps; ++i) {
        benchmark::DoNotOptimize(svc.StepSession(probe, step).status.ok());
      }
      return std::chrono::duration_cast<std::chrono::nanoseconds>(
                 std::chrono::steady_clock::now() - start)
          .count();
    };
    int64_t short_prefix = block(100);
    block(800);  // grow the prefix to ~10x
    int64_t long_prefix = block(100);
    cost_ratio = short_prefix == 0
                     ? 0
                     : static_cast<double>(long_prefix) /
                           static_cast<double>(short_prefix);
    benchmark::DoNotOptimize(svc.CloseSession(probe).ok());
  }

  std::vector<int64_t> samples;
  samples.reserve(1 << 16);
  size_t n = 0;
  for (auto _ : state) {
    auto start = std::chrono::steady_clock::now();
    session::StepResult r = svc.StepSession(ids[n % kSessions], step);
    auto elapsed = std::chrono::duration_cast<std::chrono::nanoseconds>(
        std::chrono::steady_clock::now() - start);
    benchmark::DoNotOptimize(r.verdict);
    samples.push_back(elapsed.count());
    ++n;
  }
  state.SetItemsProcessed(static_cast<int64_t>(n));

  std::sort(samples.begin(), samples.end());
  double p99 = samples.empty()
                   ? 0
                   : static_cast<double>(
                         samples[samples.size() * 99 / 100 == samples.size()
                                     ? samples.size() - 1
                                     : samples.size() * 99 / 100]) /
                         1000.0;
  state.counters["live_sessions"] = static_cast<double>(svc.live_sessions());
  state.counters["step_p99_us"] = p99;
  state.counters["step_cost_10x_ratio"] = cost_ratio;
  // Deterministic counters (bench_compare.py gates on them).
  state.counters["steps"] = static_cast<double>(warmup_steps);
  state.counters["finalized"] = static_cast<double>(finalized);

  for (session::SessionId id : ids) {
    benchmark::DoNotOptimize(svc.CloseSession(id).ok());
  }
}
BENCHMARK(BM_ConcurrentSessions)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace accltl

// Emits machine-readable results to BENCH_service.json by default;
// explicit --benchmark_out flags win.
int main(int argc, char** argv) {
  int status = accltl::bench::RunBenchmarks(argc, argv, "BENCH_service.json");
  std::fprintf(stderr,
               "process memory: peak_rss_bytes=%zu allocator_bytes=%zu\n",
               accltl::bench::PeakRssBytes(),
               accltl::bench::AllocatorFootprintBytes());
  return status;
}
