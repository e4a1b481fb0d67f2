// Shared declarations of the end-to-end benchmark program: the seeded
// inputs of each workload, the independent answer check, and the
// per-layer probes of the traced run. See README.md for the workloads
// and the metric definitions.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/accltl/formula.h"
#include "src/analysis/decide.h"
#include "src/schema/access.h"
#include "src/schema/instance.h"
#include "src/schema/schema.h"
#include "src/service/analysis_service.h"

namespace perfbench {

using accltl::acc::AccPtr;
using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// One distinct prepared query of a workload: what the benchmark hands
/// to AnalysisService::Prepare, plus the tags of the shape report.
struct QuerySpec {
  accltl::schema::Schema schema;
  AccPtr formula;
  accltl::service::PrepareOptions options;
  /// Visited-set storage of this query's Check requests.
  accltl::engine::VisitedMode visited_mode =
      accltl::engine::VisitedMode::kExact;
  bool bounded_methods = false;
  /// A renamed-schema copy of another query (a syntactic cache miss).
  bool renamed_twin = false;
  /// The reference answer, recorded when the inputs are generated.
  accltl::analysis::Decision reference;
};

enum class Kind { kSyncCheck, kWindowedSubmit };

struct Workload {
  std::string name;
  Kind kind = Kind::kSyncCheck;
  std::vector<QuerySpec> queries;
  /// The op sequence of check workloads (indices into `queries`), cycled
  /// by the timed phase. Its first pass fixes decided_share.
  std::vector<uint32_t> cycle;
  /// Search workers per request and Submit dispatchers.
  size_t search_threads = 1;
  size_t dispatchers = 1;
  /// Outstanding Submits kept by the service-traffic client.
  size_t window = 1;
  bool use_cache = false;
  /// The synchronous Checks of the warm-up pass that ends set-up
  /// (indices into `queries`). They are fixed by the catalogue, not the
  /// seed, so every seed's set-up does the same work.
  std::vector<uint32_t> warmup;
};

/// Builds the workload's inputs from `seed` and records every check
/// query's reference answer (input generation; not part of set-up).
/// `tiny` selects the self-test size.
Workload MakeWorkload(const std::string& name, uint64_t seed, bool tiny);

/// Names of the workloads, in BENCHMARK.json order.
const std::vector<std::string>& WorkloadNames();

/// Per-request options used for every Check/Submit of `q`.
accltl::service::CheckRequest RequestFor(const Workload& w,
                                         const QuerySpec& q);

// --- Independent answer check ----------------------------------------------

struct CheckReport {
  size_t witnesses_checked = 0;
  size_t oracle_checked = 0;
  size_t session_prefixes_checked = 0;
  /// Indices of queries whose reference answer failed the check.
  std::vector<size_t> bad_queries;
  std::vector<std::string> problems;
};

/// Validates every reference answer of a check workload: kYes witnesses
/// through AccessPath::Validate and the naive evaluator, zero-routed kNo
/// answers that fit the oracle's bounds against oracle::OracleDecide.
CheckReport CheckReferenceAnswers(const Workload& w);

/// Checks one witness of `q` independently: it must be a valid access
/// path, satisfy the formula under oracle::NaiveEvalOnPath, and be
/// grounded when the request is. Returns the problem, or "" when it
/// passes.
std::string CheckWitness(const QuerySpec& q,
                         const accltl::schema::AccessPath& witness);

/// Assignments oracle::NaiveEvalOnPath tries when it evaluates `q`'s
/// formula on `path`: every assignment of each sentence's variables over
/// the path's active domain, at every position. Deterministic in the
/// request, so screening on it keeps the inputs a function of the seed.
double NaiveEvalCost(const QuerySpec& q,
                     const accltl::schema::AccessPath& path);

// --- Per-layer probes (traced run) -------------------------------------------

/// Per-layer metrics keyed by name; every name in BENCHMARK.json's
/// per_layer list is filled in.
struct LayerMetric {
  double value = 0;
  std::string unit;
};
using LayerMetrics = std::map<std::string, LayerMetric>;

/// Calls the public entry point of each layer on the workload's queries
/// (plus a fixed probe set so every layer is measured on every
/// workload) for about `seconds`, with a trace span around each call.
/// The probes' service sessions are checked against the naive evaluator
/// (outside the spans); disagreements go to `check`.
void ProbeLayers(const Workload& w, uint64_t seed, double seconds,
                 LayerMetrics* out, CheckReport* check);

/// p in [0, 1] over an unsorted sample (copied); 0 for an empty sample.
double Percentile(std::vector<double> v, double p);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
