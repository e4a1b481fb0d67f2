#ifndef ACCLTL_SERVICE_ANALYSIS_SERVICE_H_
#define ACCLTL_SERVICE_ANALYSIS_SERVICE_H_

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/analysis/decide.h"
#include "src/common/status.h"
#include "src/engine/cancel.h"
#include "src/engine/thread_pool.h"
#include "src/obs/metrics.h"
#include "src/schema/schema.h"
#include "src/service/canonical.h"
#include "src/service/result_cache.h"
#include "src/session/session_manager.h"

namespace accltl {
namespace service {

/// Point-in-time view of the process-wide observability registry
/// (src/obs): service telemetry — request latency, dispatcher queue
/// wait, cache hit/miss/eviction counters, the deadline-overshoot
/// histogram — alongside the engine/solver instruments, renderable via
/// MetricsSnapshot::ToText() and ::ToPrometheus(). The registry is
/// global (instruments are process-wide, like the engine pool), so
/// this is a free function, not a service method.
obs::MetricsSnapshot MetricsSnapshot();

/// Session-level knobs of one AnalysisService instance.
struct ServiceOptions {
  /// Default search workers per request (engine::Explorer); a request
  /// may override with CheckRequest::num_threads. Results are
  /// deterministic in this count (the engines' schedule-independence
  /// guarantee), which is why it is not part of the cache key; the one
  /// case the guarantee scopes out — a binding max_nodes budget — is
  /// excluded from the cache instead (exhausted responses are never
  /// inserted).
  size_t num_threads = 1;
  /// Threads draining the async Submit queue. Each dispatched request
  /// runs its search through the shared engine pool; dispatchers
  /// pipeline request setup/teardown, the pool serializes the actual
  /// parallel regions.
  size_t num_dispatchers = 1;
  /// Result-cache capacity in entries (0 disables caching entirely).
  size_t cache_capacity = 256;
  /// Streaming-session table bounds (DESIGN.md §10).
  session::SessionManagerOptions session;
};

/// Why a submission finished.
enum class Verdict {
  /// The engines ran to their natural end (including budget cuts —
  /// those are reported through Decision::exhausted_budget).
  kCompleted,
  /// The request's deadline fired mid-search. The Decision is kUnknown
  /// unless a sound witness was already in hand — never a wrong
  /// definitive answer.
  kDeadlineExceeded,
  /// PendingResult::Cancel (or service shutdown) stopped the request.
  kCancelled,
};

const char* VerdictName(Verdict v);

/// Per-submission knobs. Semantic options live in the PreparedQuery;
/// a request only chooses execution context.
struct CheckRequest {
  /// Wall-clock budget; <= 0 means none. Enforced cooperatively at
  /// node-expansion granularity by the three search engines. The two
  /// non-search stages — the Datalog certification pipeline and
  /// witness shrinking — are not cancellable: the token is polled at
  /// their boundaries (a fired token skips the pipeline), but once
  /// started they run to completion, so with
  /// `use_datalog_pipeline`/`shrink_witness` a response can outlast
  /// the deadline by one pipeline run.
  std::chrono::milliseconds deadline{0};
  /// Serve this request from the result cache and insert its answer
  /// there. False neither reads nor fills the cache.
  bool use_cache = true;
  /// Search workers; 0 uses ServiceOptions::num_threads. Never part of
  /// the cache key: results are deterministic in the worker count.
  size_t num_threads = 0;
  /// Visited-set storage for this request's searches (exact records
  /// vs. tree-compressed indices, engine/cancel.h). Never part of the
  /// cache key: the mode changes no verdict, witness, or node count —
  /// only memory footprint. A cache hit's Decision memory statistics
  /// therefore describe the execution that populated the cache, which
  /// may have used the other mode.
  engine::VisitedMode visited_mode = engine::VisitedMode::kExact;
  /// Byte budget over the visited set (0 = unlimited; see
  /// ExecOptions::max_visited_bytes). A binding budget reports
  /// exhausted_budget, and such responses are never cached — the same
  /// exclusion as a binding max_nodes.
  size_t max_visited_bytes = 0;
};

struct CheckResponse {
  /// Non-OK when the underlying decision procedure failed (unsupported
  /// fragment setup errors etc.); `decision` is then default-initialized.
  Status status;
  analysis::Decision decision;
  Verdict verdict = Verdict::kCompleted;
  /// True when this response was replayed from the result cache. The
  /// decision is byte-identical to the response cached at insert,
  /// which may have come from a request against a renamed schema (the
  /// key is name-free, DESIGN.md §9); its statistics (nodes, visited
  /// bytes) describe that execution.
  bool cache_hit = false;
  /// Wall-clock from submission pickup to completion (cache hits
  /// report their lookup time).
  std::chrono::microseconds elapsed{0};
};

/// One streamed access/response step against an open session.
struct StepRequest {
  schema::Access access;
  schema::Response response;
  /// Per-step deadline; 0 means none. A fired deadline leaves the
  /// session untouched (the step may be retried) — see
  /// session::StepResult::deadline_exceeded.
  std::chrono::milliseconds deadline{0};
};

/// A prepared query: parsed AST, Figure 2 fragment classification,
/// zero-ary plan (pool + tableau) or compiled Lemma 4.5 A-automaton,
/// and an owned copy of the schema — computed once by
/// AnalysisService::Prepare, immutable thereafter, shared freely
/// across threads and submissions. The engines' compiled search state
/// (the zero plan's compiled atoms and candidate layout, the
/// automaton's search plan) is built by the first check and lives as
/// long as the query, so later submissions skip it too.
class PreparedQuery {
 public:
  const schema::Schema& schema() const { return schema_; }
  const acc::AccPtr& formula() const { return prepared_.formula; }
  acc::Fragment fragment() const { return prepared_.fragment; }
  bool uses_inequality() const { return prepared_.uses_inequality; }
  const PrepareOptions& options() const { return options_; }
  /// Canonical identity (MakeCanonicalRequestKey(...).Joined()): the
  /// name-canonicalized schema and formula texts plus the semantic
  /// options. Two PreparedQuery instances with equal keys answer every
  /// request identically, so the result cache keys on it.
  const std::string& cache_key() const { return cache_key_; }

 private:
  friend class AnalysisService;
  PreparedQuery() = default;
  /// The schema `prepared_` was prepared against; the engines search
  /// with this copy.
  schema::Schema schema_;
  analysis::PreparedFormula prepared_;
  PrepareOptions options_;
  std::string cache_key_;
};

/// Future-like handle to an async submission. Copyable (shared state);
/// all methods are safe from any thread.
class PendingResult {
 public:
  PendingResult();
  ~PendingResult();
  PendingResult(const PendingResult&);
  PendingResult& operator=(const PendingResult&);
  PendingResult(PendingResult&&) noexcept;
  PendingResult& operator=(PendingResult&&) noexcept;

  bool valid() const;
  bool ready() const;
  /// Blocks until the response is available.
  const CheckResponse& Get() const;
  /// Waits up to `timeout`; true when the response became available.
  bool WaitFor(std::chrono::milliseconds timeout) const;
  /// Fires the request's cancel token: a queued request resolves to
  /// kCancelled without searching, an in-flight one aborts at its next
  /// node expansion. Idempotent; racing a natural completion is
  /// harmless (the completed response wins).
  void Cancel() const;

 private:
  friend class AnalysisService;
  struct State;
  explicit PendingResult(std::shared_ptr<State> state);
  std::shared_ptr<State> state_;
};

/// Future-like handle to an async streamed step (SubmitStep).
/// Copyable (shared state); all methods are safe from any thread.
class PendingStep {
 public:
  PendingStep();
  ~PendingStep();
  PendingStep(const PendingStep&);
  PendingStep& operator=(const PendingStep&);
  PendingStep(PendingStep&&) noexcept;
  PendingStep& operator=(PendingStep&&) noexcept;

  bool valid() const;
  bool ready() const;
  /// Blocks until the step result is available.
  const session::StepResult& Get() const;
  /// Waits up to `timeout`; true when the result became available.
  bool WaitFor(std::chrono::milliseconds timeout) const;
  /// Fires the step's cancel token: a queued step resolves without
  /// touching the session, an in-flight one aborts before committing
  /// (the session is untouched either way; the step may be retried).
  void Cancel() const;

 private:
  friend class AnalysisService;
  struct State;
  explicit PendingStep(std::shared_ptr<State> state);
  std::shared_ptr<State> state_;
};

/// The long-lived facade over the analysis engines: owns the prepared
/// state, the result cache and the async submission queue, and drives
/// every search through the shared engine::ThreadPool. One service
/// instance serves any number of schemas and formulas; Prepare once,
/// Submit/Check many.
class AnalysisService {
 public:
  explicit AnalysisService(ServiceOptions options = {});
  /// Fires every outstanding request's cancel token — queued
  /// submissions resolve to kCancelled without searching, in-flight
  /// ones abort at their next node expansion — then joins the
  /// dispatchers. Every PendingResult ever returned resolves.
  ~AnalysisService();

  AnalysisService(const AnalysisService&) = delete;
  AnalysisService& operator=(const AnalysisService&) = delete;

  /// Builds the shared, immutable prepared state: schema copy, parsed
  /// AST (for the text overload), fragment classification, zero-ary
  /// plan or compiled automaton. Fails on parse errors and hard setup
  /// errors; fragment-routing misses surface per-request instead.
  Result<std::shared_ptr<const PreparedQuery>> Prepare(
      const schema::Schema& schema, const acc::AccPtr& formula,
      const PrepareOptions& options = {});
  Result<std::shared_ptr<const PreparedQuery>> Prepare(
      const schema::Schema& schema, const std::string& formula_text,
      const PrepareOptions& options = {});

  /// Synchronous check on the calling thread (still deadline-capable
  /// through `request.deadline`).
  CheckResponse Check(const PreparedQuery& prepared,
                      const CheckRequest& request = {});

  /// Batched async submission: enqueues the request for the dispatcher
  /// threads and returns immediately. Submissions against one
  /// PreparedQuery share all its compiled state; identical requests
  /// are served from the result cache when enabled.
  PendingResult Submit(std::shared_ptr<const PreparedQuery> prepared,
                       CheckRequest request = {});

  /// --- Streaming sessions (DESIGN.md §10) ---------------------------------
  /// Opens a monitored session over the prepared query: the client then
  /// streams access/response steps and receives an incremental
  /// four-valued verdict per step, never re-running a full search. The
  /// session pins `prepared` (schema, formula, compiled automaton) for
  /// its lifetime; the backend follows the prepared query's Figure-2
  /// classification (session::MonitoredSession::PickBackend).
  /// `initial` is the session's I0; the overload without it starts from
  /// the empty instance.
  Result<session::SessionId> OpenSession(
      std::shared_ptr<const PreparedQuery> prepared,
      schema::Instance initial);
  Result<session::SessionId> OpenSession(
      std::shared_ptr<const PreparedQuery> prepared);

  /// Synchronous step on the calling thread (deadline-capable through
  /// `request.deadline`). Lookup failures (unknown/expired session) are
  /// flattened into StepResult::status, so callers branch on one field.
  session::StepResult StepSession(session::SessionId id,
                                  const StepRequest& request);

  /// Async step via the dispatcher queue. Steps of one session are
  /// serialized by the session's own lock, but *ordering* across
  /// concurrently queued steps follows dispatcher scheduling: a client
  /// that needs a deterministic verdict sequence (they all do) waits on
  /// each PendingStep before submitting the next — then the sequence is
  /// identical at any dispatcher count.
  PendingStep SubmitStep(session::SessionId id, StepRequest request);

  /// Closes the session, returning its final state.
  Result<session::SessionInfo> CloseSession(session::SessionId id);

  /// Current session state without consuming a step.
  Result<session::SessionInfo> DescribeSession(session::SessionId id) const;

  /// Sweeps idle-expired sessions now; returns how many were expired.
  size_t ExpireIdleSessions();

  size_t live_sessions() const;

  /// The engine pool every search of this service runs on.
  engine::ThreadPool& pool() const { return engine::ThreadPool::Global(); }

  const ServiceOptions& options() const { return options_; }
  size_t cache_entries() const { return cache_.size(); }
  uint64_t cache_hits() const { return cache_.hits(); }
  uint64_t cache_misses() const { return cache_.misses(); }
  uint64_t cache_evictions() const { return cache_.evictions(); }
  /// Coherent one-lock snapshot of the result cache counters.
  LruCache<CheckResponse>::Stats cache_stats() const {
    return cache_.stats();
  }

 private:
  /// One queued submission — either a full check (state) or a session
  /// step (step_state); exactly one is non-null. States are created
  /// complete inside Submit/SubmitStep (type-erased deleters), so
  /// holding them through the forward-declared State types is fine.
  struct Job {
    std::shared_ptr<const PreparedQuery> prepared;
    CheckRequest request;
    std::shared_ptr<PendingResult::State> state;
    /// Session-step jobs.
    session::SessionId session_id = 0;
    StepRequest step;
    std::shared_ptr<PendingStep::State> step_state;
    /// Submit time, for the dispatcher queue-wait histogram.
    std::chrono::steady_clock::time_point enqueued;
  };

  void DispatcherLoop();
  /// Cancel token of whichever state a job carries.
  static engine::CancelToken* JobToken(const Job& job);
  /// Arms the deadline, runs the step through the session table and
  /// flattens lookup errors into StepResult::status.
  session::StepResult ExecuteStep(session::SessionId id,
                                  const StepRequest& request,
                                  engine::CancelToken* token);
  /// Result-cache lookup, else RunEngine and cache the answer when it
  /// may be replayed; stamps metrics and elapsed time.
  CheckResponse Execute(const PreparedQuery& prepared,
                        const CheckRequest& request,
                        engine::CancelToken* token);
  /// A full engine search (zero-ary solver, bounded witness search, or
  /// Datalog certification, per routing).
  CheckResponse RunEngine(const PreparedQuery& prepared,
                          const CheckRequest& request,
                          engine::CancelToken* token);

  ServiceOptions options_;
  LruCache<CheckResponse> cache_;

  /// Streaming-session table; lives above the queue members so the
  /// destructor's dispatcher join (which may be mid-step) happens
  /// while the table is still alive.
  session::SessionManager sessions_;

  std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::deque<Job> queue_;
  /// Tokens (with a keep-alive on their owning state) of requests a
  /// dispatcher has popped but not yet fulfilled, so shutdown can fire
  /// them too (a destructor that only cancelled the queue would block
  /// on a running unbounded sweep).
  struct InFlight {
    std::shared_ptr<void> keep;
    engine::CancelToken* token;
  };
  std::vector<InFlight> in_flight_;
  bool stopping_ = false;
  std::vector<std::thread> dispatchers_;
};

}  // namespace service
}  // namespace accltl

#endif  // ACCLTL_SERVICE_ANALYSIS_SERVICE_H_
