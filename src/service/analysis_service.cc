#include "src/service/analysis_service.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "src/accltl/parser.h"
#include "src/obs/trace.h"

namespace accltl {
namespace service {

namespace {

/// Service-layer instruments (write-only; DESIGN.md §8). Latency and
/// queue-wait clocks reuse timestamps the service already takes for
/// CheckResponse::elapsed, so metrics-off skips no code path but the
/// relaxed increments themselves.
struct ServiceMetrics {
  obs::Counter* requests;
  obs::Counter* cache_hits;
  obs::Counter* cache_misses;
  obs::Counter* cache_evictions;
  obs::Counter* deadline_exceeded;
  obs::Counter* cancelled;
  obs::Counter* errors;
  obs::Gauge* queue_depth;
  obs::Histogram* latency_us;
  obs::Histogram* queue_wait_us;
  obs::Histogram* deadline_overshoot_us;
  static const ServiceMetrics& Get() {
    obs::Registry& r = obs::Registry::Get();
    static const ServiceMetrics m{
        r.counter("service.requests"),
        r.counter("service.cache.hits"),
        r.counter("service.cache.misses"),
        r.counter("service.cache.evictions"),
        r.counter("service.deadline_exceeded"),
        r.counter("service.cancelled"),
        r.counter("service.errors"),
        r.gauge("service.queue_depth"),
        r.histogram("service.latency_us"),
        r.histogram("service.queue_wait_us"),
        r.histogram("service.deadline_overshoot_us"),
    };
    return m;
  }
};

}  // namespace

obs::MetricsSnapshot MetricsSnapshot() {
  return obs::Registry::Get().Snapshot();
}

// --- PendingResult ----------------------------------------------------------

struct PendingResult::State {
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  CheckResponse response;
  /// The request's cooperative stop: owned here so Cancel works on a
  /// queued request (before any engine sees the token) and the token
  /// outlives the search that polls it.
  engine::CancelToken token;

  void Fulfill(CheckResponse resp) {
    {
      std::lock_guard<std::mutex> lock(mu);
      response = std::move(resp);
      done = true;
    }
    cv.notify_all();
  }
};

PendingResult::PendingResult() = default;
PendingResult::~PendingResult() = default;
PendingResult::PendingResult(const PendingResult&) = default;
PendingResult& PendingResult::operator=(const PendingResult&) = default;
PendingResult::PendingResult(PendingResult&&) noexcept = default;
PendingResult& PendingResult::operator=(PendingResult&&) noexcept = default;
PendingResult::PendingResult(std::shared_ptr<State> state)
    : state_(std::move(state)) {}

bool PendingResult::valid() const { return state_ != nullptr; }

bool PendingResult::ready() const {
  if (state_ == nullptr) return false;
  std::lock_guard<std::mutex> lock(state_->mu);
  return state_->done;
}

const CheckResponse& PendingResult::Get() const {
  if (state_ == nullptr) {
    // A default-constructed (invalid) handle has nothing to wait on;
    // answer with a latched error instead of dereferencing null.
    static const CheckResponse* kInvalid = [] {
      auto* resp = new CheckResponse();
      resp->status = Status::Internal("Get() on an invalid PendingResult");
      return resp;
    }();
    return *kInvalid;
  }
  std::unique_lock<std::mutex> lock(state_->mu);
  state_->cv.wait(lock, [this] { return state_->done; });
  return state_->response;
}

bool PendingResult::WaitFor(std::chrono::milliseconds timeout) const {
  if (state_ == nullptr) return false;
  std::unique_lock<std::mutex> lock(state_->mu);
  return state_->cv.wait_for(lock, timeout,
                             [this] { return state_->done; });
}

void PendingResult::Cancel() const {
  if (state_ != nullptr) state_->token.Cancel();
}

// --- PendingStep ------------------------------------------------------------

struct PendingStep::State {
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  session::StepResult result;
  /// The step's cooperative stop: owned here so Cancel works on a
  /// queued step and the token outlives the monitor advance polling it.
  engine::CancelToken token;

  void Fulfill(session::StepResult r) {
    {
      std::lock_guard<std::mutex> lock(mu);
      result = std::move(r);
      done = true;
    }
    cv.notify_all();
  }
};

PendingStep::PendingStep() = default;
PendingStep::~PendingStep() = default;
PendingStep::PendingStep(const PendingStep&) = default;
PendingStep& PendingStep::operator=(const PendingStep&) = default;
PendingStep::PendingStep(PendingStep&&) noexcept = default;
PendingStep& PendingStep::operator=(PendingStep&&) noexcept = default;
PendingStep::PendingStep(std::shared_ptr<State> state)
    : state_(std::move(state)) {}

bool PendingStep::valid() const { return state_ != nullptr; }

bool PendingStep::ready() const {
  if (state_ == nullptr) return false;
  std::lock_guard<std::mutex> lock(state_->mu);
  return state_->done;
}

const session::StepResult& PendingStep::Get() const {
  if (state_ == nullptr) {
    static const session::StepResult* kInvalid = [] {
      auto* r = new session::StepResult();
      r->status = Status::Internal("Get() on an invalid PendingStep");
      return r;
    }();
    return *kInvalid;
  }
  std::unique_lock<std::mutex> lock(state_->mu);
  state_->cv.wait(lock, [this] { return state_->done; });
  return state_->result;
}

bool PendingStep::WaitFor(std::chrono::milliseconds timeout) const {
  if (state_ == nullptr) return false;
  std::unique_lock<std::mutex> lock(state_->mu);
  return state_->cv.wait_for(lock, timeout, [this] { return state_->done; });
}

void PendingStep::Cancel() const {
  if (state_ != nullptr) state_->token.Cancel();
}

// --- AnalysisService --------------------------------------------------------

const char* VerdictName(Verdict v) {
  switch (v) {
    case Verdict::kCompleted:
      return "completed";
    case Verdict::kDeadlineExceeded:
      return "deadline-exceeded";
    case Verdict::kCancelled:
      return "cancelled";
  }
  return "?";
}

namespace {

/// True when a response is safe to replay for a request with the same
/// cache key: completed (not deadline-cut, not cancelled) and
/// budget-clean. A deadline/cancel cut is a property of one request's
/// execution, and a budget-exhausted answer is the one case the
/// engines' determinism guarantee scopes out (a binding max_nodes is
/// spent on different node orders per traversal discipline, so another
/// worker count might legitimately answer differently).
bool TransferableResponse(const CheckResponse& response) {
  return response.status.ok() && response.verdict == Verdict::kCompleted &&
         !response.decision.exhausted_budget && !response.decision.cancelled;
}

analysis::DecideOptions ToDecideOptions(const PrepareOptions& o) {
  analysis::DecideOptions d;
  d.grounded = o.grounded;
  d.use_datalog_pipeline = o.use_datalog_pipeline;
  d.shrink_witness = o.shrink_witness;
  d.zero = o.zero;
  d.bounded = o.bounded;
  d.decompose = o.decompose;
  return d;
}

}  // namespace

AnalysisService::AnalysisService(ServiceOptions options)
    : options_(options),
      cache_(options.cache_capacity),
      sessions_(options.session) {
  size_t dispatchers = std::max<size_t>(1, options_.num_dispatchers);
  dispatchers_.reserve(dispatchers);
  for (size_t i = 0; i < dispatchers; ++i) {
    dispatchers_.emplace_back([this] { DispatcherLoop(); });
  }
}

AnalysisService::~AnalysisService() {
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    stopping_ = true;
    // Queued requests resolve promptly as kCancelled without
    // searching; in-flight ones abort at their next node expansion and
    // resolve as kCancelled too — the join below is bounded by one
    // cancellation latency, not by the remaining search time.
    for (Job& job : queue_) JobToken(job)->Cancel();
    for (const InFlight& inf : in_flight_) inf.token->Cancel();
  }
  queue_cv_.notify_all();
  for (std::thread& t : dispatchers_) t.join();
}

Result<std::shared_ptr<const PreparedQuery>> AnalysisService::Prepare(
    const schema::Schema& schema, const acc::AccPtr& formula,
    const PrepareOptions& options) {
  obs::Span span("prepare");
  std::shared_ptr<PreparedQuery> prepared(new PreparedQuery());
  prepared->schema_ = schema;
  Result<analysis::PreparedFormula> pf =
      analysis::PrepareSatisfiability(formula, prepared->schema_);
  if (!pf.ok()) return pf.status();
  prepared->prepared_ = std::move(pf.value());
  prepared->options_ = options;
  prepared->cache_key_ =
      MakeCanonicalRequestKey(prepared->schema_, formula, options).Joined();
  return std::shared_ptr<const PreparedQuery>(std::move(prepared));
}

Result<std::shared_ptr<const PreparedQuery>> AnalysisService::Prepare(
    const schema::Schema& schema, const std::string& formula_text,
    const PrepareOptions& options) {
  Result<acc::AccPtr> formula = acc::ParseAccFormula(formula_text, schema);
  if (!formula.ok()) return formula.status();
  return Prepare(schema, formula.value(), options);
}

CheckResponse AnalysisService::Check(const PreparedQuery& prepared,
                                     const CheckRequest& request) {
  engine::CancelToken token;
  return Execute(prepared, request, &token);
}

PendingResult AnalysisService::Submit(
    std::shared_ptr<const PreparedQuery> prepared, CheckRequest request) {
  auto state = std::make_shared<PendingResult::State>();
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    if (stopping_) {
      // Post-shutdown submissions resolve immediately as cancelled
      // rather than hanging a Get() forever.
      state->token.Cancel();
      CheckResponse resp;
      resp.verdict = Verdict::kCancelled;
      state->Fulfill(std::move(resp));
      return PendingResult(state);
    }
    Job job;
    job.prepared = std::move(prepared);
    job.request = request;
    job.state = state;
    job.enqueued = std::chrono::steady_clock::now();
    queue_.push_back(std::move(job));
    ServiceMetrics::Get().queue_depth->Add(1);
  }
  queue_cv_.notify_one();
  return PendingResult(std::move(state));
}

engine::CancelToken* AnalysisService::JobToken(const Job& job) {
  return job.step_state != nullptr ? &job.step_state->token
                                   : &job.state->token;
}

void AnalysisService::DispatcherLoop() {
  obs::SetThreadLane("dispatcher");
  const ServiceMetrics& metrics = ServiceMetrics::Get();
  for (;;) {
    Job job;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and drained
      job = std::move(queue_.front());
      queue_.pop_front();
      metrics.queue_depth->Add(-1);
      in_flight_.push_back(InFlight{
          job.step_state != nullptr
              ? std::static_pointer_cast<void>(job.step_state)
              : std::static_pointer_cast<void>(job.state),
          JobToken(job)});
    }
    if (obs::MetricsEnabled()) {
      metrics.queue_wait_us->Record(static_cast<uint64_t>(
          std::max<int64_t>(
              0, std::chrono::duration_cast<std::chrono::microseconds>(
                     std::chrono::steady_clock::now() - job.enqueued)
                     .count())));
    }
    if (job.step_state != nullptr) {
      if (job.step_state->token.fired()) {
        // Cancelled while queued: the session is untouched; report its
        // current (still-correct) verdict alongside the cancel.
        session::StepResult r;
        r.status = Status::ResourceExhausted("step cancelled");
        r.deadline_exceeded = true;
        Result<session::SessionInfo> info =
            sessions_.Describe(job.session_id);
        if (info.ok()) {
          r.verdict = info.value().verdict;
          r.is_final = monitor::IsFinal(r.verdict);
          r.currently_holds = info.value().currently_holds;
          r.steps = info.value().steps;
        }
        job.step_state->Fulfill(std::move(r));
      } else {
        job.step_state->Fulfill(ExecuteStep(job.session_id, job.step,
                                            &job.step_state->token));
      }
    } else if (job.state->token.fired()) {
      // Cancelled while queued: answer without searching.
      CheckResponse resp;
      resp.verdict = Verdict::kCancelled;
      job.state->Fulfill(std::move(resp));
    } else {
      job.state->Fulfill(
          Execute(*job.prepared, job.request, &job.state->token));
    }
    {
      std::lock_guard<std::mutex> lock(queue_mu_);
      engine::CancelToken* token = JobToken(job);
      for (size_t i = 0; i < in_flight_.size(); ++i) {
        if (in_flight_[i].token == token) {
          in_flight_[i] = in_flight_.back();
          in_flight_.pop_back();
          break;
        }
      }
    }
  }
}

CheckResponse AnalysisService::Execute(const PreparedQuery& prepared,
                                       const CheckRequest& request,
                                       engine::CancelToken* token) {
  const ServiceMetrics& metrics = ServiceMetrics::Get();
  obs::Span request_span("request");
  auto start = std::chrono::steady_clock::now();
  auto stamp = [&](CheckResponse* resp) {
    resp->elapsed = std::chrono::duration_cast<std::chrono::microseconds>(
        std::chrono::steady_clock::now() - start);
    // Telemetry derived from timestamps the response carries anyway;
    // all increments are relaxed write-only atomics.
    metrics.requests->Inc();
    metrics.latency_us->Record(static_cast<uint64_t>(resp->elapsed.count()));
    if (!resp->status.ok()) metrics.errors->Inc();
    switch (resp->verdict) {
      case Verdict::kDeadlineExceeded:
        metrics.deadline_exceeded->Inc();
        metrics.deadline_overshoot_us->Record(static_cast<uint64_t>(
            std::max<int64_t>(0, resp->elapsed.count() -
                                     std::chrono::duration_cast<
                                         std::chrono::microseconds>(
                                         request.deadline)
                                         .count())));
        break;
      case Verdict::kCancelled:
        metrics.cancelled->Inc();
        break;
      case Verdict::kCompleted:
        break;
    }
  };

  if (request.use_cache) {
    CheckResponse hit;
    if (cache_.Lookup(prepared.cache_key(), &hit)) {
      metrics.cache_hits->Inc();
      hit.cache_hit = true;
      stamp(&hit);
      return hit;
    }
    metrics.cache_misses->Inc();
  }
  CheckResponse resp = RunEngine(prepared, request, token);
  if (request.use_cache && TransferableResponse(resp)) {
    size_t evicted = cache_.Insert(prepared.cache_key(), resp);
    if (evicted > 0) metrics.cache_evictions->Inc(evicted);
  }
  stamp(&resp);
  return resp;
}

CheckResponse AnalysisService::RunEngine(const PreparedQuery& prepared,
                                         const CheckRequest& request,
                                         engine::CancelToken* token) {
  CheckResponse resp;
  if (request.deadline.count() > 0 && token != nullptr) {
    token->ArmDeadlineAfter(request.deadline);
  }

  analysis::DecideOptions opts = ToDecideOptions(prepared.options_);
  opts.exec.num_threads =
      request.num_threads > 0 ? request.num_threads : options_.num_threads;
  opts.exec.cancel = token;
  opts.exec.visited_mode = request.visited_mode;
  opts.exec.max_visited_bytes = request.max_visited_bytes;

  Result<analysis::Decision> d =
      analysis::DecidePrepared(prepared.prepared_, prepared.schema(), opts);
  if (!d.ok()) {
    resp.status = d.status();
    return resp;
  }
  resp.decision = d.value();
  if (resp.decision.cancelled && token != nullptr) {
    resp.verdict = token->cause() == engine::CancelToken::Cause::kDeadline
                       ? Verdict::kDeadlineExceeded
                       : Verdict::kCancelled;
  }
  return resp;
}

// --- Streaming sessions -----------------------------------------------------

Result<session::SessionId> AnalysisService::OpenSession(
    std::shared_ptr<const PreparedQuery> prepared, schema::Instance initial) {
  if (prepared == nullptr) {
    return Status::InvalidArgument("OpenSession on a null prepared query");
  }
  const PreparedQuery& q = *prepared;
  // The owner handle pins the prepared query — and with it the schema
  // the monitor references by address — for the session's lifetime.
  return sessions_.Open(q.prepared_, q.schema(), std::move(initial),
                        std::shared_ptr<const void>(std::move(prepared)));
}

Result<session::SessionId> AnalysisService::OpenSession(
    std::shared_ptr<const PreparedQuery> prepared) {
  if (prepared == nullptr) {
    return Status::InvalidArgument("OpenSession on a null prepared query");
  }
  schema::Instance initial(prepared->schema());
  return OpenSession(std::move(prepared), std::move(initial));
}

session::StepResult AnalysisService::ExecuteStep(
    session::SessionId id, const StepRequest& request,
    engine::CancelToken* token) {
  if (request.deadline.count() > 0 && token != nullptr) {
    token->ArmDeadlineAfter(request.deadline);
  }
  Result<session::StepResult> r =
      sessions_.Step(id, request.access, request.response, token);
  if (!r.ok()) {
    session::StepResult out;
    out.status = r.status();
    return out;
  }
  return r.value();
}

session::StepResult AnalysisService::StepSession(session::SessionId id,
                                                 const StepRequest& request) {
  engine::CancelToken token;
  return ExecuteStep(id, request, &token);
}

PendingStep AnalysisService::SubmitStep(session::SessionId id,
                                        StepRequest request) {
  auto state = std::make_shared<PendingStep::State>();
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    if (stopping_) {
      // Post-shutdown steps resolve immediately rather than hanging a
      // Get() forever; the session was untouched.
      state->token.Cancel();
      session::StepResult r;
      r.status = Status::ResourceExhausted("service shutting down");
      r.deadline_exceeded = true;
      state->Fulfill(std::move(r));
      return PendingStep(state);
    }
    Job job;
    job.session_id = id;
    job.step = std::move(request);
    job.step_state = state;
    job.enqueued = std::chrono::steady_clock::now();
    queue_.push_back(std::move(job));
    ServiceMetrics::Get().queue_depth->Add(1);
  }
  queue_cv_.notify_one();
  return PendingStep(std::move(state));
}

Result<session::SessionInfo> AnalysisService::CloseSession(
    session::SessionId id) {
  return sessions_.Close(id);
}

Result<session::SessionInfo> AnalysisService::DescribeSession(
    session::SessionId id) const {
  return sessions_.Describe(id);
}

size_t AnalysisService::ExpireIdleSessions() { return sessions_.ExpireIdle(); }

size_t AnalysisService::live_sessions() const {
  return sessions_.live_sessions();
}

}  // namespace service
}  // namespace accltl
