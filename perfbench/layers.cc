// Per-layer probes of the traced run: each layer's public entry point is
// called from outside on the workload's own queries, plus a fixed probe
// set that gives every layer something to do on every workload, and
// timed per call. Each call gets a trace span; the spans of one probed
// request share its id as the span argument. The probes' sessions are
// also checked against the naive evaluator, outside the spans.
#include <algorithm>
#include <string>
#include <vector>

#include "perfbench/bench.h"
#include "src/accltl/fragments.h"
#include "src/accltl/parser.h"
#include "src/analysis/zero_solver.h"
#include "src/automata/compile.h"
#include "src/automata/emptiness.h"
#include "src/automata/progressive.h"
#include "src/common/rng.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/oracle/oracle.h"
#include "src/schema/lts.h"
#include "src/service/canonical.h"
#include "src/session/monitored_session.h"
#include "src/workload/workload.h"

namespace perfbench {

namespace acc = accltl::acc;
namespace analysis = accltl::analysis;
namespace automata = accltl::automata;
namespace monitor = accltl::monitor;
namespace obs = accltl::obs;
namespace oracle = accltl::oracle;
namespace schema = accltl::schema;
namespace service = accltl::service;
namespace workload = accltl::workload;

namespace {

/// Requests every workload probes besides its own: a zero-ary query
/// that resolves at the root, an AccLTL+ reveal that the bounded search
/// answers in a few nodes, and an AccLTL+ query the Datalog pipeline
/// certifies.
std::vector<QuerySpec> FixedProbes() {
  workload::PhoneDirectory pd = workload::MakePhoneDirectory();
  const char* texts[] = {
      "F [IsBind_AcM1()]",
      "F [EXISTS n . IsBind_AcM1(n) AND "
      "(EXISTS p,s,ph . Mobile_post(n,p,s,ph))]",
      "F [EXISTS n . IsBind_AcM1(n) AND "
      "(EXISTS p,s,ph . Mobile_post(n,p,s,ph))] AND "
      "G (NOT [EXISTS n,p,s,ph . Mobile_post(n,p,s,ph)])",
  };
  std::vector<QuerySpec> out;
  for (size_t i = 0; i < 3; ++i) {
    QuerySpec q;
    q.schema = pd.schema;
    q.formula = acc::ParseAccFormula(texts[i], pd.schema).value();
    q.options.use_datalog_pipeline = i == 2;
    out.push_back(std::move(q));
  }
  return out;
}

double Us(Clock::time_point start) {
  return std::chrono::duration<double, std::micro>(Clock::now() - start)
      .count();
}

analysis::DecideOptions DecideOptionsFor(const QuerySpec& q, size_t threads) {
  analysis::DecideOptions d;
  d.grounded = q.options.grounded;
  d.use_datalog_pipeline = q.options.use_datalog_pipeline;
  d.shrink_witness = q.options.shrink_witness;
  d.zero = q.options.zero;
  d.bounded = q.options.bounded;
  d.decompose = q.options.decompose;
  d.exec.num_threads = threads;
  d.exec.visited_mode = q.visited_mode;
  return d;
}

struct Samples {
  std::map<std::string, std::vector<double>> us;
  void Add(const std::string& name, double v) { us[name].push_back(v); }
};

}  // namespace

void ProbeLayers(const Workload& w, uint64_t seed, double seconds,
                 LayerMetrics* out, CheckReport* check) {
  std::vector<const QuerySpec*> probes;
  for (const QuerySpec& q : w.queries) probes.push_back(&q);
  std::vector<QuerySpec> fixed = FixedProbes();
  // The fixed probes are interleaved so each is reached early.
  for (size_t i = 0; i < fixed.size(); ++i) {
    probes.insert(probes.begin() + std::min(probes.size(), i * 7), &fixed[i]);
  }
  // The sessions of the first kCheckedSessions probes are compared with
  // oracle::NaiveEvalOnPath after every kOracleEvery-th step, when the
  // naive evaluation is affordable (NaiveEvalCost).
  constexpr size_t kCheckedSessions = 64;
  constexpr size_t kOracleEvery = 8;
  constexpr double kMaxNaiveCost = 2e6;

  service::ServiceOptions sopts;
  sopts.num_threads = w.search_threads;
  sopts.num_dispatchers = 2;
  service::AnalysisService svc(sopts);
  accltl::Rng rng(seed ^ 0x5eedULL);
  Samples s;
  size_t live_steps = 0, total_steps = 0;
  uint64_t lts_calls = 0;
  auto& reg = obs::Registry::Get();
  uint64_t lts_before = reg.counter("schema.lts.transitions")->Value();

  Clock::time_point start = Clock::now();
  for (size_t n = 0; SecondsSince(start) < seconds || n < fixed.size() * 7;
       ++n) {
    const QuerySpec& q = *probes[n % probes.size()];
    int64_t id = static_cast<int64_t>(n);
    obs::Span request_span("probe.request", id);
    std::string text = q.formula->ToString(q.schema);
    Clock::time_point t = Clock::now();

    acc::AccPtr f;
    {
      obs::Span span("probe.accltl.parse", id);
      t = Clock::now();
      accltl::Result<acc::AccPtr> parsed = acc::ParseAccFormula(text, q.schema);
      s.Add("accltl.parse_us", Us(t));
      f = parsed.ok() ? parsed.value() : q.formula;
    }
    {
      obs::Span span("probe.accltl.classify", id);
      t = Clock::now();
      volatile acc::Fragment fragment = acc::Analyze(f).Classify();
      (void)fragment;
      s.Add("accltl.classify_us", Us(t));
    }
    accltl::Result<analysis::PreparedFormula> prepared = [&]() {
      obs::Span span("probe.analysis.prepare", id);
      Clock::time_point t0 = Clock::now();
      auto r = analysis::PrepareSatisfiability(f, q.schema);
      s.Add("analysis.prepare_us", Us(t0));
      return r;
    }();
    if (!prepared.ok()) continue;
    const analysis::PreparedFormula& pf = prepared.value();
    if (pf.zero_plan != nullptr) {
      obs::Span span("probe.analysis.zero.plan", id);
      t = Clock::now();
      auto plan = analysis::PrepareZeroAry(f, q.schema);
      s.Add("analysis.zero.plan_us", Us(t));
    } else if (pf.automaton != nullptr) {
      obs::Span span("probe.automata.compile", id);
      t = Clock::now();
      auto a = automata::CompileToAutomaton(f, q.schema);
      s.Add("automata.compile_us", Us(t));
    }
    std::shared_ptr<const service::PreparedQuery> pq;
    {
      obs::Span span("probe.service.prepare", id);
      t = Clock::now();
      auto r = svc.Prepare(q.schema, f, q.options);
      s.Add("service.prepare_us", Us(t));
      if (!r.ok()) continue;
      pq = r.value();
    }
    {
      obs::Span span("probe.service.canonical_key", id);
      t = Clock::now();
      service::CanonicalRequestKey key =
          service::MakeCanonicalRequestKey(q.schema, f, q.options);
      s.Add("service.canonical_key_us", Us(t));
    }

    // Decide and Check alternate twice on the same request; the
    // overhead is the gap between their faster runs.
    analysis::DecideOptions dopts = DecideOptionsFor(q, w.search_threads);
    service::CheckRequest check_req = RequestFor(w, q);
    check_req.use_cache = false;
    double decide_us = 1e300, check_us = 1e300;
    for (int rep = 0; rep < 2; ++rep) {
      {
        obs::Span span("probe.analysis.decide", id);
        t = Clock::now();
        auto d = analysis::DecidePrepared(pf, q.schema, dopts);
        decide_us = std::min(decide_us, Us(t));
      }
      {
        obs::Span span("probe.service.check", id);
        t = Clock::now();
        svc.Check(*pq, check_req);
        check_us = std::min(check_us, Us(t));
      }
    }
    s.Add("analysis.decide_us", decide_us);
    s.Add("service.check_overhead_us", check_us - decide_us);
    if (pf.zero_plan != nullptr) {
      analysis::ZeroSolverOptions zopts = q.options.zero;
      zopts.grounded = q.options.grounded;
      obs::Span span("probe.analysis.zero.check", id);
      t = Clock::now();
      auto r = analysis::CheckZeroAryPrepared(*pf.zero_plan, q.schema, zopts,
                                              dopts.exec);
      double us = Us(t);
      size_t nodes = r.ok() ? r.value().nodes_explored : 0;
      s.Add("analysis.zero.check_us", us);
      s.Add("analysis.zero.nodes", static_cast<double>(nodes));
      s.Add("analysis.zero.us_per_node", us / std::max<size_t>(1, nodes));
      if (nodes <= 2) s.Add("engine.empty_search_us", us);
    } else if (pf.automaton != nullptr) {
      automata::WitnessSearchOptions wopts = q.options.bounded;
      wopts.grounded = q.options.grounded;
      automata::WitnessSearchResult r;
      {
        obs::Span span("probe.automata.search", id);
        t = Clock::now();
        r = automata::BoundedWitnessSearch(*pf.automaton, q.schema,
                                           schema::Instance(q.schema), wopts,
                                           dopts.exec);
      }
      double us = Us(t);
      s.Add("automata.search_us", us);
      s.Add("automata.search.nodes", static_cast<double>(r.nodes_explored));
      s.Add("automata.search.us_per_node",
            us / std::max<size_t>(1, r.nodes_explored));
      if (r.nodes_explored <= 2) s.Add("engine.empty_search_us", us);
      if (q.options.use_datalog_pipeline && !q.options.grounded) {
        obs::Span span("probe.datalog.certify", id);
        t = Clock::now();
        auto e = automata::EmptinessViaDatalog(*pf.automaton, q.schema,
                                               q.options.decompose);
        s.Add("datalog.certify_us", Us(t));
      }
    }
    {
      // A cached request: the first Check fills the LRU, the second hits.
      service::CheckRequest req = RequestFor(w, q);
      req.use_cache = true;
      svc.Check(*pq, req);
      obs::Span span("probe.service.hit", id);
      t = Clock::now();
      svc.Check(*pq, req);
      s.Add("service.hit_us", Us(t));
    }

    // Session vs monitor: the same random stream on a service session
    // and on a standalone twin; the gap is the session table's overhead.
    {
      schema::Instance universe =
          workload::RandomInstance(&rng, q.schema, 8, 4);
      // Only the steps a session accepts: the generator's bindings and
      // responses ignore position types and result bounds.
      schema::AccessPath generated =
          workload::RandomAccessStream(&rng, q.schema, universe, 16);
      schema::AccessPath stream;
      for (const schema::AccessStep& step : generated.steps()) {
        if (schema::AccessPath({step}).Validate(q.schema).ok()) {
          stream.Append(step);
        }
      }
      auto sid = svc.OpenSession(pq);
      accltl::session::MonitoredSession twin(pf, q.schema,
                                             schema::Instance(q.schema));
      bool checked = n < kCheckedSessions &&
                     NaiveEvalCost(q, stream) <= kMaxNaiveCost;
      bool automaton =
          twin.backend() == accltl::session::Backend::kAutomaton;
      bool violated = false;
      schema::AccessPath prefix;
      if (!sid.ok()) {
        check->problems.push_back("probe " + std::to_string(n) +
                                  ": OpenSession failed: " +
                                  sid.status().ToString());
      } else {
        for (const schema::AccessStep& step : stream.steps()) {
          service::StepRequest req;
          req.access = step.access;
          req.response = step.response;
          live_steps += !monitor::IsFinal(twin.verdict());
          ++total_steps;
          accltl::session::StepResult r;
          {
            obs::Span span("probe.session.step", id);
            t = Clock::now();
            r = svc.StepSession(sid.value(), req);
            s.Add("session.step_us", Us(t));
          }
          {
            obs::Span span("probe.monitor.step", id);
            t = Clock::now();
            twin.Step(step.access, step.response);
            s.Add("monitor.step_us", Us(t));
          }
          if (!r.status.ok()) {
            check->problems.push_back("probe " + std::to_string(n) +
                                      ": session rejected a valid step: " +
                                      r.status.ToString());
            break;
          }
          if (!checked) continue;
          violated = violated || r.verdict == monitor::Verdict::kViolated;
          prefix.Append(step);
          if (prefix.size() % kOracleEvery != 0) continue;
          ++check->session_prefixes_checked;
          bool holds = oracle::NaiveEvalOnPath(q.formula, q.schema, prefix,
                                               schema::Instance(q.schema));
          // Progression verdicts are exact prefix satisfaction. The
          // A-automaton monitor's are not; it never claims kSatisfied,
          // and once it reports kViolated no longer prefix satisfies the
          // formula.
          bool agrees = automaton
                            ? r.verdict != monitor::Verdict::kSatisfied &&
                                  !(violated && holds)
                            : r.currently_holds == holds;
          if (!agrees) {
            check->problems.push_back(
                "probe " + std::to_string(n) + ": " +
                accltl::session::BackendName(twin.backend()) +
                " session verdict disagrees with the naive evaluator after " +
                std::to_string(prefix.size()) + " steps");
          }
        }
        svc.CloseSession(sid.value());
      }
    }

    // LTS exploration over a small hidden universe (the schema layer's
    // own public entry point; no workload request reaches it). Two
    // workers, so every workload also runs level-synchronous barriers.
    if (n % 4 == 0) {
      schema::LtsOptions lopts;
      lopts.universe = workload::RandomInstance(&rng, q.schema, 4, 3);
      accltl::engine::ExecOptions exec;
      exec.num_threads = 2;
      obs::Span span("probe.schema.lts", id);
      t = Clock::now();
      schema::ExploreBreadthFirst(q.schema, schema::Instance(q.schema), lopts,
                                  2, 2000, exec);
      s.Add("schema.lts.explore_us", Us(t));
      ++lts_calls;
    }

    // A burst of Submits through the dispatcher queue, so queue wait is
    // measured on every workload.
    if (n % 16 == 0) {
      obs::Span span("probe.service.submit_burst", id);
      std::vector<service::PendingResult> burst;
      for (int i = 0; i < 16; ++i) {
        service::CheckRequest req = RequestFor(w, q);
        req.use_cache = false;
        burst.push_back(svc.Submit(pq, req));
      }
      for (const service::PendingResult& p : burst) p.Get();
    }
  }

  for (auto& [name, v] : s.us) {
    bool count = name.find(".nodes") != std::string::npos;
    (*out)[name] = {Percentile(v, 0.5), count ? "count" : "us"};
  }
  uint64_t transitions =
      reg.counter("schema.lts.transitions")->Value() - lts_before;
  (*out)["schema.lts.transitions"] = {
      lts_calls > 0 ? static_cast<double>(transitions) / lts_calls : 0,
      "count/call"};
  (*out)["session.live_share"] = {
      total_steps > 0 ? static_cast<double>(live_steps) / total_steps : 0,
      "ratio"};
}

}  // namespace perfbench
