// The benchmark program: generates one workload's inputs from the seed,
// sets up an AnalysisService (several times, to time set-up), runs the
// closed-loop timed phase through the service's public front door,
// checks every answer independently, and prints the metrics. With
// --trace 1 it also runs a traced phase and the per-layer probes, and
// writes a Perfetto-loadable trace. run.py builds and invokes it.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--tiny] [--trace-out FILE]
//
// The last line of standard output is one JSON object (see run.py).
#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "perfbench/bench.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace perfbench {
namespace {

namespace analysis = accltl::analysis;
namespace obs = accltl::obs;
namespace schema = accltl::schema;
namespace service = accltl::service;

// --- Statistics ---------------------------------------------------------------

double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }

/// Per step of a repeated procedure, the fastest time any repetition
/// took for it. Contention on a shared host only ever slows a step down,
/// so the sum of the fastest times estimates the uncontended time of the
/// whole procedure.
class FastestSteps {
 public:
  void Add(const std::vector<double>& step_s) {
    if (fastest_.empty()) fastest_ = step_s;
    for (size_t i = 0; i < fastest_.size() && i < step_s.size(); ++i) {
      fastest_[i] = std::min(fastest_[i], step_s[i]);
    }
  }
  double Sum() const {
    double sum = 0;
    for (double s : fastest_) sum += s;
    return sum;
  }

 private:
  std::vector<double> fastest_;
};

/// Returns freed heap to the kernel and resets the process's peak
/// resident set size to its current size, so that PeakRssMb covers only
/// what runs afterwards (set-up and the timed phase), not input
/// generation and the reference checks.
void ResetPeakRss() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

/// Peak resident set size since ResetPeakRss, in MB (VmHWM; the
/// process-lifetime ru_maxrss where /proc is not available).
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// --- Set-up -------------------------------------------------------------------

/// Moves the calling (client) thread to the next allowed CPU on each
/// Next(): once per set-up and once per pass of the timed phase. On a
/// shared host, a CPU whose hardware sibling another tenant keeps busy
/// runs up to 1.5x slower for minutes at a time, and a thread the
/// scheduler leaves there makes a whole run slow; visiting every CPU
/// keeps the estimators that favour fast repetitions (FastestSteps,
/// OverOpPositions) from resting on one slow CPU. Threads created while
/// a CPU is pinned would inherit it, so a rotation only lives around
/// code that starts no threads; the original mask is restored on
/// destruction.
class CpuRotation {
 public:
  CpuRotation() {
    CPU_ZERO(&original_);
    if (sched_getaffinity(0, sizeof(original_), &original_) != 0) return;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &original_)) cpus_.push_back(c);
    }
  }
  ~CpuRotation() { Release(); }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  /// Lets the thread run on every allowed CPU again.
  void Release() {
    if (cpus_.size() > 1) sched_setaffinity(0, sizeof(original_), &original_);
  }

  void Next() {
    if (cpus_.size() < 2) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[next_++ % cpus_.size()], &one);
    sched_setaffinity(0, sizeof(one), &one);
  }

 private:
  cpu_set_t original_;
  std::vector<int> cpus_;
  size_t next_ = 0;
};


/// A service with every query of the workload prepared: the state the
/// timed phase runs against.
struct Fixture {
  std::unique_ptr<service::AnalysisService> svc;
  std::vector<std::shared_ptr<const service::PreparedQuery>> prepared;
};

/// Whether an op answered OK, completed, and agreed with the reference
/// answer (its witness is compared separately, see PhaseResult).
bool AnswerOk(const service::CheckResponse& r, const QuerySpec& q) {
  return r.status.ok() && r.verdict == service::Verdict::kCompleted &&
         r.decision.satisfiable == q.reference.satisfiable &&
         r.decision.has_witness == q.reference.has_witness;
}

bool SameWitness(const schema::AccessPath& a, const schema::AccessPath& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!(a.step(i).access == b.step(i).access) ||
        a.step(i).response != b.step(i).response) {
      return false;
    }
  }
  return true;
}

/// One set-up: the service, unpinned so its dispatcher threads may run
/// anywhere, then every Prepare and the warm-up on the next CPU of
/// `rotation`. `step_s` receives the time of each step: the service's
/// construction, each Prepare, each warm-up Check.
std::unique_ptr<Fixture> SetUp(const Workload& w, CpuRotation* rotation,
                               std::vector<double>* step_s) {
  auto fx = std::make_unique<Fixture>();
  service::ServiceOptions options;
  options.num_threads = w.search_threads;
  options.num_dispatchers = w.dispatchers;
  step_s->clear();
  rotation->Release();
  Clock::time_point t = Clock::now();
  fx->svc = std::make_unique<service::AnalysisService>(options);
  step_s->push_back(SecondsSince(t));
  rotation->Next();
  for (const QuerySpec& q : w.queries) {
    t = Clock::now();
    auto p = fx->svc->Prepare(q.schema, q.formula, q.options);
    step_s->push_back(SecondsSince(t));
    if (!p.ok()) {
      std::fprintf(stderr, "perfbench: Prepare failed: %s\n",
                   p.status().ToString().c_str());
      std::exit(3);
    }
    fx->prepared.push_back(p.value());
  }
  for (uint32_t qi : w.warmup) {
    t = Clock::now();
    fx->svc->Check(*fx->prepared[qi], RequestFor(w, w.queries[qi]));
    step_s->push_back(SecondsSince(t));
  }
  return fx;
}

// --- Timed phase --------------------------------------------------------------

/// A kYes witness of the timed phase that differs from the reference
/// witness, and how many ops returned it; it is checked independently
/// after the phase (RecheckWitnesses).
struct OtherWitness {
  uint32_t query = 0;
  schema::AccessPath witness;
  size_t ops = 0;
};

struct PhaseResult {
  /// Per-op latency. A deque of floats grows in small chunks, never by
  /// copying the whole record, so the benchmark's own memory adds a
  /// smooth 4 bytes per op to peak_rss_mb (a vector of doubles doubling
  /// past 2^19 ops once added 4 MB to some service-traffic runs and not
  /// to others).
  std::deque<float> latency_us;
  /// The op cursor of latency_us[0]: op i of the phase is position
  /// (first_op + i) % cycle size of the op cycle.
  size_t first_op = 0;
  size_t passes = 0;
  size_t ops = 0;
  size_t ok = 0;
  /// Keyed by query and the witness's step keys; one entry per distinct
  /// witness, so the map stays small however many ops return it.
  std::map<std::pair<uint32_t, std::string>, OtherWitness> other_witnesses;
  double wall_s = 0;
};

/// Runs ops for `seconds` (then to the end of the current pass).
/// `traced` wraps every op in a span whose argument is the op number. An
/// op on a query marked in `bad` -- its reference failed the independent
/// check -- counts as failed however the service answered. A kYes
/// witness equal to the reference's counts as OK at once; another one is
/// set aside for RecheckWitnesses.
PhaseResult RunPhase(const Workload& w, Fixture* fx,
                     const std::vector<char>& bad, double seconds,
                     bool traced, size_t* cursor) {
  PhaseResult out;
  out.first_op = *cursor;
  auto record = [&](const service::CheckResponse& r, uint32_t qi) {
    const QuerySpec& q = w.queries[qi];
    if (!AnswerOk(r, q) || bad[qi]) return;
    if (!r.decision.has_witness ||
        SameWitness(r.decision.witness, q.reference.witness)) {
      ++out.ok;
      return;
    }
    std::string key;
    for (const schema::AccessStep& step : r.decision.witness.steps()) {
      key += schema::StepOrderKey(step);
    }
    OtherWitness& other = out.other_witnesses[{qi, key}];
    if (other.ops++ == 0) {
      other.query = qi;
      other.witness = r.decision.witness;
    }
  };
  // After each pass over the op cycle the client moves to the next
  // CPU after each.
  size_t pass_len = std::max<size_t>(1, w.cycle.size());
  CpuRotation rotation;
  rotation.Next();
  Clock::time_point start = Clock::now();
  size_t pass_ops = 0;
  auto end_pass = [&]() {
    ++out.passes;
    pass_ops = 0;
    rotation.Next();
  };
  auto done = [&](Clock::time_point now) {
    return pass_ops == 0 &&
           std::chrono::duration<double>(now - start).count() >= seconds;
  };

  if (w.kind == Kind::kSyncCheck) {
    for (;;) {
      uint32_t qi = w.cycle[*cursor % w.cycle.size()];
      const QuerySpec& q = w.queries[qi];
      service::CheckRequest req = RequestFor(w, q);
      Clock::time_point t0 = Clock::now();
      service::CheckResponse r;
      if (traced) {
        obs::Span span("bench.check", static_cast<int64_t>(*cursor));
        r = fx->svc->Check(*fx->prepared[qi], req);
      } else {
        r = fx->svc->Check(*fx->prepared[qi], req);
      }
      Clock::time_point t1 = Clock::now();
      ++*cursor;
      out.latency_us.push_back(
          std::chrono::duration<float, std::micro>(t1 - t0).count());
      record(r, qi);
      ++out.ops;
      if (++pass_ops == pass_len) end_pass();
      if (done(t1)) break;
    }
  } else if (w.kind == Kind::kWindowedSubmit) {
    struct Outstanding {
      service::PendingResult pending;
      Clock::time_point submitted;
      uint32_t query;
    };
    std::deque<Outstanding> window;
    auto submit = [&]() {
      uint32_t qi = w.cycle[*cursor % w.cycle.size()];
      ++*cursor;
      Outstanding o;
      o.query = qi;
      o.submitted = Clock::now();
      o.pending = fx->svc->Submit(fx->prepared[qi], RequestFor(w, w.queries[qi]));
      window.push_back(std::move(o));
    };
    for (size_t i = 0; i < w.window; ++i) submit();
    bool stopping = false;
    while (!window.empty()) {
      Outstanding o = std::move(window.front());
      window.pop_front();
      const service::CheckResponse& r = o.pending.Get();
      Clock::time_point t1 = Clock::now();
      out.latency_us.push_back(
          std::chrono::duration<float, std::micro>(t1 - o.submitted).count());
      record(r, o.query);
      ++out.ops;
      if (++pass_ops == pass_len) end_pass();
      if (!stopping && done(t1)) stopping = true;
      if (!stopping) submit();
    }
  }
  out.wall_s = SecondsSince(start);
  return out;
}

/// Checks every witness set aside by RunPhase independently (CheckWitness)
/// and counts the ops that returned a witness passing it as OK.
void RecheckWitnesses(const Workload& w, PhaseResult* phase,
                      CheckReport* check) {
  for (const auto& [key, other] : phase->other_witnesses) {
    const QuerySpec& q = w.queries[other.query];
    std::string problem = CheckWitness(q, other.witness);
    ++check->witnesses_checked;
    if (problem.empty()) {
      phase->ok += other.ops;
    } else {
      check->problems.push_back(w.name + " query " +
                                std::to_string(other.query) +
                                ": timed phase: " + problem);
    }
  }
}

/// Timing figures of a phase.
struct Timing {
  double p50_us = 0;
  double p99_us = 0;
  double throughput = 0;
  /// Latency samples p50 and p99 are taken over.
  size_t samples = 0;
};

/// Every op of the phase, and throughput over its wall time.
Timing OverWholePhase(const PhaseResult& p) {
  Timing t;
  std::vector<double> lat(p.latency_us.begin(), p.latency_us.end());
  t.p50_us = Percentile(lat, 0.5);
  t.p99_us = Percentile(lat, 0.99);
  t.throughput = p.wall_s > 0 ? static_cast<double>(p.ops) / p.wall_s : 0;
  t.samples = lat.size();
  return t;
}

/// Timing figures over the positions of the op cycle, each at the
/// fastest latency it had in the phase. The phase passes over the same
/// cycle of ops again and again, so every position is one request timed
/// many times (once per pass, each pass on the next CPU). Other tenants
/// of a shared host slow ops down and never speed them up, so an op's
/// fastest time estimates its uncontended cost: p50 and p99 are over
/// the positions' fastest latencies, and throughput follows from them
/// by Little's law, `window` ops in flight over the mean latency (a
/// synchronous client has one). Positions the phase did not reach are
/// left out.
Timing OverOpPositions(const PhaseResult& p, size_t period, size_t window) {
  Timing t;
  if (period == 0) return t;
  std::vector<float> fastest(period, -1);
  for (size_t i = 0; i < p.latency_us.size(); ++i) {
    float& f = fastest[(p.first_op + i) % period];
    if (f < 0 || p.latency_us[i] < f) f = p.latency_us[i];
  }
  std::vector<double> per_op;
  double sum = 0;
  for (float f : fastest) {
    if (f < 0) continue;
    per_op.push_back(f);
    sum += f;
  }
  t.p50_us = Percentile(per_op, 0.5);
  t.p99_us = Percentile(per_op, 0.99);
  t.throughput = sum > 0 ? 1e6 * static_cast<double>(window) *
                               static_cast<double>(per_op.size()) / sum
                         : 0;
  t.samples = per_op.size();
  return t;
}

// --- Reporting ----------------------------------------------------------------

/// A metric value with all its digits; `digits` shortens report lines.
std::string Num(double v, int digits = 17) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*g", digits, v);
  return buf;
}

/// Interpolated p-quantile of the values recorded into a log2 histogram
/// (uniform within a bucket; HistogramSnapshot::Percentile reports the
/// bucket's upper bound, which reads the same on every run).
double HistogramQuantile(const obs::HistogramSnapshot& h, double p) {
  const auto& counts = h.counts;
  uint64_t total = 0;
  for (uint64_t c : counts) total += c;
  if (total == 0) return 0;
  double rank = p * static_cast<double>(total);
  double seen = 0;
  for (size_t i = 0; i < obs::HistogramSnapshot::kBuckets; ++i) {
    if (counts[i] == 0) continue;
    if (seen + counts[i] >= rank) {
      double lo = static_cast<double>(obs::HistogramSnapshot::BucketLowerBound(i));
      double hi = static_cast<double>(obs::HistogramSnapshot::BucketUpperBound(i)) + 1;
      return lo + (hi - lo) * (rank - seen) / static_cast<double>(counts[i]);
    }
    seen += counts[i];
  }
  return 0;
}

uint64_t CounterDelta(const obs::MetricsSnapshot& after,
                      const obs::MetricsSnapshot& before,
                      const std::string& name) {
  const uint64_t* a = after.counter(name);
  const uint64_t* b = before.counter(name);
  return (a ? *a : 0) - (b ? *b : 0);
}

double HistogramMean(const obs::MetricsSnapshot& after,
                     const obs::MetricsSnapshot& before,
                     const std::vector<std::string>& names) {
  double sum = 0, total = 0;
  for (const std::string& name : names) {
    const obs::HistogramSnapshot* a = after.histogram(name);
    const obs::HistogramSnapshot* b = before.histogram(name);
    if (a == nullptr) continue;
    sum += static_cast<double>(a->sum - (b ? b->sum : 0));
    total += static_cast<double>(a->total - (b ? b->total : 0));
  }
  return total > 0 ? sum / total : 0;
}

/// Workload-shape report: route, grounded, bounded and renamed shares
/// over the op cycle, and the share of busy time carried by the slowest
/// 1% of ops.
std::string ShapeReport(const Workload& w, const PhaseResult& phase) {
  std::map<std::string, double> route;
  double grounded = 0, bounded = 0, renamed = 0, datalog = 0, n = 0;
  for (uint32_t qi : w.cycle) {
    const QuerySpec& q = w.queries[qi];
    route[q.reference.engine] += 1;
    grounded += q.options.grounded;
    bounded += q.bounded_methods;
    renamed += q.renamed_twin;
    datalog += q.options.use_datalog_pipeline;
    n += 1;
  }
  std::vector<double> sorted(phase.latency_us.begin(), phase.latency_us.end());
  std::sort(sorted.begin(), sorted.end());
  double busy = 0, top = 0;
  for (double v : sorted) busy += v;
  size_t k = std::max<size_t>(1, sorted.size() / 100);
  for (size_t i = sorted.size() - std::min(k, sorted.size()); i < sorted.size();
       ++i) {
    top += sorted[i];
  }
  std::ostringstream out;
  out << "{\"distinct_queries\": " << w.queries.size()
      << ", \"cycle_ops\": " << w.cycle.size();
  out << ", \"route_share\": {";
  bool first = true;
  for (const auto& [engine, count] : route) {
    out << (first ? "" : ", ") << "\"" << engine << "\": " << Num(count / n, 4);
    first = false;
  }
  out << "}, \"grounded_share\": " << Num(n > 0 ? grounded / n : 0, 4)
      << ", \"bounded_method_share\": " << Num(n > 0 ? bounded / n : 0, 4)
      << ", \"renamed_twin_share\": " << Num(n > 0 ? renamed / n : 0, 4)
      << ", \"datalog_pipeline_share\": " << Num(n > 0 ? datalog / n : 0, 4)
      << ", \"slowest_1pct_busy_share\": " << Num(busy > 0 ? top / busy : 0, 4)
      << "}";
  return out.str();
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool tiny = false;
  std::string trace_out = "perfbench_trace.json";
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (flag == "--tiny") {
      a->tiny = true;
      continue;
    }
    const char* v = value();
    if (v == nullptr) return false;
    if (flag == "--workload") {
      a->workload = v;
    } else if (flag == "--seed") {
      a->seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      a->seconds = std::atof(v);
    } else if (flag == "--trace") {
      a->trace = std::string(v) == "1";
    } else if (flag == "--trace-out") {
      a->trace_out = v;
    } else {
      return false;
    }
  }
  const std::vector<std::string>& names = WorkloadNames();
  return std::find(names.begin(), names.end(), a->workload) != names.end() &&
         a->seconds > 0;
}

/// Set-up repetitions on each side of the timed phase: at least this
/// many, and for at least this long.
constexpr int kMinSetUps = 6;
constexpr double kMinSetUpSeconds = 1;

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--tiny] [--trace-out FILE]\n");
    return 2;
  }
  obs::SetMetricsEnabled(true);

  Clock::time_point t = Clock::now();
  Workload w = MakeWorkload(args.workload, args.seed, args.tiny);
  double inputs_s = SecondsSince(t);

  // The independent checks of the reference answers run before timing
  // (they do not touch the service under test).
  t = Clock::now();
  CheckReport check = CheckReferenceAnswers(w);
  double check_s = SecondsSince(t);

  // Set-up is timed many times, each on the next CPU, half before and
  // half after the timed phase, so that the repetitions sample the host
  // at two times about --seconds apart; setup_s is the sum over the
  // set-up's steps of each step's fastest time (FastestSteps). The timed
  // phase runs against the last fixture set up before it. Peak RSS
  // counts from the first set-up to the end of the timed phase.
  std::vector<double> setup_s, step_s;
  FastestSteps fastest_steps;
  std::unique_ptr<Fixture> fx;
  auto set_up_repeatedly = [&]() {
    CpuRotation rotation;
    Clock::time_point begin = Clock::now();
    for (int i = 0; i < kMinSetUps || SecondsSince(begin) < kMinSetUpSeconds;
         ++i) {
      fx.reset();
      t = Clock::now();
      fx = SetUp(w, &rotation, &step_s);
      setup_s.push_back(SecondsSince(t));
      fastest_steps.Add(step_s);
    }
  };
  ResetPeakRss();
  set_up_repeatedly();

  // The timed phase. In a traced run, the untraced share of the time is
  // followed by a traced phase and the per-layer probes.
  double untraced_s = args.trace ? args.seconds * 0.4 : args.seconds;
  std::vector<char> bad(w.queries.size(), 0);
  for (size_t i : check.bad_queries) bad[i] = 1;
  size_t cursor = 0;
  obs::MetricsSnapshot before = obs::Registry::Get().Snapshot();
  PhaseResult phase = RunPhase(w, fx.get(), bad, untraced_s, false, &cursor);
  obs::MetricsSnapshot after = obs::Registry::Get().Snapshot();
  double peak_rss_mb = PeakRssMb();
  RecheckWitnesses(w, &phase, &check);
  if (!args.trace) set_up_repeatedly();

  size_t attempted = phase.ops;
  size_t ok = phase.ok;
  // decided_share over one pass of the op cycle (deterministic in the
  // seed): checks answered kYes/kNo.
  double decided_share = 0;
  for (uint32_t qi : w.cycle) {
    decided_share +=
        w.queries[qi].reference.satisfiable != analysis::Answer::kUnknown;
  }
  decided_share /= static_cast<double>(std::max<size_t>(1, w.cycle.size()));

  Timing timing = OverOpPositions(phase, w.cycle.size(), w.window);
  Timing whole = OverWholePhase(phase);
  double p50 = timing.p50_us;
  double p99 = timing.p99_us;
  double throughput = timing.throughput;
  double hit_ops = static_cast<double>(
      CounterDelta(after, before, "service.cache.hits"));
  double lookup_ops = hit_ops + static_cast<double>(CounterDelta(
                                    after, before, "service.cache.misses"));
  double hit_ratio = lookup_ops > 0 ? hit_ops / lookup_ops : 0;

  std::ostringstream metrics;
  auto metric = [&](const std::string& name, double value,
                    const std::string& unit) {
    metrics << (metrics.tellp() > 0 ? ", " : "") << "\"" << name
            << "\": {\"value\": " << Num(value) << ", \"unit\": \"" << unit
            << "\"}";
  };

  if (!args.trace) {
    metric("setup_s", fastest_steps.Sum(), "s");
    metric("p50_us", p50, "us");
    metric("p99_us", p99, "us");
    metric("throughput_per_s", throughput, "1/s");
    metric("peak_rss_mb", peak_rss_mb, "MB");
    metric("ok_share", attempted > 0 ? static_cast<double>(ok) / attempted : 0,
           "ratio");
    metric("decided_share", decided_share, "ratio");
  } else {
    // Traced phase: the same ops with a span around each.
    obs::StartTracing();
    PhaseResult traced =
        RunPhase(w, fx.get(), bad, args.seconds * 0.3, true, &cursor);
    RecheckWitnesses(w, &traced, &check);
    attempted += traced.ops;
    ok += traced.ok;
    LayerMetrics layers;
    obs::MetricsSnapshot probe_before = obs::Registry::Get().Snapshot();
    ProbeLayers(w, args.seed, args.seconds * 0.3, &layers, &check);
    obs::MetricsSnapshot probe_after = obs::Registry::Get().Snapshot();
    obs::StopTracing();
    if (!obs::WriteTrace(args.trace_out)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n",
                   args.trace_out.c_str());
      return 3;
    }
    Timing traced_timing = OverOpPositions(traced, w.cycle.size(), w.window);
    double traced_p50 = traced_timing.p50_us;
    double traced_thr = traced_timing.throughput;
    std::printf("# trace overhead: throughput_per_s untraced %s traced %s "
                "(%+.2f%%); p50_us untraced %s traced %s (%+.2f%%)\n",
                Num(throughput, 5).c_str(), Num(traced_thr, 5).c_str(),
                100.0 * (traced_thr / throughput - 1), Num(p50, 5).c_str(),
                Num(traced_p50, 5).c_str(), 100.0 * (traced_p50 / p50 - 1));

    double ops = static_cast<double>(std::max<size_t>(1, phase.ops));
    auto per_op = [&](const char* name) {
      return static_cast<double>(CounterDelta(after, before, name)) / ops;
    };
    auto both = [&](const char* exact, const char* compact) {
      return static_cast<double>(CounterDelta(after, before, exact) +
                                 CounterDelta(after, before, compact));
    };
    layers["engine.pops"] = {per_op("engine.pops"), "count/op"};
    layers["engine.steals"] = {per_op("engine.steals"), "count/op"};
    layers["engine.levels"] = {per_op("engine.levels"), "count/op"};
    // Barrier wait per level, over the timed phase and the probes (the
    // only level-synchronous searches of most workloads are the probes'
    // two-worker LTS explorations).
    double levels = static_cast<double>(
        CounterDelta(after, before, "engine.levels") +
        CounterDelta(probe_after, probe_before, "engine.levels"));
    double idle = static_cast<double>(
        CounterDelta(after, before, "engine.idle_wait_us") +
        CounterDelta(probe_after, probe_before, "engine.idle_wait_us"));
    layers["engine.idle_wait_us"] = {levels > 0 ? idle / levels : 0,
                                     "us/level"};
    double inserts = both("engine.visited.inserts", "engine.cvisited.inserts");
    double dominated =
        both("engine.visited.dominated", "engine.cvisited.dominated");
    layers["engine.visited.inserts"] = {inserts / ops, "count/op"};
    layers["engine.visited.dominated_ratio"] = {
        inserts > 0 ? dominated / inserts : 0, "ratio"};
    layers["engine.visited.probe_len"] = {
        HistogramMean(after, before,
                      {"engine.visited.probe_len", "engine.cvisited.probe_len"}),
        "slots"};
    layers["store.treedb.interns"] = {per_op("store.treedb.interns"),
                                      "count/op"};
    layers["store.treedb.intern_misses"] = {
        per_op("store.treedb.intern_misses"), "count/op"};
    layers["service.cache.hit_ratio"] = {hit_ratio, "ratio"};
    layers["service.cache.evictions"] = {per_op("service.cache.evictions"),
                                         "count/op"};
    // Queue wait over the untraced phase and the probes' Submit bursts
    // (check workloads submit nothing in their own phase).
    const obs::HistogramSnapshot* qa = after.histogram("service.queue_wait_us");
    const obs::HistogramSnapshot* qb = before.histogram("service.queue_wait_us");
    const obs::HistogramSnapshot* pa =
        probe_after.histogram("service.queue_wait_us");
    const obs::HistogramSnapshot* pb =
        probe_before.histogram("service.queue_wait_us");
    obs::HistogramSnapshot queue_wait;
    if (qa != nullptr) {
      queue_wait.Merge(*qa);
      for (size_t i = 0; i < obs::HistogramSnapshot::kBuckets; ++i) {
        queue_wait.counts[i] -= qb ? qb->counts[i] : 0;
      }
    }
    if (pa != nullptr) {
      for (size_t i = 0; i < obs::HistogramSnapshot::kBuckets; ++i) {
        queue_wait.counts[i] += pa->counts[i] - (pb ? pb->counts[i] : 0);
      }
    }
    layers["service.queue_wait_p50_us"] = {
        HistogramQuantile(queue_wait, 0.5), "us"};
    layers["service.queue_wait_p99_us"] = {
        HistogramQuantile(queue_wait, 0.99), "us"};
    layers["obs.trace_overhead.throughput"] = {traced_thr / throughput - 1,
                                               "ratio"};
    layers["obs.trace_overhead.p50"] = {traced_p50 / p50 - 1, "ratio"};
    for (const auto& [name, m] : layers) metric(name, m.value, m.unit);
  }

  bool correct = check.problems.empty() && ok == attempted;
  for (const std::string& p : check.problems) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", p.c_str());
  }
  std::printf("# %s seed=%llu: %zu ops in %.2fs (%zu passes), %zu ok; "
              "set-up %s s (sum of the fastest time of each step over %zu "
              "set-ups; median set-up %s s), inputs %.2fs, checks %.2fs (%zu witnesses, %zu "
              "oracle sweeps, %zu probe session prefixes)\n",
              w.name.c_str(), static_cast<unsigned long long>(args.seed),
              phase.ops, phase.wall_s, phase.passes, phase.ok,
              Num(fastest_steps.Sum(), 4).c_str(), setup_s.size(),
              Num(Median(setup_s), 4).c_str(), inputs_s, check_s,
              check.witnesses_checked, check.oracle_checked,
              check.session_prefixes_checked);
  std::printf("# timing: fastest latency of each of the %zu cycle positions: "
              "p50 %.1fus p99 %.1fus, %.1f ops/s; every op (%zu): p50 %.1fus "
              "p99 %.1fus, %.1f ops/s over the wall time\n",
              timing.samples, timing.p50_us, timing.p99_us, timing.throughput,
              whole.samples, whole.p50_us, whole.p99_us, whole.throughput);
  std::printf("# shape: %s\n", ShapeReport(w, phase).c_str());
  std::printf("# cache hit ratio %s, decided share %s\n",
              Num(hit_ratio, 4).c_str(), Num(decided_share, 4).c_str());
  std::printf(
      "{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": "
      "{%s}, \"samples\": %zu, \"run\": {\"ops\": %zu, \"timed_s\": %s, "
      "\"build_type\": \"%s\", \"compiler\": \"%s\", \"nproc\": %u}}\n",
      correct ? "true" : "false", attempted, attempted - ok,
      metrics.str().c_str(), timing.samples, phase.ops,
      Num(phase.wall_s).c_str(), PERFBENCH_BUILD_TYPE, PERFBENCH_COMPILER,
      std::thread::hardware_concurrency());
  return 0;
}

}  // namespace

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  double rank = p * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(rank));
  size_t hi = std::min(v.size() - 1, lo + 1);
  return v[lo] + (v[hi] - v[lo]) * (rank - static_cast<double>(lo));
}

}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
