// Command-line front end for the library: load a schema (and
// optionally an instance) from the text format, then decide AccLTL
// satisfiability, plan a conjunctive query, answer it against a
// hidden instance with grounded accesses, explore the induced LTS
// breadth-first (Figure 1's tree of paths), or answer a batch of
// checks against one schema through the service layer.
//
// Usage:
//   accltl_cli check   <schema-file> <accltl-formula> [--grounded] [--shrink]
//                      [--max-path-length N] [--max-nodes N]
//                      [--threads N] [--visited=exact|compact]
//   accltl_cli plan    <schema-file> <query> [head-var...]
//   accltl_cli answer  <schema-file> <instance-file> <query>
//                      [--seed value]... [--no-prune] [head-var...]
//   accltl_cli explore <schema-file> <instance-file> [--depth D]
//                      [--max-nodes N] [--grounded] [--seed value]...
//                      [--threads N] [--visited=exact|compact] [--strict]
//   accltl_cli batch   <schema-file> <requests-file|-> [--grounded]
//                      [--shrink] [--threads N] [--deadline-ms N] [--cache]
//                      [--visited=exact|compact]
//   accltl_cli monitor <schema-file> <formula> <steps-file|->
//                      [--initial FILE] [--deadline-ms N]
//   accltl_cli fuzz    [--seeds N] [--seed-start S] [--engine-pair P]...
//                      [--shrink] [--out DIR]
//
// Queries and formulas use the library's text syntax, e.g.
//   accltl_cli check phone.schema 'F [IsBind_AcM1()]'
//   accltl_cli plan phone.schema 'EXISTS p,s,ph . Mobile("Smith",p,s,ph)'
//   accltl_cli answer phone.schema site.facts ... --seed Smith
//       (query text as in the plan example)
//
// `batch` reads newline-delimited AccLTL formulas (blank lines and
// '#' comments skipped) and answers them through one AnalysisService:
// every distinct formula is prepared once (parse, classify, compile)
// and shared across its occurrences, requests are submitted
// asynchronously, and responses print in input order. Failed requests
// report their request index AND source line number on stderr.
//
// `monitor` opens a streaming session against the formula and replays
// a newline-delimited step script through it, printing the incremental
// four-valued verdict after each step. Step lines look like
//   AcM1("Jones") -> Mobile("Jones", "OX1", "Parks Rd", 5550)
//   AcM2("Parks Rd", "OX1")
// i.e. method(binding...) and an optional '->' response of
// ';'-separated facts of the method's relation (no '->' part = empty
// response). Blank lines and '#' comments are skipped; a malformed or
// rejected step reports its source line number on stderr and the run
// exits 1.
//
// `fuzz` runs the differential-testing driver (src/testing/): each
// seed × engine pair generates a random schema/formula/instance case
// and checks oracle-vs-engine agreement plus metamorphic properties.
// Failing seeds are reported on stderr; with --shrink each failure is
// greedily minimized, and with --out DIR a replayable repro file is
// written per failure (the format tests/corpus/ replays).
//
// Unknown flags, missing flag values and malformed counts are errors
// (exit code 2) — a typo like `--ground` must never silently change
// results.

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/accltl/parser.h"
#include "src/analysis/decide.h"
#include "src/engine/cancel.h"
#include "src/logic/parser.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/planner/dynamic.h"
#include "src/planner/static_plan.h"
#include "src/schema/lts.h"
#include "src/schema/text_format.h"
#include "src/service/analysis_service.h"
#include "src/testing/differential.h"

namespace accltl {
namespace {

int Usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  accltl_cli check   <schema-file> <formula> [--grounded] [--shrink]\n"
      "                     [--max-path-length N] [--max-nodes N]\n"
      "                     [--threads N] [--visited=exact|compact]\n"
      "                     [--trace-out FILE]\n"
      "  accltl_cli plan    <schema-file> <query> [head-var...]\n"
      "  accltl_cli answer  <schema-file> <instance-file> <query>\n"
      "                     [--seed value]... [--no-prune] [head-var...]\n"
      "  accltl_cli explore <schema-file> <instance-file> [--depth D]\n"
      "                     [--max-nodes N] [--grounded] [--seed value]...\n"
      "                     [--threads N] [--visited=exact|compact]\n"
      "                     [--strict] [--trace-out FILE]\n"
      "  accltl_cli batch   <schema-file> <requests-file|-> [--grounded]\n"
      "                     [--shrink] [--threads N] [--deadline-ms N]\n"
      "                     [--cache] [--visited=exact|compact]\n"
      "                     [--trace-out FILE] [--stats]\n"
      "  accltl_cli monitor <schema-file> <formula> <steps-file|->\n"
      "                     [--initial FILE] [--deadline-ms N]\n"
      "  accltl_cli fuzz    [--seeds N] [--seed-start S] [--engine-pair P]...\n"
      "                     [--shrink] [--out DIR] [--trace-out FILE]\n");
  return 2;
}

int UnknownFlag(const char* sub, const char* arg) {
  std::fprintf(stderr, "%s: unknown flag '%s' (flags are never ignored)\n",
               sub, arg);
  return 2;
}

int MissingValue(const char* sub, const char* flag) {
  std::fprintf(stderr, "%s: flag '%s' wants a value\n", sub, flag);
  return 2;
}

/// Parses a positive integer flag value (`--threads`, `--depth`,
/// `--max-nodes`, `--deadline-ms`): the whole argument must be a
/// positive decimal count — non-numeric input, trailing garbage
/// (`4x`), overflow and non-positive values are all rejected instead
/// of being silently truncated (atoll accepted `4x` as 4).
Result<size_t> ParsePositiveCount(const char* flag, const char* arg) {
  errno = 0;
  char* end = nullptr;
  long long value = std::strtoll(arg, &end, 10);
  if (end == arg || *end != '\0' || errno == ERANGE || value < 1) {
    return Status::InvalidArgument(std::string(flag) +
                                   " wants a positive count, got '" + arg +
                                   "'");
  }
  return static_cast<size_t>(value);
}

/// Parses the shared `--visited exact|compact` / `--visited=...` flag.
/// Returns 1 when consumed (advancing *i past a space-separated
/// value), 0 when `argv[*i]` is not this flag, and 2 on a bad value
/// (error already printed; caller exits 2).
int ConsumeVisitedFlag(const char* sub, int argc, char** argv, int* i,
                       engine::VisitedMode* out) {
  const char* arg = argv[*i];
  if (std::strncmp(arg, "--visited", 9) != 0) return 0;
  const char* value = nullptr;
  if (arg[9] == '=') {
    value = arg + 10;
  } else if (arg[9] == '\0') {
    if (*i + 1 >= argc) {
      MissingValue(sub, arg);
      return 2;
    }
    value = argv[++*i];
  } else {
    return 0;  // some other --visited-xyz flag; let the caller reject it
  }
  if (std::strcmp(value, "exact") == 0) {
    *out = engine::VisitedMode::kExact;
    return 1;
  }
  if (std::strcmp(value, "compact") == 0) {
    *out = engine::VisitedMode::kCompact;
    return 1;
  }
  std::fprintf(stderr, "%s: --visited wants 'exact' or 'compact', got '%s'\n",
               sub, value);
  return 2;
}

/// Parses the shared `--trace-out FILE` / `--trace-out=FILE` flag.
/// Same protocol as ConsumeVisitedFlag: 1 = consumed, 0 = not this
/// flag, 2 = missing value (error already printed).
int ConsumeTraceFlag(const char* sub, int argc, char** argv, int* i,
                     std::string* out) {
  const char* arg = argv[*i];
  if (std::strncmp(arg, "--trace-out", 11) != 0) return 0;
  if (arg[11] == '=') {
    *out = arg + 12;
    return 1;
  }
  if (arg[11] == '\0') {
    if (*i + 1 >= argc) {
      MissingValue(sub, arg);
      return 2;
    }
    *out = argv[++*i];
    return 1;
  }
  return 0;  // some other --trace-out-xyz flag; let the caller reject it
}

/// Stops tracing and writes the recorded events as Chrome trace-event
/// JSON (loadable in Perfetto / chrome://tracing). Never changes the
/// subcommand's exit status: the verdict already printed, so a failed
/// trace write is a stderr warning, not a failure.
void FinishTrace(const char* sub, const std::string& path) {
  if (path.empty()) return;
  obs::StopTracing();
  if (obs::WriteTrace(path)) {
    std::fprintf(stderr, "%s: trace written to %s (open in Perfetto)\n", sub,
                 path.c_str());
  } else {
    std::fprintf(stderr, "%s: cannot write trace to %s\n", sub, path.c_str());
  }
}

Result<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot open " + path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

Result<schema::Schema> LoadSchema(const std::string& path) {
  Result<std::string> text = ReadFile(path);
  if (!text.ok()) return text.status();
  return schema::ParseSchema(text.value());
}

/// Parses a query and normalizes it to a single CQ with the given head.
Result<logic::Cq> LoadCq(const std::string& text,
                         const std::vector<std::string>& head,
                         const schema::Schema& s) {
  Result<logic::PosFormulaPtr> f = logic::ParseFormula(text, s);
  if (!f.ok()) return f.status();
  Result<logic::Ucq> u = logic::NormalizeToUcq(f.value(), head, s);
  if (!u.ok()) return u.status();
  if (u.value().disjuncts.size() != 1) {
    return Status::InvalidArgument(
        "plan/answer need a conjunctive query (no OR); got " +
        std::to_string(u.value().disjuncts.size()) + " disjuncts");
  }
  return u.value().disjuncts[0];
}

int RunCheck(int argc, char** argv) {
  if (argc < 4) return Usage();
  Result<schema::Schema> s = LoadSchema(argv[2]);
  if (!s.ok()) {
    std::fprintf(stderr, "schema: %s\n", s.status().ToString().c_str());
    return 1;
  }
  Result<acc::AccPtr> f = acc::ParseAccFormula(argv[3], s.value());
  if (!f.ok()) {
    std::fprintf(stderr, "formula: %s\n", f.status().ToString().c_str());
    return 1;
  }
  analysis::DecideOptions options;
  std::string trace_out;
  for (int i = 4; i < argc; ++i) {
    if (std::strcmp(argv[i], "--grounded") == 0) {
      options.grounded = true;
    } else if (std::strcmp(argv[i], "--shrink") == 0) {
      options.shrink_witness = true;
    } else if (int c = ConsumeTraceFlag("check", argc, argv, &i,
                                        &trace_out)) {
      if (c == 2) return 2;
    } else if (std::strcmp(argv[i], "--threads") == 0) {
      if (i + 1 >= argc) return MissingValue("check", argv[i]);
      Result<size_t> threads = ParsePositiveCount("--threads", argv[++i]);
      if (!threads.ok()) {
        std::fprintf(stderr, "%s\n", threads.status().ToString().c_str());
        return 2;
      }
      // Deterministic: any count returns the same verdict and witness
      // (see src/automata/emptiness.h and src/analysis/zero_solver.h).
      options.exec.num_threads = threads.value();
    } else if (int c = ConsumeVisitedFlag("check", argc, argv, &i,
                                          &options.exec.visited_mode)) {
      if (c == 2) return 2;
    } else if (std::strcmp(argv[i], "--max-path-length") == 0 ||
               std::strcmp(argv[i], "--max-nodes") == 0) {
      const char* flag = argv[i];
      if (i + 1 >= argc) return MissingValue("check", flag);
      Result<size_t> value = ParsePositiveCount(flag, argv[++i]);
      if (!value.ok()) {
        std::fprintf(stderr, "%s\n", value.status().ToString().c_str());
        return 2;
      }
      if (std::strcmp(flag, "--max-path-length") == 0) {
        options.bounded.max_path_length = value.value();
      } else {
        options.bounded.max_nodes = value.value();
      }
    } else {
      return UnknownFlag("check", argv[i]);
    }
  }
  if (!trace_out.empty()) obs::StartTracing();
  Result<analysis::Decision> d =
      analysis::DecideSatisfiability(f.value(), s.value(), options);
  FinishTrace("check", trace_out);
  if (!d.ok()) {
    std::fprintf(stderr, "decide: %s\n", d.status().ToString().c_str());
    return 1;
  }
  const analysis::Decision& decision = d.value();
  std::printf("fragment   : %s\n",
              acc::FragmentName(decision.fragment,
                                decision.uses_inequality).c_str());
  std::printf("engine     : %s\n", decision.engine.c_str());
  std::printf("satisfiable: %s\n",
              analysis::AnswerName(decision.satisfiable));
  std::printf("nodes      : %zu\n", decision.nodes_explored);
  if (decision.treedb_nodes > 0) {
    std::printf("visited    : %zu bytes (%zu tree nodes)\n",
                decision.visited_bytes, decision.treedb_nodes);
  } else {
    std::printf("visited    : %zu bytes\n", decision.visited_bytes);
  }
  if (decision.has_witness) {
    std::printf("witness:\n%s\n",
                decision.witness.ToString(s.value()).c_str());
  }
  return 0;
}

int RunPlan(int argc, char** argv) {
  if (argc < 4) return Usage();
  Result<schema::Schema> s = LoadSchema(argv[2]);
  if (!s.ok()) {
    std::fprintf(stderr, "schema: %s\n", s.status().ToString().c_str());
    return 1;
  }
  std::vector<std::string> head;
  for (int i = 4; i < argc; ++i) {
    if (std::strncmp(argv[i], "--", 2) == 0) {
      return UnknownFlag("plan", argv[i]);
    }
    head.push_back(argv[i]);
  }
  Result<logic::Cq> q = LoadCq(argv[3], head, s.value());
  if (!q.ok()) {
    std::fprintf(stderr, "query: %s\n", q.status().ToString().c_str());
    return 1;
  }
  Result<planner::ExecutablePlan> plan =
      planner::PlanConjunctiveQuery(q.value(), s.value());
  if (!plan.ok()) {
    std::printf("not executable: %s\n", plan.status().ToString().c_str());
    return 3;
  }
  std::printf("%s\n", plan.value().ToString(q.value(), s.value()).c_str());
  return 0;
}

int RunAnswer(int argc, char** argv) {
  if (argc < 5) return Usage();
  Result<schema::Schema> s = LoadSchema(argv[2]);
  if (!s.ok()) {
    std::fprintf(stderr, "schema: %s\n", s.status().ToString().c_str());
    return 1;
  }
  Result<std::string> facts = ReadFile(argv[3]);
  if (!facts.ok()) {
    std::fprintf(stderr, "instance: %s\n", facts.status().ToString().c_str());
    return 1;
  }
  Result<schema::Instance> universe =
      schema::ParseInstance(facts.value(), s.value());
  if (!universe.ok()) {
    std::fprintf(stderr, "instance: %s\n",
                 universe.status().ToString().c_str());
    return 1;
  }
  planner::DynamicOptions options;
  std::vector<std::string> head;
  for (int i = 5; i < argc; ++i) {
    if (std::strcmp(argv[i], "--seed") == 0) {
      if (i + 1 >= argc) return MissingValue("answer", argv[i]);
      options.seed_values.push_back(Value::Str(argv[++i]));
    } else if (std::strcmp(argv[i], "--no-prune") == 0) {
      options.prune_by_provenance = false;
      options.prune_by_reachability = false;
    } else if (std::strncmp(argv[i], "--", 2) == 0) {
      // Head variables never start with "--": reject instead of
      // treating a typo'd flag as a head variable.
      return UnknownFlag("answer", argv[i]);
    } else {
      head.push_back(argv[i]);
    }
  }
  Result<logic::Cq> q = LoadCq(argv[4], head, s.value());
  if (!q.ok()) {
    std::fprintf(stderr, "query: %s\n", q.status().ToString().c_str());
    return 1;
  }
  Result<planner::DynamicResult> r = planner::AnswerWithDynamicAccesses(
      q.value(), s.value(), universe.value(),
      schema::Instance(s.value()), options);
  if (!r.ok()) {
    std::fprintf(stderr, "answer: %s\n", r.status().ToString().c_str());
    return 1;
  }
  std::printf("accesses   : %zu made, %zu pruned, fixpoint=%s\n",
              r.value().stats.accesses_made, r.value().stats.accesses_pruned,
              r.value().stats.reached_fixpoint ? "yes" : "no");
  if (head.empty()) {
    std::printf("answer     : %s\n",
                r.value().answers.empty() ? "false" : "true");
  } else {
    std::printf("answers    : %zu\n", r.value().answers.size());
    for (const Tuple& t : r.value().answers) {
      std::printf("  %s\n", TupleToString(t).c_str());
    }
  }
  return 0;
}

int RunExplore(int argc, char** argv) {
  if (argc < 4) return Usage();
  Result<schema::Schema> s = LoadSchema(argv[2]);
  if (!s.ok()) {
    std::fprintf(stderr, "schema: %s\n", s.status().ToString().c_str());
    return 1;
  }
  Result<std::string> facts = ReadFile(argv[3]);
  if (!facts.ok()) {
    std::fprintf(stderr, "instance: %s\n", facts.status().ToString().c_str());
    return 1;
  }
  Result<schema::Instance> universe =
      schema::ParseInstance(facts.value(), s.value());
  if (!universe.ok()) {
    std::fprintf(stderr, "instance: %s\n",
                 universe.status().ToString().c_str());
    return 1;
  }
  schema::LtsOptions options;
  options.universe = universe.value();
  engine::ExecOptions exec;
  size_t depth = 3;
  size_t max_nodes = 100000;
  bool strict = false;
  std::string trace_out;
  for (int i = 4; i < argc; ++i) {
    if (std::strcmp(argv[i], "--grounded") == 0) {
      options.grounded = true;
    } else if (std::strcmp(argv[i], "--strict") == 0) {
      strict = true;
    } else if (int c = ConsumeVisitedFlag("explore", argc, argv, &i,
                                          &exec.visited_mode)) {
      if (c == 2) return 2;
    } else if (int c = ConsumeTraceFlag("explore", argc, argv, &i,
                                        &trace_out)) {
      if (c == 2) return 2;
    } else if (std::strcmp(argv[i], "--seed") == 0) {
      if (i + 1 >= argc) return MissingValue("explore", argv[i]);
      options.seed_values.push_back(Value::Str(argv[++i]));
    } else if (std::strcmp(argv[i], "--depth") == 0 ||
               std::strcmp(argv[i], "--max-nodes") == 0 ||
               std::strcmp(argv[i], "--threads") == 0) {
      const char* flag = argv[i];
      if (i + 1 >= argc) return MissingValue("explore", flag);
      Result<size_t> value = ParsePositiveCount(flag, argv[++i]);
      if (!value.ok()) {
        std::fprintf(stderr, "%s\n", value.status().ToString().c_str());
        return 2;
      }
      if (std::strcmp(flag, "--depth") == 0) {
        depth = value.value();
      } else if (std::strcmp(flag, "--max-nodes") == 0) {
        max_nodes = value.value();
      } else {
        // Deterministic: stats are identical at any count
        // (src/schema/lts.h).
        exec.num_threads = value.value();
      }
    } else {
      return UnknownFlag("explore", argv[i]);
    }
  }
  schema::LtsMemoryStats memory;
  if (!trace_out.empty()) obs::StartTracing();
  std::vector<schema::LtsLevelStats> stats = schema::ExploreBreadthFirst(
      s.value(), schema::Instance(s.value()), options, depth, max_nodes,
      exec, &memory);
  FinishTrace("explore", trace_out);
  // Every LtsLevelStats field prints — truncated AND cancelled. The
  // cancelled column used to be dropped entirely, so a deadline-cut
  // prefix read exactly like a completed exploration.
  std::printf("depth  configs  transitions  max-facts  truncated  cancelled\n");
  bool truncated = false;
  bool cancelled = false;
  for (const schema::LtsLevelStats& level : stats) {
    truncated = truncated || level.truncated;
    cancelled = cancelled || level.cancelled;
    std::printf("%5zu  %7zu  %11zu  %9zu  %9s  %9s\n", level.depth,
                level.distinct_configurations, level.transitions,
                level.max_configuration_facts,
                level.truncated ? "yes" : "no",
                level.cancelled ? "yes" : "no");
  }
  if (memory.treedb_nodes > 0) {
    std::printf("visited: %zu bytes (%zu tree nodes)\n",
                memory.visited_bytes, memory.treedb_nodes);
  } else {
    std::printf("visited: %zu bytes\n", memory.visited_bytes);
  }
  if (truncated) {
    std::printf("note: a budget cut the exploration; the tree above is a "
                "prefix\n");
  }
  if (cancelled) {
    std::printf("note: cancelled mid-exploration; the tree above is a "
                "prefix\n");
  }
  if (strict && (truncated || cancelled)) {
    // Scripted callers asked for a complete tree; a prefix is a
    // failure, not a success with a note.
    return 4;
  }
  return 0;
}

int RunBatch(int argc, char** argv) {
  if (argc < 4) return Usage();
  Result<schema::Schema> s = LoadSchema(argv[2]);
  if (!s.ok()) {
    std::fprintf(stderr, "schema: %s\n", s.status().ToString().c_str());
    return 1;
  }
  service::PrepareOptions prepare;
  service::ServiceOptions sopts;
  sopts.cache_capacity = 0;  // off unless --cache
  std::chrono::milliseconds deadline{0};
  engine::VisitedMode visited_mode = engine::VisitedMode::kExact;
  std::string trace_out;
  bool show_stats = false;
  for (int i = 4; i < argc; ++i) {
    if (std::strcmp(argv[i], "--grounded") == 0) {
      prepare.grounded = true;
    } else if (int c = ConsumeVisitedFlag("batch", argc, argv, &i,
                                          &visited_mode)) {
      if (c == 2) return 2;
    } else if (int c = ConsumeTraceFlag("batch", argc, argv, &i,
                                        &trace_out)) {
      if (c == 2) return 2;
    } else if (std::strcmp(argv[i], "--stats") == 0) {
      show_stats = true;
    } else if (std::strcmp(argv[i], "--shrink") == 0) {
      prepare.shrink_witness = true;
    } else if (std::strcmp(argv[i], "--cache") == 0) {
      sopts.cache_capacity = 1024;
    } else if (std::strcmp(argv[i], "--threads") == 0 ||
               std::strcmp(argv[i], "--deadline-ms") == 0) {
      const char* flag = argv[i];
      if (i + 1 >= argc) return MissingValue("batch", flag);
      Result<size_t> value = ParsePositiveCount(flag, argv[++i]);
      if (!value.ok()) {
        std::fprintf(stderr, "%s\n", value.status().ToString().c_str());
        return 2;
      }
      if (std::strcmp(flag, "--threads") == 0) {
        sopts.num_threads = value.value();
      } else {
        deadline = std::chrono::milliseconds(value.value());
      }
    } else {
      return UnknownFlag("batch", argv[i]);
    }
  }

  // Read newline-delimited requests ('-' = stdin).
  std::string requests_text;
  if (std::strcmp(argv[3], "-") == 0) {
    std::ostringstream buf;
    buf << std::cin.rdbuf();
    requests_text = buf.str();
  } else {
    Result<std::string> text = ReadFile(argv[3]);
    if (!text.ok()) {
      std::fprintf(stderr, "requests: %s\n",
                   text.status().ToString().c_str());
      return 1;
    }
    requests_text = std::move(text.value());
  }
  // Each request keeps its 1-based source line number: error reports
  // must point back into the (comment- and blank-line-ridden) input
  // file, not into the filtered request list.
  std::vector<std::string> lines;
  std::vector<size_t> line_numbers;
  {
    std::istringstream in(requests_text);
    std::string line;
    for (size_t line_no = 1; std::getline(in, line); ++line_no) {
      size_t first = line.find_first_not_of(" \t\r");
      if (first == std::string::npos || line[first] == '#') continue;
      size_t last = line.find_last_not_of(" \t\r");
      lines.push_back(line.substr(first, last - first + 1));
      line_numbers.push_back(line_no);
    }
  }

  // Tracing must be live before the service spawns its dispatchers:
  // SetThreadLane is a no-op while tracing is off, so a later start
  // would leave the dispatcher lanes unnamed in the trace.
  if (!trace_out.empty()) obs::StartTracing();
  service::AnalysisService svc(sopts);
  service::CheckRequest request;
  request.deadline = deadline;
  request.visited_mode = visited_mode;
  // One prepared query per distinct formula text, shared across its
  // occurrences — repeated requests never re-parse or re-compile.
  std::vector<std::shared_ptr<const service::PreparedQuery>> prepared(
      lines.size());
  std::vector<std::string> prepare_errors(lines.size());
  std::unordered_map<std::string, size_t> first_occurrence;
  for (size_t i = 0; i < lines.size(); ++i) {
    auto [it, inserted] = first_occurrence.emplace(lines[i], i);
    if (!inserted) {
      prepared[i] = prepared[it->second];
      prepare_errors[i] = prepare_errors[it->second];
      continue;
    }
    Result<std::shared_ptr<const service::PreparedQuery>> p =
        svc.Prepare(s.value(), lines[i], prepare);
    if (p.ok()) {
      prepared[i] = p.value();
    } else {
      prepare_errors[i] = p.status().ToString();
    }
  }

  // Submit everything, then drain in input order.
  std::vector<service::PendingResult> pending(lines.size());
  for (size_t i = 0; i < lines.size(); ++i) {
    if (prepared[i] != nullptr) {
      pending[i] = svc.Submit(prepared[i], request);
    }
  }
  size_t failures = 0;
  for (size_t i = 0; i < lines.size(); ++i) {
    if (prepared[i] == nullptr) {
      std::fprintf(stderr, "[%zu] line %zu: error: %s\n  request: %s\n", i,
                   line_numbers[i], prepare_errors[i].c_str(),
                   lines[i].c_str());
      ++failures;
      continue;
    }
    const service::CheckResponse& resp = pending[i].Get();
    if (!resp.status.ok()) {
      std::fprintf(stderr, "[%zu] line %zu: error: %s\n  request: %s\n", i,
                   line_numbers[i], resp.status.ToString().c_str(),
                   lines[i].c_str());
      ++failures;
      continue;
    }
    std::printf("[%zu] satisfiable=%s engine=%s verdict=%s ms=%.3f "
                "nodes=%zu%s%s\n",
                i, analysis::AnswerName(resp.decision.satisfiable),
                resp.decision.engine.c_str(), VerdictName(resp.verdict),
                static_cast<double>(resp.elapsed.count()) / 1000.0,
                resp.decision.nodes_explored,
                resp.decision.exhausted_budget ? " budget=exhausted" : "",
                resp.cache_hit ? " cache=hit" : "");
  }
  if (sopts.cache_capacity > 0) {
    service::LruCache<service::CheckResponse>::Stats cs = svc.cache_stats();
    std::fprintf(stderr, "cache: %llu hits, %llu misses\n",
                 static_cast<unsigned long long>(cs.hits),
                 static_cast<unsigned long long>(cs.misses));
  }
  // End-of-run latency summary from the service's request-latency
  // histogram (log2 buckets: percentiles are bucket upper bounds,
  // within 2x). Per-request latency already printed on each line.
  if (obs::MetricsEnabled()) {
    obs::MetricsSnapshot snapshot = service::MetricsSnapshot();
    const obs::HistogramSnapshot* latency =
        snapshot.histogram("service.latency_us");
    if (latency != nullptr && latency->total > 0) {
      std::fprintf(
          stderr, "latency: %llu requests, p50<=%lluus p90<=%lluus p99<=%lluus\n",
          static_cast<unsigned long long>(latency->total),
          static_cast<unsigned long long>(latency->Percentile(0.50)),
          static_cast<unsigned long long>(latency->Percentile(0.90)),
          static_cast<unsigned long long>(latency->Percentile(0.99)));
    }
    if (show_stats) std::fputs(snapshot.ToText().c_str(), stderr);
  } else if (show_stats) {
    std::fprintf(stderr, "stats: metrics disabled (ACCLTL_METRICS=0)\n");
  }
  FinishTrace("batch", trace_out);
  if (failures > 0) {
    std::fprintf(stderr, "batch: %zu of %zu requests failed\n", failures,
                 lines.size());
    return 1;
  }
  return 0;
}

// --- monitor: step-script parsing -------------------------------------------

void SkipSpace(const std::string& s, size_t* pos) {
  while (*pos < s.size() && (s[*pos] == ' ' || s[*pos] == '\t')) ++*pos;
}

/// Parses one literal value: a double-quoted string (\" and \\ escapes),
/// a decimal integer, or true/false — the same value shapes the
/// instance text format uses.
bool ParseValueToken(const std::string& s, size_t* pos, Value* out,
                     std::string* err) {
  SkipSpace(s, pos);
  if (*pos >= s.size()) {
    *err = "expected a value";
    return false;
  }
  if (s[*pos] == '"') {
    std::string text;
    for (size_t i = *pos + 1; i < s.size(); ++i) {
      if (s[i] == '\\' && i + 1 < s.size()) {
        text.push_back(s[++i]);
      } else if (s[i] == '"') {
        *pos = i + 1;
        *out = Value::Str(std::move(text));
        return true;
      } else {
        text.push_back(s[i]);
      }
    }
    *err = "unterminated string literal";
    return false;
  }
  if (s.compare(*pos, 4, "true") == 0) {
    *pos += 4;
    *out = Value::Bool(true);
    return true;
  }
  if (s.compare(*pos, 5, "false") == 0) {
    *pos += 5;
    *out = Value::Bool(false);
    return true;
  }
  size_t start = *pos;
  if (*pos < s.size() && (s[*pos] == '-' || s[*pos] == '+')) ++*pos;
  while (*pos < s.size() && std::isdigit(static_cast<unsigned char>(s[*pos]))) {
    ++*pos;
  }
  if (*pos == start || (*pos == start + 1 && !std::isdigit(static_cast<
                                                 unsigned char>(s[start])))) {
    *err = "expected a value (quoted string, integer, or true/false)";
    return false;
  }
  *out = Value::Int(std::stoll(s.substr(start, *pos - start)));
  return true;
}

/// Parses `Name(v, v, ...)`; returns the name and values.
bool ParseCall(const std::string& s, size_t* pos, std::string* name,
               Tuple* values, std::string* err) {
  SkipSpace(s, pos);
  size_t start = *pos;
  while (*pos < s.size() &&
         (std::isalnum(static_cast<unsigned char>(s[*pos])) ||
          s[*pos] == '_')) {
    ++*pos;
  }
  if (*pos == start) {
    *err = "expected a name";
    return false;
  }
  *name = s.substr(start, *pos - start);
  SkipSpace(s, pos);
  if (*pos >= s.size() || s[*pos] != '(') {
    *err = "expected '(' after '" + *name + "'";
    return false;
  }
  ++*pos;
  values->clear();
  SkipSpace(s, pos);
  if (*pos < s.size() && s[*pos] == ')') {
    ++*pos;
    return true;
  }
  for (;;) {
    Value v;
    if (!ParseValueToken(s, pos, &v, err)) return false;
    values->push_back(std::move(v));
    SkipSpace(s, pos);
    if (*pos < s.size() && s[*pos] == ',') {
      ++*pos;
      continue;
    }
    if (*pos < s.size() && s[*pos] == ')') {
      ++*pos;
      return true;
    }
    *err = "expected ',' or ')' in value list";
    return false;
  }
}

/// Parses one step line: `Method(binding...) [-> Rel(v...) [; ...]]`.
bool ParseStepLine(const std::string& line, const schema::Schema& s,
                   schema::Access* access, schema::Response* response,
                   std::string* err) {
  size_t pos = 0;
  std::string method_name;
  if (!ParseCall(line, &pos, &method_name, &access->binding, err)) {
    return false;
  }
  Result<schema::AccessMethodId> method = s.FindMethod(method_name);
  if (!method.ok()) {
    *err = "unknown access method '" + method_name + "'";
    return false;
  }
  access->method = method.value();
  const std::string& relation_name =
      s.relation(s.method(access->method).relation).name;
  response->clear();
  SkipSpace(line, &pos);
  if (pos >= line.size()) return true;  // no '->': empty response
  if (line.compare(pos, 2, "->") != 0) {
    *err = "expected '->' or end of line after the access";
    return false;
  }
  pos += 2;
  for (;;) {
    std::string rel;
    Tuple tuple;
    if (!ParseCall(line, &pos, &rel, &tuple, err)) return false;
    if (rel != relation_name) {
      *err = "response fact '" + rel + "' is not of the method's relation '" +
             relation_name + "'";
      return false;
    }
    response->insert(std::move(tuple));
    SkipSpace(line, &pos);
    if (pos < line.size() && line[pos] == ';') {
      ++pos;
      continue;
    }
    if (pos >= line.size()) return true;
    *err = "expected ';' or end of line after a response fact";
    return false;
  }
}

int RunMonitor(int argc, char** argv) {
  if (argc < 5) return Usage();
  Result<schema::Schema> s = LoadSchema(argv[2]);
  if (!s.ok()) {
    std::fprintf(stderr, "schema: %s\n", s.status().ToString().c_str());
    return 1;
  }
  std::string initial_file;
  std::chrono::milliseconds deadline{0};
  for (int i = 5; i < argc; ++i) {
    if (std::strcmp(argv[i], "--initial") == 0) {
      if (i + 1 >= argc) return MissingValue("monitor", argv[i]);
      initial_file = argv[++i];
    } else if (std::strcmp(argv[i], "--deadline-ms") == 0) {
      if (i + 1 >= argc) return MissingValue("monitor", argv[i]);
      Result<size_t> value = ParsePositiveCount("--deadline-ms", argv[++i]);
      if (!value.ok()) {
        std::fprintf(stderr, "%s\n", value.status().ToString().c_str());
        return 2;
      }
      deadline = std::chrono::milliseconds(value.value());
    } else {
      return UnknownFlag("monitor", argv[i]);
    }
  }

  schema::Instance initial(s.value());
  if (!initial_file.empty()) {
    Result<std::string> facts = ReadFile(initial_file);
    if (!facts.ok()) {
      std::fprintf(stderr, "initial: %s\n",
                   facts.status().ToString().c_str());
      return 1;
    }
    Result<schema::Instance> parsed =
        schema::ParseInstance(facts.value(), s.value());
    if (!parsed.ok()) {
      std::fprintf(stderr, "initial: %s\n",
                   parsed.status().ToString().c_str());
      return 1;
    }
    initial = std::move(parsed.value());
  }

  // Read the step script ('-' = stdin), keeping 1-based line numbers
  // through blank/comment filtering (same contract as batch).
  std::string steps_text;
  if (std::strcmp(argv[4], "-") == 0) {
    std::ostringstream buf;
    buf << std::cin.rdbuf();
    steps_text = buf.str();
  } else {
    Result<std::string> text = ReadFile(argv[4]);
    if (!text.ok()) {
      std::fprintf(stderr, "steps: %s\n", text.status().ToString().c_str());
      return 1;
    }
    steps_text = std::move(text.value());
  }
  std::vector<std::string> lines;
  std::vector<size_t> line_numbers;
  {
    std::istringstream in(steps_text);
    std::string line;
    for (size_t line_no = 1; std::getline(in, line); ++line_no) {
      size_t first = line.find_first_not_of(" \t\r");
      if (first == std::string::npos || line[first] == '#') continue;
      size_t last = line.find_last_not_of(" \t\r");
      lines.push_back(line.substr(first, last - first + 1));
      line_numbers.push_back(line_no);
    }
  }

  service::AnalysisService svc;
  Result<std::shared_ptr<const service::PreparedQuery>> p =
      svc.Prepare(s.value(), std::string(argv[3]));
  if (!p.ok()) {
    std::fprintf(stderr, "formula: %s\n", p.status().ToString().c_str());
    return 1;
  }
  Result<session::SessionId> id =
      svc.OpenSession(p.value(), std::move(initial));
  if (!id.ok()) {
    std::fprintf(stderr, "open: %s\n", id.status().ToString().c_str());
    return 1;
  }
  {
    Result<session::SessionInfo> info = svc.DescribeSession(id.value());
    if (info.ok()) {
      std::printf("backend    : %s\n",
                  session::BackendName(info.value().backend));
    }
  }

  size_t failures = 0;
  for (size_t i = 0; i < lines.size(); ++i) {
    service::StepRequest request;
    std::string parse_error;
    if (!ParseStepLine(lines[i], s.value(), &request.access,
                       &request.response, &parse_error)) {
      std::fprintf(stderr, "[%zu] line %zu: error: %s\n  step: %s\n", i,
                   line_numbers[i], parse_error.c_str(), lines[i].c_str());
      ++failures;
      continue;
    }
    request.deadline = deadline;
    session::StepResult result = svc.StepSession(id.value(), request);
    if (!result.status.ok()) {
      std::fprintf(stderr, "[%zu] line %zu: error: %s\n  step: %s\n", i,
                   line_numbers[i], result.status.ToString().c_str(),
                   lines[i].c_str());
      ++failures;
      continue;
    }
    std::printf("[%zu] verdict=%s holds=%s final=%s steps=%zu\n", i,
                monitor::VerdictName(result.verdict),
                result.currently_holds ? "yes" : "no",
                result.is_final ? "yes" : "no", result.steps);
  }
  Result<session::SessionInfo> closed = svc.CloseSession(id.value());
  if (closed.ok()) {
    std::printf("final      : verdict=%s holds=%s steps=%zu\n",
                monitor::VerdictName(closed.value().verdict),
                closed.value().currently_holds ? "yes" : "no",
                closed.value().steps);
  }
  if (failures > 0) {
    std::fprintf(stderr, "monitor: %zu of %zu steps failed\n", failures,
                 lines.size());
    return 1;
  }
  return 0;
}

int RunFuzz(int argc, char** argv) {
  testing::FuzzOptions options;
  options.num_seeds = 50;
  std::string trace_out;
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "--shrink") == 0) {
      options.shrink = true;
    } else if (int c = ConsumeTraceFlag("fuzz", argc, argv, &i,
                                        &trace_out)) {
      if (c == 2) return 2;
    } else if (std::strcmp(argv[i], "--engine-pair") == 0) {
      if (i + 1 >= argc) return MissingValue("fuzz", argv[i]);
      std::string pair = argv[++i];
      if (pair == "all") {
        options.pairs.clear();
      } else {
        bool known = false;
        for (const std::string& p : testing::EnginePairs()) {
          known = known || p == pair;
        }
        if (!known) {
          std::fprintf(stderr, "fuzz: unknown engine pair '%s' (have:",
                       pair.c_str());
          for (const std::string& p : testing::EnginePairs()) {
            std::fprintf(stderr, " %s", p.c_str());
          }
          std::fprintf(stderr, ")\n");
          return 2;
        }
        options.pairs.push_back(pair);
      }
    } else if (std::strcmp(argv[i], "--out") == 0) {
      if (i + 1 >= argc) return MissingValue("fuzz", argv[i]);
      options.out_dir = argv[++i];
    } else if (std::strcmp(argv[i], "--seeds") == 0 ||
               std::strcmp(argv[i], "--seed-start") == 0) {
      const char* flag = argv[i];
      if (i + 1 >= argc) return MissingValue("fuzz", flag);
      Result<size_t> value = ParsePositiveCount(flag, argv[++i]);
      if (!value.ok()) {
        std::fprintf(stderr, "%s\n", value.status().ToString().c_str());
        return 2;
      }
      if (std::strcmp(flag, "--seeds") == 0) {
        options.num_seeds = value.value();
      } else {
        options.seed_start = value.value();
      }
    } else {
      return UnknownFlag("fuzz", argv[i]);
    }
  }
  if (!trace_out.empty()) obs::StartTracing();
  testing::FuzzSummary summary = testing::RunFuzz(options, stderr);
  FinishTrace("fuzz", trace_out);
  std::printf("fuzz: %zu cases, %zu failures, %zu skipped\n", summary.cases,
              summary.failures, summary.skipped);
  if (summary.failures > 0) {
    // The per-seed detail is already on stderr (RunFuzz reports each
    // failing seed and repro path as it happens); summarize before the
    // failing exit so scripted callers have both.
    std::fprintf(stderr, "fuzz: %zu of %zu cases diverged\n",
                 summary.failures, summary.cases);
    return 1;
  }
  return 0;
}

int Main(int argc, char** argv) {
  if (argc < 2) return Usage();
  if (std::strcmp(argv[1], "check") == 0) return RunCheck(argc, argv);
  if (std::strcmp(argv[1], "plan") == 0) return RunPlan(argc, argv);
  if (std::strcmp(argv[1], "answer") == 0) return RunAnswer(argc, argv);
  if (std::strcmp(argv[1], "explore") == 0) return RunExplore(argc, argv);
  if (std::strcmp(argv[1], "batch") == 0) return RunBatch(argc, argv);
  if (std::strcmp(argv[1], "monitor") == 0) return RunMonitor(argc, argv);
  if (std::strcmp(argv[1], "fuzz") == 0) return RunFuzz(argc, argv);
  return Usage();
}

}  // namespace
}  // namespace accltl

int main(int argc, char** argv) { return accltl::Main(argc, argv); }
