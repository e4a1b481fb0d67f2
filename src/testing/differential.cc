#include "src/testing/differential.h"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <fstream>
#include <functional>
#include <sstream>
#include <tuple>

#include "src/accltl/fragments.h"
#include "src/accltl/parser.h"
#include "src/accltl/semantics.h"
#include "src/analysis/decide.h"
#include "src/analysis/zero_solver.h"
#include "src/automata/compile.h"
#include "src/automata/emptiness.h"
#include "src/automata/progressive.h"
#include "src/common/rng.h"
#include "src/engine/cancel.h"
#include "src/logic/cq.h"
#include "src/oracle/oracle.h"
#include "src/schema/lts.h"
#include "src/schema/text_format.h"
#include "src/service/analysis_service.h"
#include "src/session/monitored_session.h"
#include "src/workload/workload.h"

namespace accltl {
namespace testing {

namespace {

using logic::NodeKind;
using logic::PosFormula;
using logic::PosFormulaPtr;

uint64_t Fnv1a(const std::string& s) {
  // Deterministic across platforms (std::hash is not).
  uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

/// Fresh ("labelled-null") values carry process-global counter state:
/// two compilations of the same query in one process can name the
/// same witness "~n0" and "~n180". Witness identity must be modulo
/// that naming, so fresh values are ranked by (type, prefix, numeric
/// suffix) within the witness — stable under a counter offset — and
/// encoded as "@k".
bool IsFreshValue(const Value& v) {
  if (v.is_string()) return !v.AsString().empty() && v.AsString()[0] == '~';
  if (v.is_int()) return v.AsInt() <= logic::FreshValueFactory::kFreshIntBase;
  return false;
}

/// Sort key that orders fresh values by their generation index rather
/// than lexicographically ("~n9" before "~n10", however the counter
/// was offset).
std::tuple<int, std::string, int64_t> FreshRankKey(const Value& v) {
  if (v.is_int()) return {0, "", -v.AsInt()};
  const std::string& s = v.AsString();
  size_t digits = s.size();
  while (digits > 0 && std::isdigit(static_cast<unsigned char>(
                           s[digits - 1]))) {
    --digits;
  }
  int64_t n = -1;
  if (digits < s.size() && s.size() - digits <= 18) {
    n = 0;
    for (size_t i = digits; i < s.size(); ++i) n = n * 10 + (s[i] - '0');
  }
  return {1, s.substr(0, digits), n};
}

/// Name-independent, fresh-value-canonical, printable witness
/// identity: method ids, bindings, and responses with fresh values
/// replaced by their witness-local ranks and response tuples sorted
/// by their canonical encoding (raw std::set order is not stable
/// under fresh renaming). Renaming metamorphic checks and one-shot vs
/// service comparisons both compare substance, not naming accidents.
std::string WitnessKey(const schema::AccessPath& path,
                       const schema::Schema& schema) {
  (void)schema;
  std::map<Value, std::string> canon;
  {
    std::vector<Value> fresh;
    for (const schema::AccessStep& step : path.steps()) {
      for (const Value& v : step.access.binding) {
        if (IsFreshValue(v)) fresh.push_back(v);
      }
      for (const Tuple& t : step.response) {
        for (const Value& v : t) {
          if (IsFreshValue(v)) fresh.push_back(v);
        }
      }
    }
    std::sort(fresh.begin(), fresh.end(),
              [](const Value& a, const Value& b) {
                return FreshRankKey(a) < FreshRankKey(b);
              });
    for (const Value& v : fresh) {
      canon.emplace(v, "@" + std::to_string(canon.size()));
    }
  }
  auto enc = [&](const Value& v) {
    auto it = canon.find(v);
    return it != canon.end() ? it->second : v.ToString();
  };
  std::string out;
  for (const schema::AccessStep& step : path.steps()) {
    out += "m" + std::to_string(step.access.method) + "(";
    for (const Value& v : step.access.binding) out += enc(v) + ",";
    out += ")->{";
    std::vector<std::string> tuples;
    for (const Tuple& t : step.response) {
      std::string te = "(";
      for (const Value& v : t) te += enc(v) + ",";
      tuples.push_back(te + ")");
    }
    std::sort(tuples.begin(), tuples.end());
    for (const std::string& te : tuples) out += te;
    out += "} ";
  }
  return out;
}

/// Validates an engine witness with everything that does not depend on
/// the engine under test: structural validity, the engine-side
/// evaluator, the oracle's naive evaluator, and (grounded mode) the
/// grounding property. Returns "" on success, a diagnosis otherwise.
std::string CheckWitnessSound(const acc::AccPtr& f,
                              const schema::Schema& schema,
                              const schema::AccessPath& path, bool grounded,
                              const std::string& engine_name) {
  schema::Instance empty(schema);
  Status valid = path.Validate(schema);
  if (!valid.ok()) {
    return engine_name + " witness is not a well-formed access path: " +
           valid.ToString();
  }
  if (!acc::EvalOnPath(f, schema, path, empty)) {
    return engine_name +
           " witness does not satisfy the formula (engine evaluator)";
  }
  if (!oracle::NaiveEvalOnPath(f, schema, path, empty)) {
    return engine_name +
           " witness does not satisfy the formula (naive evaluator)";
  }
  if (grounded && !path.IsGrounded(schema, empty)) {
    return engine_name + " witness is not grounded";
  }
  return "";
}

// --- Formula rewriting (shrinks, renames, id remaps) --------------------------

/// Rebuilds a sentence with every atom's predicate id remapped through
/// `rel_map` / `method_map` (-1 = dropped → returns null) and every
/// constant passed through `value_fn` (identity by default).
PosFormulaPtr RewriteSentence(
    const PosFormulaPtr& f, const std::vector<int>& rel_map,
    const std::vector<int>& method_map,
    const std::function<Value(const Value&)>& value_fn) {
  auto term = [&](const logic::Term& t) {
    return t.is_const() ? logic::Term::Const(value_fn(t.value())) : t;
  };
  switch (f->kind()) {
    case NodeKind::kTrue:
    case NodeKind::kFalse:
      return f;
    case NodeKind::kAtom: {
      logic::PredicateRef pred = f->pred();
      if (pred.space == logic::PredSpace::kBind) {
        if (pred.id >= static_cast<int>(method_map.size()) ||
            method_map[static_cast<size_t>(pred.id)] < 0) {
          return nullptr;
        }
        pred.id = method_map[static_cast<size_t>(pred.id)];
      } else {
        if (pred.id >= static_cast<int>(rel_map.size()) ||
            rel_map[static_cast<size_t>(pred.id)] < 0) {
          return nullptr;
        }
        pred.id = rel_map[static_cast<size_t>(pred.id)];
      }
      std::vector<logic::Term> terms;
      for (const logic::Term& t : f->terms()) terms.push_back(term(t));
      return PosFormula::MakeAtom(pred, std::move(terms));
    }
    case NodeKind::kEq:
      return PosFormula::Eq(term(f->lhs()), term(f->rhs()));
    case NodeKind::kNeq:
      return PosFormula::Neq(term(f->lhs()), term(f->rhs()));
    case NodeKind::kAnd:
    case NodeKind::kOr: {
      std::vector<PosFormulaPtr> children;
      for (const PosFormulaPtr& c : f->children()) {
        PosFormulaPtr r = RewriteSentence(c, rel_map, method_map, value_fn);
        if (r == nullptr) return nullptr;
        children.push_back(std::move(r));
      }
      return f->kind() == NodeKind::kAnd ? PosFormula::And(std::move(children))
                                         : PosFormula::Or(std::move(children));
    }
    case NodeKind::kExists: {
      PosFormulaPtr body =
          RewriteSentence(f->body(), rel_map, method_map, value_fn);
      if (body == nullptr) return nullptr;
      return PosFormula::Exists(f->bound_vars(), std::move(body));
    }
  }
  return nullptr;
}

acc::AccPtr RewriteAcc(const acc::AccPtr& f, const std::vector<int>& rel_map,
                       const std::vector<int>& method_map,
                       const std::function<Value(const Value&)>& value_fn) {
  switch (f->kind()) {
    case acc::AccKind::kAtom: {
      PosFormulaPtr s =
          RewriteSentence(f->sentence(), rel_map, method_map, value_fn);
      return s == nullptr ? nullptr : acc::AccFormula::Atom(std::move(s));
    }
    case acc::AccKind::kNot: {
      acc::AccPtr c = RewriteAcc(f->child(), rel_map, method_map, value_fn);
      return c == nullptr ? nullptr : acc::AccFormula::Not(std::move(c));
    }
    case acc::AccKind::kNext: {
      acc::AccPtr c = RewriteAcc(f->child(), rel_map, method_map, value_fn);
      return c == nullptr ? nullptr : acc::AccFormula::Next(std::move(c));
    }
    case acc::AccKind::kUntil: {
      acc::AccPtr l = RewriteAcc(f->lhs(), rel_map, method_map, value_fn);
      acc::AccPtr r = RewriteAcc(f->rhs(), rel_map, method_map, value_fn);
      return l == nullptr || r == nullptr
                 ? nullptr
                 : acc::AccFormula::Until(std::move(l), std::move(r));
    }
    case acc::AccKind::kAnd:
    case acc::AccKind::kOr: {
      std::vector<acc::AccPtr> children;
      for (const acc::AccPtr& c : f->children()) {
        acc::AccPtr r = RewriteAcc(c, rel_map, method_map, value_fn);
        if (r == nullptr) return nullptr;
        children.push_back(std::move(r));
      }
      return f->kind() == acc::AccKind::kAnd
                 ? acc::AccFormula::And(std::move(children))
                 : acc::AccFormula::Or(std::move(children));
    }
  }
  return nullptr;
}

std::vector<int> IdentityMap(int n) {
  std::vector<int> m(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) m[static_cast<size_t>(i)] = i;
  return m;
}

acc::AccPtr RenameConstants(const acc::AccPtr& f, const schema::Schema& schema,
                            const std::string& prefix) {
  return RewriteAcc(f, IdentityMap(schema.num_relations()),
                    IdentityMap(schema.num_access_methods()),
                    [&prefix](const Value& v) {
                      return v.is_string() ? Value::Str(prefix + v.AsString())
                                           : v;
                    });
}

// --- Engine option presets ----------------------------------------------------

analysis::ZeroSolverOptions ZeroOpts() {
  analysis::ZeroSolverOptions z;
  z.max_path_length = 3;
  // Worst-case sweeps (deep guarded-Until nests over high-arity
  // schemas) hit the budgets, flag exhausted_budget, and the check
  // degrades to witness-soundness only. The node budget bounds node
  // COUNT; the subset cap bounds per-node work (the fusion-quotient
  // pool makes binding groups large, so uncapped subset enumeration
  // is combinatorial per node).
  z.max_nodes = 20000;
  z.max_subsets_per_access = 512;
  return z;
}

/// Wall-clock backstop for one engine call. Node budgets alone do not
/// bound runtime (a single node over a 63-fact quotient pool can do
/// thousands of transition builds), and a hanging seed would stall the
/// whole nightly sweep. A fired deadline surfaces as `cancelled`,
/// which every check treats as "no claim" (skip) — deadlines can make
/// a seed skip, never produce a false verdict.
constexpr std::chrono::milliseconds kEngineDeadline{2000};

engine::ExecOptions GuardedExec(engine::CancelToken* token) {
  token->ArmDeadlineAfter(kEngineDeadline);
  engine::ExecOptions exec;
  exec.cancel = token;
  return exec;
}

automata::WitnessSearchOptions BoundedOpts() {
  automata::WitnessSearchOptions b;
  b.max_path_length = 3;
  b.max_nodes = 20000;
  return b;
}

oracle::OracleOptions OracleOpts() {
  oracle::OracleOptions o;
  o.max_path_length = 2;
  o.max_response_facts = 2;
  o.num_fresh_values = 2;
  o.max_nodes = 20000;
  o.max_response_candidates = 256;
  return o;
}

/// Tight decomposition caps for the Datalog certifier: the pipeline is
/// worst-case exponential in stages × Φ-supersets × crossing choices,
/// and a fuzz case must finish in milliseconds, not minutes. Overflow
/// surfaces as kResourceExhausted, which the checks treat as "no
/// claim" — exactly the pipeline's documented degradation mode.
automata::DecomposeOptions DatalogCaps() {
  automata::DecomposeOptions d;
  d.max_variants = 64;
  d.max_phi = 8;
  d.max_stages = 5;
  return d;
}

// --- The agreement checks -----------------------------------------------------

DiffOutcome Agree() { return DiffOutcome{}; }

DiffOutcome Skip() {
  DiffOutcome o;
  o.skipped = true;
  return o;
}

DiffOutcome Diverge(const std::string& diagnosis) {
  DiffOutcome o;
  o.ok = false;
  o.diagnosis = diagnosis;
  return o;
}

DiffOutcome RunOracleVsZero(const FuzzCase& c) {
  analysis::ZeroSolverOptions zopts = ZeroOpts();
  zopts.grounded = c.grounded;
  engine::CancelToken deadline;
  Result<analysis::ZeroSolverResult> zero = analysis::CheckZeroArySatisfiable(
      c.formula, c.schema, zopts, GuardedExec(&deadline));
  if (!zero.ok()) {
    if (zero.status().code() == StatusCode::kUnsupported) return Skip();
    return Diverge("zero solver failed: " + zero.status().ToString());
  }
  if (zero.value().satisfiable) {
    std::string bad = CheckWitnessSound(c.formula, c.schema,
                                        zero.value().witness, c.grounded,
                                        "zero solver");
    if (!bad.empty()) return Diverge(bad);
    return Agree();
  }
  if (zero.value().exhausted_budget || zero.value().cancelled) return Skip();
  // Definitive "no" from the complete engine: the oracle must not hold
  // a concrete witness. (Grounded mode is excluded at generation time —
  // the solver's grounded completeness is documented as pool-relative.)
  oracle::OracleOptions oopts = OracleOpts();
  oopts.grounded = c.grounded;
  oracle::OracleResult o = oracle::OracleDecide(c.formula, c.schema, oopts);
  if (o.answer == oracle::OracleAnswer::kSat) {
    return Diverge(
        "zero solver says NO but the oracle found a witness:\n" +
        o.witness.ToString(c.schema));
  }
  return o.answer == oracle::OracleAnswer::kUnknown ? Skip() : Agree();
}

DiffOutcome RunOracleVsAutomata(const FuzzCase& c) {
  Result<automata::AAutomaton> compiled =
      automata::CompileToAutomaton(c.formula, c.schema);
  if (!compiled.ok()) {
    if (compiled.status().code() == StatusCode::kUnsupported) return Skip();
    return Diverge("compile failed: " + compiled.status().ToString());
  }
  automata::WitnessSearchOptions bopts = BoundedOpts();
  bopts.grounded = c.grounded;
  engine::CancelToken deadline;
  automata::WitnessSearchResult r = automata::BoundedWitnessSearch(
      compiled.value(), c.schema, schema::Instance(c.schema), bopts,
      GuardedExec(&deadline));
  if (r.found) {
    std::string bad = CheckWitnessSound(c.formula, c.schema, r.witness,
                                        c.grounded, "bounded search");
    if (!bad.empty()) return Diverge(bad);
    return Agree();
  }
  // The bounded search alone is only a semi-decision — "not found" is
  // no claim. The Datalog pipeline's emptiness certificate IS a claim,
  // and only then is the (exponential) oracle sweep worth running.
  if (!c.grounded && !r.exhausted_budget && !r.cancelled) {
    Result<bool> empty =
        automata::EmptinessViaDatalog(compiled.value(), c.schema, DatalogCaps());
    if (empty.ok() && empty.value()) {
      oracle::OracleOptions oopts = OracleOpts();
      oopts.grounded = c.grounded;
      oracle::OracleResult o =
          oracle::OracleDecide(c.formula, c.schema, oopts);
      if (o.answer == oracle::OracleAnswer::kSat) {
        return Diverge(
            "Datalog pipeline certifies EMPTY but the oracle found a "
            "witness:\n" +
            o.witness.ToString(c.schema));
      }
    }
  }
  return Skip();
}

DiffOutcome RunZeroVsAutomata(const FuzzCase& c) {
  acc::FragmentInfo info = acc::Analyze(c.formula);
  if (!info.binding_positive) return Skip();
  analysis::ZeroSolverOptions zopts = ZeroOpts();
  zopts.grounded = c.grounded;
  engine::CancelToken zero_deadline;
  Result<analysis::ZeroSolverResult> zero = analysis::CheckZeroArySatisfiable(
      c.formula, c.schema, zopts, GuardedExec(&zero_deadline));
  if (!zero.ok()) {
    if (zero.status().code() == StatusCode::kUnsupported) return Skip();
    return Diverge("zero solver failed: " + zero.status().ToString());
  }
  Result<automata::AAutomaton> compiled =
      automata::CompileToAutomaton(c.formula, c.schema);
  if (!compiled.ok()) {
    if (compiled.status().code() == StatusCode::kUnsupported) return Skip();
    return Diverge("compile failed: " + compiled.status().ToString());
  }
  automata::WitnessSearchOptions bopts = BoundedOpts();
  bopts.grounded = c.grounded;
  engine::CancelToken search_deadline;
  automata::WitnessSearchResult search = automata::BoundedWitnessSearch(
      compiled.value(), c.schema, schema::Instance(c.schema), bopts,
      GuardedExec(&search_deadline));
  if (search.found) {
    std::string bad = CheckWitnessSound(c.formula, c.schema, search.witness,
                                        c.grounded, "bounded search");
    if (!bad.empty()) return Diverge(bad);
    if (!zero.value().satisfiable && !zero.value().exhausted_budget &&
        !zero.value().cancelled) {
      return Diverge(
          "zero solver says NO but the bounded search found a witness:\n" +
          search.witness.ToString(c.schema));
    }
  }
  if (zero.value().satisfiable) {
    std::string bad = CheckWitnessSound(c.formula, c.schema,
                                        zero.value().witness, c.grounded,
                                        "zero solver");
    if (!bad.empty()) return Diverge(bad);
  }
  // Cross-check against the Datalog certificate when available: it is
  // exact, so a zero-solver witness against an EMPTY certificate is
  // always a bug. The converse needs care: the solver's "no" is only
  // definitive up to its max_path_length (the depth cutoff is part of
  // the options contract, not a flagged budget), while the certificate
  // is length-unbounded — so NON-EMPTY vs "no" is flagged only when
  // the oracle confirms a concrete witness *within the solver's
  // length bound* (then the solver really missed it; this is exactly
  // how the fusion-quotient pool hole was caught).
  if (!c.grounded) {
    Result<bool> empty =
        automata::EmptinessViaDatalog(compiled.value(), c.schema, DatalogCaps());
    if (empty.ok()) {
      if (empty.value() && zero.value().satisfiable) {
        return Diverge(
            "Datalog pipeline certifies EMPTY but the zero solver has a "
            "witness:\n" +
            zero.value().witness.ToString(c.schema));
      }
      if (!empty.value() && !zero.value().satisfiable &&
          !zero.value().exhausted_budget && !zero.value().cancelled) {
        oracle::OracleOptions oopts = OracleOpts();
        oracle::OracleResult o =
            oracle::OracleDecide(c.formula, c.schema, oopts);
        if (o.answer == oracle::OracleAnswer::kSat) {
          return Diverge(
              "Datalog pipeline certifies NON-EMPTY and the oracle holds "
              "a witness, but the zero solver says NO:\n" +
              o.witness.ToString(c.schema));
        }
        return Skip();  // unresolved: may be the solver's length bound
      }
    }
  }
  return Agree();
}

analysis::DecideOptions OneShotOptions(const FuzzCase& c) {
  analysis::DecideOptions d;
  d.grounded = c.grounded;
  d.zero = ZeroOpts();
  d.bounded = BoundedOpts();
  return d;
}

std::string DecisionKey(const analysis::Decision& d,
                        const schema::Schema& schema) {
  std::ostringstream out;
  out << analysis::AnswerName(d.satisfiable) << '|' << d.engine << '|'
      << d.nodes_explored << '|' << d.exhausted_budget << '|' << d.cancelled
      << '|' << d.has_witness << '|'
      << (d.has_witness ? WitnessKey(d.witness, schema) : "");
  return out.str();
}

/// `schema` with every relation and method name prefixed by "X"; ids,
/// position types, inputs and promises unchanged, so every formula AST
/// over `schema` stays valid against the result.
schema::Schema PrefixNames(const schema::Schema& schema) {
  schema::Schema renamed;
  for (schema::RelationId r = 0; r < schema.num_relations(); ++r) {
    renamed.AddRelation("X" + schema.relation(r).name,
                        schema.relation(r).position_types);
  }
  for (schema::AccessMethodId m = 0; m < schema.num_access_methods(); ++m) {
    const schema::AccessMethod& am = schema.method(m);
    renamed.AddAccessMethod("X" + am.name, am.relation, am.input_positions,
                            am.exact, am.idempotent, am.result_bound);
  }
  return renamed;
}

DiffOutcome RunServicePair(const FuzzCase& c) {
  analysis::DecideOptions oneshot_opts = OneShotOptions(c);
  engine::CancelToken oneshot_deadline;
  oneshot_opts.exec = GuardedExec(&oneshot_deadline);
  Result<analysis::Decision> oneshot =
      analysis::DecideSatisfiability(c.formula, c.schema, oneshot_opts);
  if (!oneshot.ok()) {
    if (oneshot.status().code() == StatusCode::kUnsupported) return Skip();
    return Diverge("one-shot decide failed: " + oneshot.status().ToString());
  }
  if (oneshot.value().cancelled) return Skip();
  std::string expected = DecisionKey(oneshot.value(), c.schema);

  service::ServiceOptions sopts;
  sopts.cache_capacity = 64;
  service::AnalysisService svc(sopts);
  service::PrepareOptions popts;
  popts.grounded = c.grounded;
  popts.zero = ZeroOpts();
  popts.bounded = BoundedOpts();
  Result<std::shared_ptr<const service::PreparedQuery>> prepared =
      svc.Prepare(c.schema, c.formula, popts);
  if (!prepared.ok()) {
    return Diverge("service Prepare failed where one-shot succeeded: " +
                   prepared.status().ToString());
  }

  // prepared ≡ one-shot, and thread-count invariance at 1/2/8 workers —
  // except when the node budget is the binding constraint, the one
  // case the determinism guarantee scopes out.
  bool budget_edge = oneshot.value().exhausted_budget;
  for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    service::CheckRequest req;
    req.num_threads = threads;
    req.use_cache = false;
    req.deadline = kEngineDeadline;
    service::CheckResponse resp = svc.Check(*prepared.value(), req);
    if (!resp.status.ok()) {
      return Diverge("service Check failed: " + resp.status.ToString());
    }
    if (resp.verdict != service::Verdict::kCompleted) return Skip();
    if (budget_edge || resp.decision.exhausted_budget) continue;
    std::string got = DecisionKey(resp.decision, c.schema);
    if (got != expected) {
      return Diverge("service decision differs from one-shot at " +
                     std::to_string(threads) + " threads:\n  one-shot: " +
                     expected + "\n  service : " + got);
    }
  }
  if (budget_edge) return Skip();

  // Async submission and the result cache must serve the same bytes.
  service::CheckRequest req;
  req.use_cache = true;
  req.deadline = kEngineDeadline;
  service::CheckResponse first = svc.Check(*prepared.value(), req);
  service::PendingResult pending = svc.Submit(prepared.value(), req);
  const service::CheckResponse& second = pending.Get();
  if (!first.status.ok() || !second.status.ok()) {
    return Diverge("cached/async service path failed");
  }
  if (first.verdict != service::Verdict::kCompleted ||
      second.verdict != service::Verdict::kCompleted) {
    return Skip();
  }
  if (DecisionKey(first.decision, c.schema) != expected ||
      DecisionKey(second.decision, c.schema) != expected) {
    return Diverge("cached/async service decision differs from one-shot");
  }

  // The cache key is name-free: the same request against a renamed
  // schema MUST replay from the warm cache, with the byte-identical
  // decision a fresh one-shot search on the renamed schema produces.
  schema::Schema renamed = PrefixNames(c.schema);
  Result<std::shared_ptr<const service::PreparedQuery>> twin =
      svc.Prepare(renamed, c.formula, popts);
  if (!twin.ok()) {
    return Diverge("service Prepare failed on renamed schema: " +
                   twin.status().ToString());
  }
  service::CheckResponse replay = svc.Check(*twin.value(), req);
  if (!replay.status.ok()) {
    return Diverge("Check failed on renamed schema: " +
                   replay.status.ToString());
  }
  if (!replay.cache_hit) {
    return Diverge("renamed-schema request missed the result cache");
  }
  engine::CancelToken fresh_deadline;
  oneshot_opts.exec = GuardedExec(&fresh_deadline);
  Result<analysis::Decision> fresh =
      analysis::DecideSatisfiability(c.formula, renamed, oneshot_opts);
  if (!fresh.ok()) {
    return Diverge("fresh decide failed on renamed schema: " +
                   fresh.status().ToString());
  }
  if (fresh.value().cancelled || fresh.value().exhausted_budget) {
    return Skip();
  }
  if (DecisionKey(replay.decision, renamed) !=
      DecisionKey(fresh.value(), renamed)) {
    return Diverge("renamed-schema cache replay differs from fresh search:\n"
                   "  fresh : " + DecisionKey(fresh.value(), renamed) +
                   "\n  replay: " + DecisionKey(replay.decision, renamed));
  }
  return Agree();
}

DiffOutcome RunCompactPair(const FuzzCase& c) {
  // Reference: kExact, one worker. Its DecisionKey (verdict, engine,
  // node count, witness) is the contract VisitedMode::kCompact
  // promises to reproduce byte for byte — tree-compressed storage is
  // a representation change, never a pruning change (ref equality is
  // an exact identity check, emptiness.cc "Compact mode").
  analysis::DecideOptions exact_opts = OneShotOptions(c);
  engine::CancelToken exact_deadline;
  exact_opts.exec = GuardedExec(&exact_deadline);
  Result<analysis::Decision> exact =
      analysis::DecideSatisfiability(c.formula, c.schema, exact_opts);
  if (!exact.ok()) {
    if (exact.status().code() == StatusCode::kUnsupported) return Skip();
    return Diverge("exact-mode decide failed: " + exact.status().ToString());
  }
  if (exact.value().cancelled) return Skip();
  std::string expected = DecisionKey(exact.value(), c.schema);

  // kCompact at 1/2/8 workers, kExact again at 2/8. Same budget_edge
  // carve-out as the service pair (a binding max_nodes is spent on
  // different node orders per traversal discipline). On top of the
  // DecisionKey, visited_bytes must agree ACROSS the runs of one mode:
  // logical live bytes are a function of the deduplicated node set,
  // which the engines promise is schedule-independent.
  bool budget_edge = exact.value().exhausted_budget;
  size_t compact_bytes = 0;
  size_t compact_nodes = 0;
  bool have_bytes = false;
  for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    auto decide = [&](engine::VisitedMode mode) {
      analysis::DecideOptions opts = OneShotOptions(c);
      engine::CancelToken deadline;
      opts.exec = GuardedExec(&deadline);
      opts.exec.num_threads = threads;
      opts.exec.visited_mode = mode;
      return analysis::DecideSatisfiability(c.formula, c.schema, opts);
    };
    if (threads > 1) {
      Result<analysis::Decision> again = decide(engine::VisitedMode::kExact);
      if (!again.ok()) {
        return Diverge("exact-mode decide failed at " +
                       std::to_string(threads) +
                       " threads: " + again.status().ToString());
      }
      if (again.value().cancelled) return Skip();
      if (!budget_edge && !again.value().exhausted_budget &&
          again.value().visited_bytes != exact.value().visited_bytes) {
        return Diverge("exact visited_bytes differ across worker counts: " +
                       std::to_string(exact.value().visited_bytes) +
                       "B vs " + std::to_string(again.value().visited_bytes) +
                       "B at " + std::to_string(threads) + " threads");
      }
    }
    Result<analysis::Decision> compact = decide(engine::VisitedMode::kCompact);
    if (!compact.ok()) {
      return Diverge("compact-mode decide failed at " +
                     std::to_string(threads) +
                     " threads: " + compact.status().ToString());
    }
    if (compact.value().cancelled) return Skip();
    if (budget_edge || compact.value().exhausted_budget) continue;
    std::string got = DecisionKey(compact.value(), c.schema);
    if (got != expected) {
      return Diverge("compact decision differs from exact at " +
                     std::to_string(threads) + " threads:\n  exact  : " +
                     expected + "\n  compact: " + got);
    }
    if (!have_bytes) {
      compact_bytes = compact.value().visited_bytes;
      compact_nodes = compact.value().treedb_nodes;
      have_bytes = true;
    } else if (compact.value().visited_bytes != compact_bytes ||
               compact.value().treedb_nodes != compact_nodes) {
      return Diverge(
          "compact memory stats differ across worker counts: " +
          std::to_string(compact_bytes) + "B/" +
          std::to_string(compact_nodes) + " tree nodes vs " +
          std::to_string(compact.value().visited_bytes) + "B/" +
          std::to_string(compact.value().treedb_nodes) + " at " +
          std::to_string(threads) + " threads");
    }
  }
  if (budget_edge) return Skip();
  return Agree();
}

DiffOutcome RunRenamePair(const FuzzCase& c) {
  analysis::DecideOptions opts = OneShotOptions(c);
  engine::CancelToken base_deadline;
  opts.exec = GuardedExec(&base_deadline);
  Result<analysis::Decision> base =
      analysis::DecideSatisfiability(c.formula, c.schema, opts);
  if (!base.ok()) {
    if (base.status().code() == StatusCode::kUnsupported) return Skip();
    return Diverge("decide failed: " + base.status().ToString());
  }
  if (base.value().exhausted_budget || base.value().cancelled) return Skip();

  // Relation/method renaming: ids are untouched, so the same AST must
  // produce the byte-identical decision.
  schema::Schema renamed = PrefixNames(c.schema);
  engine::CancelToken renamed_deadline;
  opts.exec = GuardedExec(&renamed_deadline);
  Result<analysis::Decision> renamed_d =
      analysis::DecideSatisfiability(c.formula, renamed, opts);
  if (!renamed_d.ok()) {
    return Diverge("decide failed after renaming relations/methods: " +
                   renamed_d.status().ToString());
  }
  if (renamed_d.value().cancelled) return Skip();
  if (DecisionKey(renamed_d.value(), renamed) !=
      DecisionKey(base.value(), c.schema)) {
    return Diverge("relation/method renaming changed the decision");
  }

  // Injective constant renaming: an isomorphism of the value space —
  // the verdict must survive (search order may legally change, so only
  // the verdict is compared).
  acc::AccPtr value_renamed = RenameConstants(c.formula, c.schema, "ren~");
  if (value_renamed != nullptr) {
    engine::CancelToken vr_deadline;
    opts.exec = GuardedExec(&vr_deadline);
    Result<analysis::Decision> vr =
        analysis::DecideSatisfiability(value_renamed, c.schema, opts);
    if (!vr.ok()) {
      return Diverge("decide failed after renaming constants: " +
                     vr.status().ToString());
    }
    if (!vr.value().exhausted_budget && !vr.value().cancelled &&
        vr.value().satisfiable != base.value().satisfiable) {
      return Diverge(std::string("constant renaming flipped the verdict: ") +
                     analysis::AnswerName(base.value().satisfiable) + " -> " +
                     analysis::AnswerName(vr.value().satisfiable));
    }
  }
  return Agree();
}

DiffOutcome RunBudgetPair(const FuzzCase& c) {
  Rng rng(c.seed ^ Fnv1a("budget-knob"));
  analysis::ZeroSolverOptions small = ZeroOpts();
  small.grounded = c.grounded;
  small.max_nodes = 50 + rng.Uniform(500);
  analysis::ZeroSolverOptions big = small;
  big.max_nodes = analysis::ZeroSolverOptions().max_nodes;

  engine::CancelToken small_deadline;
  Result<analysis::ZeroSolverResult> rs = analysis::CheckZeroArySatisfiable(
      c.formula, c.schema, small, GuardedExec(&small_deadline));
  if (!rs.ok()) {
    if (rs.status().code() == StatusCode::kUnsupported) return Skip();
    return Diverge("zero solver (small budget) failed: " +
                   rs.status().ToString());
  }
  engine::CancelToken big_deadline;
  Result<analysis::ZeroSolverResult> rb = analysis::CheckZeroArySatisfiable(
      c.formula, c.schema, big, GuardedExec(&big_deadline));
  if (!rb.ok()) {
    return Diverge("zero solver (big budget) failed: " +
                   rb.status().ToString());
  }
  if (rs.value().cancelled || rb.value().cancelled) return Skip();
  // Monotonicity: a witness is sound at any budget.
  if (rs.value().satisfiable && !rb.value().satisfiable) {
    return Diverge(
        "raising max_nodes flipped a satisfiable verdict to " +
        std::string(rb.value().exhausted_budget ? "unknown" : "no"));
  }
  // A search the small budget did NOT cut must be byte-identical to
  // the big-budget run (the budget was not binding).
  if (!rs.value().exhausted_budget) {
    if (rs.value().satisfiable != rb.value().satisfiable ||
        rb.value().exhausted_budget ||
        WitnessKey(rs.value().witness, c.schema) !=
            WitnessKey(rb.value().witness, c.schema)) {
      return Diverge("non-binding small budget changed the result");
    }
  }
  return Agree();
}

std::string LevelStatsKey(size_t depth, size_t distinct, size_t transitions,
                          size_t max_facts, bool truncated,
                          bool compare_max_facts) {
  std::ostringstream out;
  out << depth << ':' << distinct << ':' << transitions << ':'
      << (compare_max_facts ? max_facts : 0) << ':' << truncated;
  return out.str();
}

DiffOutcome RunLtsPair(const FuzzCase& c) {
  schema::LtsOptions opts;
  opts.universe = c.universe;
  opts.grounded = c.grounded;
  opts.enumerate_singleton_responses = c.singletons;
  size_t max_nodes = 2000;

  std::vector<oracle::OracleLevelStats> naive = oracle::OracleExploreLts(
      c.schema, schema::Instance(c.schema), opts, c.depth, max_nodes);

  for (size_t threads : {size_t{1}, size_t{2}}) {
    engine::ExecOptions exec;
    exec.num_threads = threads;
    std::vector<schema::LtsLevelStats> engine_stats =
        schema::ExploreBreadthFirst(c.schema, schema::Instance(c.schema),
                                    opts, c.depth, max_nodes, exec);
    if (engine_stats.size() != naive.size()) {
      return Diverge("LTS level count differs at " + std::to_string(threads) +
                     " threads: oracle " + std::to_string(naive.size()) +
                     " vs engine " + std::to_string(engine_stats.size()));
    }
    for (size_t i = 0; i < naive.size(); ++i) {
      // Which configurations are dropped at a truncated level is an
      // ordering artifact (hash order vs value order), so max_facts is
      // only compared on untruncated levels.
      bool cmp_max = !naive[i].truncated && !engine_stats[i].truncated;
      std::string want = LevelStatsKey(
          naive[i].depth, naive[i].distinct_configurations,
          naive[i].transitions, naive[i].max_configuration_facts,
          naive[i].truncated, cmp_max);
      std::string got = LevelStatsKey(
          engine_stats[i].depth, engine_stats[i].distinct_configurations,
          engine_stats[i].transitions,
          engine_stats[i].max_configuration_facts, engine_stats[i].truncated,
          cmp_max);
      if (want != got) {
        return Diverge("LTS level " + std::to_string(i) + " differs at " +
                       std::to_string(threads) + " threads:\n  oracle: " +
                       want + "\n  engine: " + got);
      }
    }
  }

  // Value renaming invariance: an injective rename of every string in
  // the universe is an isomorphism — all statistics must be identical
  // (skip when truncation makes the kept set order-sensitive).
  bool any_truncated = false;
  for (const oracle::OracleLevelStats& s : naive) {
    any_truncated = any_truncated || s.truncated;
  }
  if (!any_truncated) {
    schema::Instance renamed(c.schema);
    for (schema::RelationId r = 0; r < c.universe.num_relations(); ++r) {
      for (const Tuple& t : c.universe.tuples(r)) {
        Tuple nt;
        for (const Value& v : t) {
          nt.push_back(v.is_string() ? Value::Str("ren~" + v.AsString()) : v);
        }
        renamed.AddFact(r, nt);
      }
    }
    schema::LtsOptions ropts = opts;
    ropts.universe = renamed;
    std::vector<schema::LtsLevelStats> rstats = schema::ExploreBreadthFirst(
        c.schema, schema::Instance(c.schema), ropts, c.depth, max_nodes);
    if (rstats.size() != naive.size()) {
      return Diverge("universe value renaming changed the LTS level count");
    }
    for (size_t i = 0; i < naive.size(); ++i) {
      if (rstats[i].distinct_configurations !=
              naive[i].distinct_configurations ||
          rstats[i].transitions != naive[i].transitions ||
          rstats[i].max_configuration_facts !=
              naive[i].max_configuration_facts) {
        return Diverge("universe value renaming changed LTS level " +
                       std::to_string(i));
      }
    }
  }
  return Agree();
}

/// session: the streaming-session surface vs the naive per-prefix
/// oracle. One random access stream is derived from the seed; a
/// progression-backed reference session replays it step by step and
/// must agree with oracle::NaiveEvalOnPath after EVERY prefix; the
/// service-side session (whichever backend Figure-2 routing picked)
/// must never flip an irrevocable verdict, must match the reference
/// exactly when it is progression-backed, and — once the A-automaton
/// backend reports kViolated — the reference must stay currently-false
/// for the rest of the stream. The whole interaction is replayed at
/// 1/2/8 dispatcher threads (client-sequential SubmitStep) and the
/// verdict sequences must be byte-identical.
DiffOutcome RunSessionPair(const FuzzCase& c) {
  Rng stream_rng(c.seed ^ Fnv1a("session-stream"));
  schema::AccessPath stream = workload::RandomAccessStream(
      &stream_rng, c.schema, c.universe, 4 + stream_rng.Uniform(4));
  if (stream.size() == 0) return Skip();

  // Progression-backed reference: a PreparedFormula with no automaton
  // forces Backend::kProgression regardless of fragment.
  analysis::PreparedFormula ref_prepared;
  ref_prepared.formula = c.formula;
  session::MonitoredSession reference(ref_prepared, c.schema,
                                      schema::Instance(c.schema));
  std::vector<bool> reference_holds;
  {
    schema::AccessPath prefix;
    for (const schema::AccessStep& step : stream.steps()) {
      session::StepResult r = reference.Step(step.access, step.response);
      if (!r.status.ok()) {
        return Diverge("reference session rejected a generated step: " +
                       r.status.ToString());
      }
      prefix.Append(step);
      bool oracle_holds = oracle::NaiveEvalOnPath(
          c.formula, c.schema, prefix, schema::Instance(c.schema));
      if (r.currently_holds != oracle_holds) {
        return Diverge(
            "progression verdict disagrees with the oracle after " +
            std::to_string(prefix.size()) + " steps: monitor=" +
            (r.currently_holds ? "holds" : "fails") + " oracle=" +
            (oracle_holds ? "holds" : "fails"));
      }
      reference_holds.push_back(r.currently_holds);
    }
  }

  std::string expected_seq;
  for (size_t dispatchers : {size_t{1}, size_t{2}, size_t{8}}) {
    service::ServiceOptions sopts;
    sopts.num_dispatchers = dispatchers;
    service::AnalysisService svc(sopts);
    Result<std::shared_ptr<const service::PreparedQuery>> prepared =
        svc.Prepare(c.schema, c.formula);
    if (!prepared.ok()) {
      return Diverge("session Prepare failed: " +
                     prepared.status().ToString());
    }
    Result<session::SessionId> id = svc.OpenSession(prepared.value());
    if (!id.ok()) {
      return Diverge("OpenSession failed: " + id.status().ToString());
    }
    Result<session::SessionInfo> info = svc.DescribeSession(id.value());
    if (!info.ok()) {
      return Diverge("DescribeSession failed: " + info.status().ToString());
    }
    bool automaton_backend =
        info.value().backend == session::Backend::kAutomaton;

    std::string seq;
    bool was_final = false;
    monitor::Verdict final_verdict = monitor::Verdict::kCurrentlyFalse;
    bool automaton_violated = false;
    size_t i = 0;
    for (const schema::AccessStep& step : stream.steps()) {
      service::StepRequest request;
      request.access = step.access;
      request.response = step.response;
      service::PendingStep pending = svc.SubmitStep(id.value(), request);
      const session::StepResult& r = pending.Get();
      if (!r.status.ok()) {
        return Diverge("streamed step failed: " + r.status.ToString());
      }
      seq += std::string(monitor::VerdictName(r.verdict)) + ";";
      if (was_final && r.verdict != final_verdict) {
        return Diverge("irrevocable verdict flipped from " +
                       std::string(monitor::VerdictName(final_verdict)) +
                       " to " + monitor::VerdictName(r.verdict));
      }
      if (r.is_final && !was_final) {
        was_final = true;
        final_verdict = r.verdict;
      }
      if (automaton_backend) {
        if (r.verdict == monitor::Verdict::kSatisfied) {
          return Diverge("A-automaton backend reported kSatisfied");
        }
        if (r.verdict == monitor::Verdict::kViolated) {
          automaton_violated = true;
        }
        if (automaton_violated && reference_holds[i]) {
          return Diverge(
              "A-automaton reported violated but progression still holds "
              "after " +
              std::to_string(i + 1) + " steps");
        }
      } else if (r.currently_holds != reference_holds[i]) {
        return Diverge(
            "service progression session disagrees with local reference "
            "after " +
            std::to_string(i + 1) + " steps");
      }
      ++i;
    }
    Result<session::SessionInfo> closed = svc.CloseSession(id.value());
    if (!closed.ok()) {
      return Diverge("CloseSession failed: " + closed.status().ToString());
    }
    if (closed.value().steps != stream.size()) {
      return Diverge("session step count wrong at close: " +
                     std::to_string(closed.value().steps) + " vs " +
                     std::to_string(stream.size()));
    }
    if (expected_seq.empty()) {
      expected_seq = seq;
    } else if (seq != expected_seq) {
      return Diverge(
          "verdict sequence differs across dispatcher counts:\n  first: " +
          expected_seq + "\n  got  : " + seq);
    }
  }
  return Agree();
}

/// Rebuilds the schema with every result bound enlarged by `delta`
/// (unbounded methods are untouched). Names, ids and flags survive, so
/// the same formula AST applies to both variants.
schema::Schema RelaxBounds(const schema::Schema& schema, int delta) {
  schema::Schema relaxed;
  for (schema::RelationId r = 0; r < schema.num_relations(); ++r) {
    relaxed.AddRelation(schema.relation(r).name,
                        schema.relation(r).position_types);
  }
  for (schema::AccessMethodId m = 0; m < schema.num_access_methods(); ++m) {
    const schema::AccessMethod& am = schema.method(m);
    int bound = am.bounded() ? am.result_bound + delta : -1;
    relaxed.AddAccessMethod(am.name, am.relation, am.input_positions,
                            am.exact, am.idempotent, bound);
  }
  return relaxed;
}

DiffOutcome RunBoundedPair(const FuzzCase& c) {
  // The generated schema mixes result-bounded methods (small k) with
  // unbounded siblings. Three checks: (1) the routed engine's decision
  // is byte-identical at 1/2/8 workers, (2) definitive claims agree
  // with the naive oracle (whose response enumeration caps subset
  // sizes at each method's bound), (3) monotonicity in k — enlarging
  // every bound never flips satisfiable -> unsatisfiable (bounded
  // non-exact responses are <=k-subsets, so every k-behaviour is a
  // (k+1)-behaviour; the generator never emits exact bounded methods,
  // whose response-size floor breaks exactly this property).
  analysis::DecideOptions opts = OneShotOptions(c);
  engine::CancelToken base_deadline;
  opts.exec = GuardedExec(&base_deadline);
  Result<analysis::Decision> base =
      analysis::DecideSatisfiability(c.formula, c.schema, opts);
  if (!base.ok()) {
    if (base.status().code() == StatusCode::kUnsupported) return Skip();
    return Diverge("decide failed: " + base.status().ToString());
  }
  if (base.value().cancelled) return Skip();
  std::string expected = DecisionKey(base.value(), c.schema);
  bool budget_edge = base.value().exhausted_budget;

  for (size_t threads : {size_t{2}, size_t{8}}) {
    analysis::DecideOptions topts = OneShotOptions(c);
    engine::CancelToken deadline;
    topts.exec = GuardedExec(&deadline);
    topts.exec.num_threads = threads;
    Result<analysis::Decision> d =
        analysis::DecideSatisfiability(c.formula, c.schema, topts);
    if (!d.ok()) {
      return Diverge("decide failed at " + std::to_string(threads) +
                     " threads: " + d.status().ToString());
    }
    if (d.value().cancelled) return Skip();
    if (budget_edge || d.value().exhausted_budget) continue;
    std::string got = DecisionKey(d.value(), c.schema);
    if (got != expected) {
      return Diverge("bounded-schema decision differs at " +
                     std::to_string(threads) + " threads:\n  1 thread : " +
                     expected + "\n  " + std::to_string(threads) +
                     " threads: " + got);
    }
  }

  bool base_yes = base.value().satisfiable == analysis::Answer::kYes;
  bool base_no = base.value().satisfiable == analysis::Answer::kNo &&
                 !budget_edge && !base.value().cancelled;
  if (base_yes && base.value().has_witness) {
    // CheckWitnessSound runs AccessPath::Validate, which rejects any
    // step whose response exceeds its method's bound — an engine that
    // ignored a bound is caught here, not just by the oracle.
    std::string bad = CheckWitnessSound(c.formula, c.schema,
                                        base.value().witness, c.grounded,
                                        "bounded-schema engine");
    if (!bad.empty()) return Diverge(bad);
  }

  oracle::OracleOptions oopts = OracleOpts();
  oopts.grounded = c.grounded;
  oracle::OracleResult o = oracle::OracleDecide(c.formula, c.schema, oopts);
  if (base_no && o.answer == oracle::OracleAnswer::kSat) {
    return Diverge(
        "engine says NO on the bounded schema but the oracle found a "
        "witness:\n" +
        o.witness.ToString(c.schema));
  }

  // Monotonicity in k: every bound + 1.
  schema::Schema relaxed = RelaxBounds(c.schema, 1);
  analysis::DecideOptions ropts = OneShotOptions(c);
  engine::CancelToken relaxed_deadline;
  ropts.exec = GuardedExec(&relaxed_deadline);
  Result<analysis::Decision> rel =
      analysis::DecideSatisfiability(c.formula, relaxed, ropts);
  if (!rel.ok()) {
    return Diverge("decide failed on the relaxed schema: " +
                   rel.status().ToString());
  }
  bool relaxed_no = rel.value().satisfiable == analysis::Answer::kNo &&
                    !rel.value().exhausted_budget && !rel.value().cancelled;
  if (relaxed_no &&
      (base_yes || o.answer == oracle::OracleAnswer::kSat)) {
    return Diverge(
        "monotonicity in k violated: satisfiable at bound k but "
        "definitively unsatisfiable at bound k+1");
  }
  return Agree();
}

}  // namespace

const std::vector<std::string>& EnginePairs() {
  static const std::vector<std::string> kPairs = {
      "oracle-zero", "oracle-automata", "zero-automata",
      "service",     "compact",         "rename",
      "budget",      "lts",             "session",
      "bounded"};
  return kPairs;
}

Result<FuzzCase> GenerateCase(const std::string& pair, uint64_t seed) {
  bool known = false;
  for (const std::string& p : EnginePairs()) known = known || p == pair;
  if (!known) return Status::InvalidArgument("unknown engine pair: " + pair);

  FuzzCase c;
  c.pair = pair;
  c.seed = seed;
  Rng rng(seed ^ Fnv1a(pair));

  bool oracle_pair = pair == "oracle-zero" || pair == "oracle-automata";
  // Schema family rotation. The oracle pairs stay on small schemas
  // (the naive sweep is exponential by design), and so does the lts
  // pair (successor enumeration is |pool|^inputs bindings per node on
  // BOTH sides, with no deadline hook in the naive mirror); the
  // decide-based engine-vs-engine and metamorphic pairs also get the
  // high-arity mixed family — their engine calls carry a wall-clock
  // backstop.
  uint64_t family = rng.Uniform(3);
  if (pair == "bounded") {
    // Small bounded-method schemas (the oracle cross-check is the
    // naive exponential sweep) with k in {1,2,3}.
    c.schema = workload::RandomBoundedSchema(
        &rng, 1 + static_cast<int>(family % 2), 2, 3);
  } else if (family == 2 && !oracle_pair && pair != "lts" &&
             pair != "session") {
    c.schema = workload::RandomHighArityMixedSchema(&rng, 1 + rng.Uniform(2));
  } else {
    c.schema = workload::RandomSchema(&rng, 2 + static_cast<int>(family), 2);
  }

  if (pair == "lts") {
    c.grounded = rng.Chance(1, 2);
    c.singletons = rng.Chance(2, 3);
    c.depth = 2 + rng.Uniform(2);
    // Rotate an exact method in: its response policy (always the full
    // matching set) is a distinct branch in both the engine and the
    // oracle mirror, and the schema-level flag rides through the
    // repro's text format ("exact" qualifier) for free.
    if (rng.Chance(1, 3) && c.schema.num_access_methods() > 0) {
      int exact_method = static_cast<int>(rng.Uniform(
          static_cast<uint64_t>(c.schema.num_access_methods())));
      schema::Schema marked;
      for (schema::RelationId r = 0; r < c.schema.num_relations(); ++r) {
        marked.AddRelation(c.schema.relation(r).name,
                           c.schema.relation(r).position_types);
      }
      for (schema::AccessMethodId m = 0; m < c.schema.num_access_methods();
           ++m) {
        const schema::AccessMethod& am = c.schema.method(m);
        marked.AddAccessMethod(am.name, am.relation, am.input_positions,
                               am.exact || m == exact_method, am.idempotent,
                               am.result_bound);
      }
      c.schema = marked;
    }
    size_t facts = 3 + rng.Uniform(5);
    c.universe =
        rng.Chance(1, 3)
            ? workload::RandomDisconnectedInstance(&rng, c.schema, facts, 3,
                                                   2 + rng.Uniform(2))
            : workload::RandomInstance(&rng, c.schema, facts, 3);
    return c;
  }

  // Formula family: the base zero-ary / binding-positive generators,
  // or the guarded-Until-nest family.
  bool nary = pair == "oracle-automata" ||
              ((pair == "service" || pair == "compact" ||
                pair == "session" || pair == "bounded") &&
               rng.Chance(1, 3));
  int depth = 1 + static_cast<int>(rng.Uniform(2));
  if (rng.Chance(1, 3)) {
    c.formula = workload::RandomGuardedUntilFormula(&rng, c.schema, depth + 1,
                                                    /*allow_nary_bind=*/nary);
  } else if (nary) {
    c.formula = workload::RandomBindingPositiveFormula(&rng, c.schema, depth);
  } else {
    c.formula = workload::RandomZeroAryFormula(&rng, c.schema, depth,
                                               /*allow_until=*/rng.Chance(1, 2));
  }
  // Grounded mode only where the engines' grounded completeness is
  // unconditional (metamorphic / engine-vs-engine pairs; the zero
  // solver's grounded sweep is documented pool-relative, which would
  // make oracle-side "found a witness" reports spurious).
  if (pair == "service" || pair == "compact" || pair == "rename" ||
      pair == "budget") {
    c.grounded = rng.Chance(1, 4);
  }
  // The streaming pair replays a random access stream drawn against a
  // hidden universe; keep it small — the reference re-runs the naive
  // per-prefix oracle after every step.
  if (pair == "session") {
    c.universe = workload::RandomInstance(&rng, c.schema,
                                          3 + rng.Uniform(5), 3);
  }
  return c;
}

DiffOutcome RunCase(const FuzzCase& c) {
  if (c.pair == "oracle-zero") return RunOracleVsZero(c);
  if (c.pair == "oracle-automata") return RunOracleVsAutomata(c);
  if (c.pair == "zero-automata") return RunZeroVsAutomata(c);
  if (c.pair == "service") return RunServicePair(c);
  if (c.pair == "compact") return RunCompactPair(c);
  if (c.pair == "rename") return RunRenamePair(c);
  if (c.pair == "budget") return RunBudgetPair(c);
  if (c.pair == "lts") return RunLtsPair(c);
  if (c.pair == "session") return RunSessionPair(c);
  if (c.pair == "bounded") return RunBoundedPair(c);
  return Diverge("unknown engine pair: " + c.pair);
}

namespace {

/// One-step simplifications of an AccLTL formula, shallowest first:
/// operand hoisting, conjunct/disjunct dropping, atom → TRUE/FALSE.
void AccShrinks(const acc::AccPtr& f, std::vector<acc::AccPtr>* out) {
  using acc::AccFormula;
  switch (f->kind()) {
    case acc::AccKind::kAtom:
      if (f->sentence()->kind() != NodeKind::kTrue) {
        out->push_back(AccFormula::True());
      }
      if (f->sentence()->kind() != NodeKind::kFalse) {
        out->push_back(AccFormula::False());
      }
      return;
    case acc::AccKind::kNot: {
      out->push_back(f->child());
      std::vector<acc::AccPtr> inner;
      AccShrinks(f->child(), &inner);
      for (acc::AccPtr& v : inner) {
        out->push_back(AccFormula::Not(std::move(v)));
      }
      return;
    }
    case acc::AccKind::kNext: {
      out->push_back(f->child());
      std::vector<acc::AccPtr> inner;
      AccShrinks(f->child(), &inner);
      for (acc::AccPtr& v : inner) {
        out->push_back(AccFormula::Next(std::move(v)));
      }
      return;
    }
    case acc::AccKind::kUntil: {
      out->push_back(f->lhs());
      out->push_back(f->rhs());
      std::vector<acc::AccPtr> left, right;
      AccShrinks(f->lhs(), &left);
      AccShrinks(f->rhs(), &right);
      for (acc::AccPtr& v : left) {
        out->push_back(AccFormula::Until(std::move(v), f->rhs()));
      }
      for (acc::AccPtr& v : right) {
        out->push_back(AccFormula::Until(f->lhs(), std::move(v)));
      }
      return;
    }
    case acc::AccKind::kAnd:
    case acc::AccKind::kOr: {
      const std::vector<acc::AccPtr>& children = f->children();
      for (const acc::AccPtr& child : children) out->push_back(child);
      for (size_t drop = 0; drop < children.size(); ++drop) {
        if (children.size() < 2) break;
        std::vector<acc::AccPtr> rest;
        for (size_t i = 0; i < children.size(); ++i) {
          if (i != drop) rest.push_back(children[i]);
        }
        out->push_back(f->kind() == acc::AccKind::kAnd
                           ? AccFormula::And(std::move(rest))
                           : AccFormula::Or(std::move(rest)));
      }
      for (size_t i = 0; i < children.size(); ++i) {
        std::vector<acc::AccPtr> inner;
        AccShrinks(children[i], &inner);
        for (acc::AccPtr& v : inner) {
          std::vector<acc::AccPtr> copy = children;
          copy[i] = std::move(v);
          out->push_back(f->kind() == acc::AccKind::kAnd
                             ? AccFormula::And(std::move(copy))
                             : AccFormula::Or(std::move(copy)));
        }
      }
      return;
    }
  }
}

/// Drops one relation (and its methods) or one method, remapping ids
/// in the formula and universe. Returns false when the drop would
/// orphan a referenced id.
bool DropFromSchema(const FuzzCase& c, int drop_relation, int drop_method,
                    FuzzCase* out) {
  std::vector<int> rel_map(static_cast<size_t>(c.schema.num_relations()), -1);
  std::vector<int> method_map(
      static_cast<size_t>(c.schema.num_access_methods()), -1);
  schema::Schema next;
  for (schema::RelationId r = 0; r < c.schema.num_relations(); ++r) {
    if (r == drop_relation) continue;
    rel_map[static_cast<size_t>(r)] = next.AddRelation(
        c.schema.relation(r).name, c.schema.relation(r).position_types);
  }
  if (next.num_relations() == 0) return false;
  for (schema::AccessMethodId m = 0; m < c.schema.num_access_methods(); ++m) {
    if (m == drop_method) continue;
    const schema::AccessMethod& am = c.schema.method(m);
    if (rel_map[static_cast<size_t>(am.relation)] < 0) continue;
    method_map[static_cast<size_t>(m)] = next.AddAccessMethod(
        am.name, rel_map[static_cast<size_t>(am.relation)],
        am.input_positions, am.exact, am.idempotent, am.result_bound);
  }
  if (next.num_access_methods() == 0) return false;

  *out = c;
  out->schema = next;
  if (c.formula != nullptr) {
    out->formula = RewriteAcc(c.formula, rel_map, method_map,
                              [](const Value& v) { return v; });
    if (out->formula == nullptr) return false;
  }
  schema::Instance universe(next);
  for (schema::RelationId r = 0; r < c.universe.num_relations(); ++r) {
    if (rel_map[static_cast<size_t>(r)] < 0) continue;
    for (const Tuple& t : c.universe.tuples(r)) {
      universe.AddFact(rel_map[static_cast<size_t>(r)], t);
    }
  }
  out->universe = std::move(universe);
  return true;
}

size_t CaseSize(const FuzzCase& c) {
  size_t n = static_cast<size_t>(c.schema.num_relations()) * 4 +
             static_cast<size_t>(c.schema.num_access_methods()) * 2 +
             c.universe.TotalFacts();
  if (c.formula != nullptr) n += c.formula->Size() * 2;
  return n;
}

/// Every one-step reduction of the case, smallest-effect first.
std::vector<FuzzCase> CaseShrinks(const FuzzCase& c) {
  std::vector<FuzzCase> out;
  if (c.formula != nullptr) {
    std::vector<acc::AccPtr> formulas;
    AccShrinks(c.formula, &formulas);
    for (acc::AccPtr& f : formulas) {
      FuzzCase next = c;
      next.formula = std::move(f);
      out.push_back(std::move(next));
    }
  }
  for (schema::RelationId r = 0; r < c.schema.num_relations(); ++r) {
    FuzzCase next;
    if (DropFromSchema(c, r, -1, &next)) out.push_back(std::move(next));
  }
  for (schema::AccessMethodId m = 0; m < c.schema.num_access_methods(); ++m) {
    FuzzCase next;
    if (DropFromSchema(c, -1, m, &next)) out.push_back(std::move(next));
  }
  if (c.universe.TotalFacts() > 0) {
    for (schema::RelationId r = 0; r < c.universe.num_relations(); ++r) {
      for (const Tuple& drop : c.universe.tuples(r)) {
        FuzzCase next = c;
        schema::Instance smaller(c.schema);
        for (schema::RelationId r2 = 0; r2 < c.universe.num_relations();
             ++r2) {
          for (const Tuple& t : c.universe.tuples(r2)) {
            if (r2 == r && t == drop) continue;
            smaller.AddFact(r2, t);
          }
        }
        next.universe = std::move(smaller);
        out.push_back(std::move(next));
      }
    }
  }
  return out;
}

}  // namespace

FuzzCase ShrinkCase(const FuzzCase& c, size_t max_attempts) {
  FuzzCase best = c;
  size_t attempts = 0;
  bool improved = true;
  while (improved && attempts < max_attempts) {
    improved = false;
    for (FuzzCase& candidate : CaseShrinks(best)) {
      if (attempts >= max_attempts) break;
      if (CaseSize(candidate) >= CaseSize(best)) continue;
      ++attempts;
      DiffOutcome o = RunCase(candidate);
      if (!o.ok) {
        best = std::move(candidate);
        improved = true;
        break;
      }
    }
  }
  return best;
}

std::string FormatRepro(const FuzzCase& c, const std::string& diagnosis) {
  std::ostringstream out;
  out << "# accltl differential fuzz repro\n";
  if (!diagnosis.empty()) {
    std::istringstream lines(diagnosis);
    std::string line;
    while (std::getline(lines, line)) out << "# " << line << "\n";
  }
  out << "pair: " << c.pair << "\n";
  out << "seed: " << c.seed << "\n";
  out << "grounded: " << (c.grounded ? "true" : "false") << "\n";
  out << "singletons: " << (c.singletons ? "true" : "false") << "\n";
  out << "depth: " << c.depth << "\n";
  out << "--- schema ---\n" << schema::SerializeSchema(c.schema);
  if (c.formula != nullptr) {
    out << "--- formula ---\n" << c.formula->ToString(c.schema) << "\n";
  }
  if (c.universe.TotalFacts() > 0) {
    out << "--- instance ---\n"
        << schema::SerializeInstance(c.universe, c.schema);
  }
  return out.str();
}

Result<FuzzCase> ParseRepro(const std::string& text) {
  FuzzCase c;
  std::map<std::string, std::string> sections;
  std::string header;
  std::string* current = &header;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("--- ", 0) == 0) {
      size_t end = line.find(" ---", 4);
      if (end == std::string::npos) {
        return Status::InvalidArgument("malformed section header: " + line);
      }
      current = &sections[line.substr(4, end - 4)];
      continue;
    }
    *current += line;
    *current += '\n';
  }

  std::istringstream head(header);
  while (std::getline(head, line)) {
    size_t first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos || line[first] == '#') continue;
    size_t colon = line.find(':');
    if (colon == std::string::npos) {
      return Status::InvalidArgument("malformed header line: " + line);
    }
    std::string key = line.substr(first, colon - first);
    size_t vstart = line.find_first_not_of(" \t", colon + 1);
    std::string value =
        vstart == std::string::npos ? "" : line.substr(vstart);
    while (!value.empty() && (value.back() == '\r' || value.back() == ' ')) {
      value.pop_back();
    }
    // Numbers are validated by hand: every malformed input must come
    // back as InvalidArgument, never as an uncaught stoull exception.
    auto parse_count = [](const std::string& text, uint64_t* out) {
      if (text.empty() || text.size() > 19) return false;
      uint64_t n = 0;
      for (char ch : text) {
        if (ch < '0' || ch > '9') return false;
        n = n * 10 + static_cast<uint64_t>(ch - '0');
      }
      *out = n;
      return true;
    };
    if (key == "pair") {
      c.pair = value;
    } else if (key == "seed") {
      if (!parse_count(value, &c.seed)) {
        return Status::InvalidArgument("malformed seed: " + value);
      }
    } else if (key == "grounded") {
      c.grounded = value == "true";
    } else if (key == "singletons") {
      c.singletons = value == "true";
    } else if (key == "depth") {
      uint64_t depth = 0;
      if (!parse_count(value, &depth)) {
        return Status::InvalidArgument("malformed depth: " + value);
      }
      c.depth = static_cast<size_t>(depth);
    } else {
      return Status::InvalidArgument("unknown repro header key: " + key);
    }
  }
  if (c.pair.empty()) {
    return Status::InvalidArgument("repro is missing the 'pair:' header");
  }

  auto schema_it = sections.find("schema");
  if (schema_it == sections.end()) {
    return Status::InvalidArgument("repro is missing the schema section");
  }
  Result<schema::Schema> schema = schema::ParseSchema(schema_it->second);
  if (!schema.ok()) return schema.status();
  c.schema = schema.value();

  auto formula_it = sections.find("formula");
  if (formula_it != sections.end()) {
    Result<acc::AccPtr> f =
        acc::ParseAccFormula(formula_it->second, c.schema);
    if (!f.ok()) return f.status();
    c.formula = f.value();
  }
  c.universe = schema::Instance(c.schema);
  auto instance_it = sections.find("instance");
  if (instance_it != sections.end()) {
    Result<schema::Instance> inst =
        schema::ParseInstance(instance_it->second, c.schema);
    if (!inst.ok()) return inst.status();
    c.universe = inst.value();
  }
  return c;
}

FuzzSummary RunFuzz(const FuzzOptions& options, std::FILE* err) {
  FuzzSummary summary;
  const std::vector<std::string>& pairs =
      options.pairs.empty() ? EnginePairs() : options.pairs;
  for (const std::string& pair : pairs) {
    for (uint64_t i = 0; i < options.num_seeds; ++i) {
      uint64_t seed = options.seed_start + i;
      Result<FuzzCase> generated = GenerateCase(pair, seed);
      if (!generated.ok()) {
        std::fprintf(err, "fuzz: pair=%s: %s\n", pair.c_str(),
                     generated.status().ToString().c_str());
        ++summary.failures;
        continue;
      }
      ++summary.cases;
      DiffOutcome outcome = RunCase(generated.value());
      if (outcome.skipped) ++summary.skipped;
      if (outcome.ok) continue;
      ++summary.failures;
      // The failing seed is reported the moment it is found, before
      // any shrinking work, so a crash mid-shrink still leaves the
      // seed on stderr.
      std::fprintf(err, "fuzz: FAIL seed=%llu pair=%s\n%s\n",
                   static_cast<unsigned long long>(seed), pair.c_str(),
                   outcome.diagnosis.c_str());
      FuzzCase minimized = generated.value();
      if (options.shrink) {
        minimized = ShrinkCase(minimized);
        DiffOutcome shrunk = RunCase(minimized);
        if (!shrunk.ok) outcome = shrunk;
      }
      if (!options.out_dir.empty()) {
        std::string path = options.out_dir + "/s" + std::to_string(seed) +
                           "_" + pair + ".repro";
        std::ofstream f(path);
        if (f) {
          f << FormatRepro(minimized, outcome.diagnosis);
          f.close();
          std::fprintf(err, "fuzz: repro written to %s\n", path.c_str());
          summary.repro_paths.push_back(path);
        } else {
          std::fprintf(err, "fuzz: cannot write repro to %s\n", path.c_str());
        }
      }
    }
  }
  return summary;
}

}  // namespace testing
}  // namespace accltl
