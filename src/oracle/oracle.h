#ifndef ACCLTL_ORACLE_ORACLE_H_
#define ACCLTL_ORACLE_ORACLE_H_

#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/accltl/formula.h"
#include "src/common/value.h"
#include "src/schema/access.h"
#include "src/schema/instance.h"
#include "src/schema/lts.h"
#include "src/schema/schema.h"

namespace accltl {
namespace oracle {

/// A deliberately naive, optimization-free executable model of the
/// paper's semantics (§2, Def. 2.1) used as the reference side of
/// differential tests (src/testing/). Everything here trades speed for
/// obviousness, on purpose:
///  - instances are plain std::map<RelationId, std::set<Tuple>> — no
///    interning, no copy-on-write, no configuration hashing;
///  - the LTS is enumerated explicitly with std::set visited sets — no
///    parallel engine, no dominance memos, no search plans;
///  - AccLTL formulas are evaluated directly over the transition trace
///    by structural recursion — no automaton compilation, no tableau,
///    no memoization;
///  - FO∃+(≠) sentences are evaluated by brute-force active-domain
///    assignment enumeration — no join reordering, no match indexes.
///
/// The oracle shares nothing with the engines under test except the
/// AST types and the Schema/AccessPath value types, so an agreement
/// between the two sides is evidence, not tautology.

/// A plain, uninterned instance: one sorted tuple set per relation.
using NaiveInstance = std::map<schema::RelationId, std::set<Tuple>>;

/// Converts an interned instance to the plain representation.
NaiveInstance ToNaive(const schema::Instance& instance);

/// One explicit transition of the naive trace: the pre/post tuple sets
/// plus the access that connects them (M(t) of §2).
struct NaiveStep {
  schema::AccessMethodId method = 0;
  Tuple binding;
  std::set<Tuple> response;
  NaiveInstance pre;
  NaiveInstance post;
};

/// Brute-force evaluation of an FO∃+(≠) transition sentence on one
/// naive step: quantified variables range over the step's active
/// domain (pre ∪ post ∪ binding values) plus the sentence's constants.
/// Mirrors logic::EvalSentence over a TransitionView; independent
/// implementation.
bool NaiveEvalSentence(const logic::PosFormulaPtr& sentence,
                       const NaiveStep& step);

/// Def. 2.1's (p, i) ⊨ φ by direct structural recursion over the
/// naive trace (0-based positions; finite-path X and U exactly as
/// acc::EvalOnTransitions defines them). No memo.
bool NaiveEvalFormula(const acc::AccPtr& f,
                      const std::vector<NaiveStep>& trace, size_t position);

/// Independent re-check of an engine witness: materializes the path's
/// naive trace from `initial` and evaluates `f` at position 0 with the
/// naive evaluator. Differential drivers use this to validate kYes
/// answers without trusting logic::EvalSentence.
bool NaiveEvalOnPath(const acc::AccPtr& f, const schema::Schema& schema,
                     const schema::AccessPath& path,
                     const schema::Instance& initial);

/// Bounds of the oracle's explicit path enumeration. All defaults are
/// deliberately tiny: the oracle is for small differential cases, not
/// production queries.
struct OracleOptions {
  /// Maximum access-path length enumerated.
  size_t max_path_length = 2;
  /// Maximum response size per access (the LTS itself allows any
  /// finite response; the oracle enumerates subsets up to this size).
  size_t max_response_facts = 2;
  /// Fresh values invented per type, standing in for "any value": the
  /// value universe is the formula's constants plus this many fresh
  /// strings ("~o0", …) / ints / plus both booleans.
  size_t num_fresh_values = 2;
  /// Extra caller-supplied values added to the universe.
  std::vector<Value> extra_values;
  /// Restrict to grounded paths (§2): binding values must occur in the
  /// initial instance or an earlier response.
  bool grounded = false;
  /// Restrict to idempotent paths (repeat access ⇒ same response).
  bool require_idempotent = false;
  /// Budget on enumerated paths; when hit, the sweep is incomplete and
  /// the verdict degrades to kUnknown instead of kNoWithinBounds.
  size_t max_nodes = 200000;
  /// Cap on candidate response tuples per (method, binding); exceeding
  /// it truncates the enumeration and flags `exhausted_budget`.
  size_t max_response_candidates = 512;
};

enum class OracleAnswer {
  /// A concrete witness path was found (and re-checked by the naive
  /// evaluator). Implies true satisfiability.
  kSat,
  /// The *entire* bounded space (path length, response size, value
  /// universe) was swept without a witness. NOT an unconditional "no":
  /// a witness may exist outside the bounds.
  kNoWithinBounds,
  /// The sweep was cut by a budget before covering the bounded space.
  kUnknown,
};

const char* OracleAnswerName(OracleAnswer a);

struct OracleResult {
  OracleAnswer answer = OracleAnswer::kUnknown;
  bool has_witness = false;
  schema::AccessPath witness;
  /// Paths enumerated (every prefix counts once).
  size_t paths_explored = 0;
  /// True when max_nodes or max_response_candidates truncated the
  /// sweep.
  bool exhausted_budget = false;
};

/// Explicit enumeration of every access path within the bounds from
/// `initial` (default: the empty instance, matching the decision
/// procedures), evaluating the formula on each path with the naive
/// evaluator. Works for ANY AccLTL formula — the oracle does not care
/// about fragments; its bounds are the only restriction.
OracleResult OracleDecide(const acc::AccPtr& formula,
                          const schema::Schema& schema,
                          const OracleOptions& options = {});
OracleResult OracleDecide(const acc::AccPtr& formula,
                          const schema::Schema& schema,
                          const schema::Instance& initial,
                          const OracleOptions& options = {});

/// Per-level statistics of the naive breadth-first LTS enumeration,
/// field-for-field comparable with schema::LtsLevelStats.
struct OracleLevelStats {
  size_t depth = 0;
  size_t distinct_configurations = 0;
  size_t transitions = 0;
  size_t max_configuration_facts = 0;
  bool truncated = false;
};

/// Naive mirror of schema::ExploreBreadthFirst: same successor policy
/// (universe-driven responses, grounded/seed binding pools, exact
/// methods, empty/singleton/full response enumeration, count-then-cut
/// budget at level granularity), but implemented over plain tuple sets
/// with a std::set<std::string> visited set of serialized
/// configurations. Stats must match the engine's exactly, except
/// `max_configuration_facts` on a truncated level (which configurations
/// are dropped at the cut is an ordering artifact both sides document).
std::vector<OracleLevelStats> OracleExploreLts(
    const schema::Schema& schema, const schema::Instance& initial,
    const schema::LtsOptions& options, size_t max_depth,
    size_t max_nodes = 100000);

}  // namespace oracle
}  // namespace accltl

#endif  // ACCLTL_ORACLE_ORACLE_H_
