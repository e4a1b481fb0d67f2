#ifndef ACCLTL_TESTING_DIFFERENTIAL_H_
#define ACCLTL_TESTING_DIFFERENTIAL_H_

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "src/accltl/formula.h"
#include "src/common/status.h"
#include "src/schema/instance.h"
#include "src/schema/schema.h"

namespace accltl {
namespace testing {

/// Differential fuzzing of the optimized engines against the naive
/// oracle (src/oracle/) and against each other, plus metamorphic
/// properties (renaming invariance, thread-count invariance,
/// prepared ≡ one-shot, budget monotonicity). One *engine pair* names
/// one agreement check:
///
///   oracle-zero      OracleDecide vs the zero-ary solver (ungrounded,
///                    ≠-free: the solver is complete, so a definitive
///                    "no" against an oracle witness is a bug — and so
///                    is the reverse).
///   oracle-automata  OracleDecide vs compile + bounded witness search
///                    (+ Datalog certification when the search sweeps
///                    clean): engine witnesses must satisfy the naive
///                    evaluator; a Datalog "empty" against an oracle
///                    witness is a bug.
///   zero-automata    The two complete-ish engines against each other
///                    on formulas both accept (binding-positive 0-ary).
///   service          AnalysisService (prepared, async, cached, 1/2/8
///                    threads) vs one-shot DecideSatisfiability:
///                    byte-identical decisions; the request against an
///                    "X"-renamed schema must then replay from the warm
///                    result cache with the decision a fresh search on
///                    the renamed schema produces.
///   compact          VisitedMode::kCompact (tree-compressed visited
///                    storage, 1/2/8 threads) vs kExact: byte-identical
///                    verdicts, witnesses and node counts, plus
///                    worker-count-invariant memory statistics in both
///                    modes (exact visited_bytes at 1/2/8 threads).
///   rename           Relation/method renaming and injective constant
///                    renaming never change the verdict.
///   budget           A search that finishes under a small node budget
///                    returns exactly the big-budget result; a small-
///                    budget witness implies the big-budget verdict.
///   lts              OracleExploreLts vs schema::ExploreBreadthFirst
///                    (1 and 2 workers): identical level statistics,
///                    plus universe value-renaming invariance.
///   bounded          Result-bounded schemas (methods with `bound k`,
///                    k ∈ {1,2,3}): the routed engine's decision is
///                    byte-identical at 1/2/8 workers, engine
///                    witnesses respect every bound (AccessPath::
///                    Validate) and satisfy the naive evaluators, a
///                    definitive engine "no" against an oracle witness
///                    is a bug, and enlarging every bound by one never
///                    flips satisfiable → unsatisfiable (monotonicity
///                    in k — the metamorphic property bounded
///                    non-exact responses guarantee by construction).
///   session          The streaming-session surface vs the naive
///                    per-prefix oracle: a progression-backed session
///                    must agree with NaiveEvalOnPath after every
///                    prefix of a random access stream, irrevocable
///                    verdicts never flip, an A-automaton kViolated
///                    pins the progression reference currently-false
///                    thereafter, and the full interaction's verdict
///                    sequence is byte-identical at 1/2/8 dispatcher
///                    threads.
///
/// Every engine kYes is additionally validated with BOTH evaluators
/// (logic::EvalSentence via acc::EvalOnPath, and the oracle's naive
/// evaluator) regardless of pair — a wrong witness never survives.

/// One generated (or replayed) differential case. Everything needed to
/// re-run the check deterministically; serializable to the repro text
/// format below.
struct FuzzCase {
  std::string pair;
  uint64_t seed = 0;
  /// Restrict engines to grounded paths (decide pairs) / grounded
  /// bindings (lts pair).
  bool grounded = false;
  /// lts pair: LtsOptions::enumerate_singleton_responses.
  bool singletons = true;
  /// lts pair: exploration depth.
  size_t depth = 2;
  schema::Schema schema;
  /// Null for the lts pair.
  acc::AccPtr formula;
  /// Hidden universe; only the lts pair uses it.
  schema::Instance universe;
};

struct DiffOutcome {
  /// True when the pair agreed (or the case was skipped).
  bool ok = true;
  /// True when no claim could be checked (oracle budget exhausted,
  /// fragment filter, engine budget edge).
  bool skipped = false;
  /// Human-readable divergence report when !ok.
  std::string diagnosis;
};

/// All engine-pair names, in the order `RunFuzz` runs them.
const std::vector<std::string>& EnginePairs();

/// Deterministically generates the case for (pair, seed). Rotates
/// through schema/formula/instance families, including the three the
/// base generator never produced: high-arity mixed input/output
/// methods, guarded Until nests, and disconnected active domains.
Result<FuzzCase> GenerateCase(const std::string& pair, uint64_t seed);

/// Runs the agreement check for one case.
DiffOutcome RunCase(const FuzzCase& c);

/// Greedy shrinking: repeatedly tries formula simplifications
/// (subtree hoisting, conjunct/disjunct dropping, atom → TRUE/FALSE,
/// temporal-depth reduction), dropping unreferenced relations/methods
/// (with id remapping), and dropping universe facts — keeping any
/// candidate on which the check still FAILS. Returns the smallest
/// failing case found within `max_attempts` re-runs.
FuzzCase ShrinkCase(const FuzzCase& c, size_t max_attempts = 400);

/// Serializes a case (plus the diagnosis as a comment) to the repro
/// text format:
///
///   # accltl differential fuzz repro
///   pair: oracle-zero
///   seed: 17
///   grounded: false
///   singletons: true
///   depth: 2
///   --- schema ---
///   relation R0(p0: string)
///   access M0_0 on R0(p0)
///   --- formula ---
///   F [EXISTS z0 . R0_post(z0)]
///   --- instance ---
///   R0("d1")
///
/// The schema/instance sections use schema::text_format; the formula
/// section uses the AccLTL parser syntax. Sections may be omitted when
/// empty. ParseRepro inverts FormatRepro exactly (the round-trip is
/// property-tested), so a shrunk repro checked into tests/corpus/
/// replays the original check bit-for-bit.
std::string FormatRepro(const FuzzCase& c, const std::string& diagnosis);
Result<FuzzCase> ParseRepro(const std::string& text);

struct FuzzOptions {
  uint64_t seed_start = 1;
  size_t num_seeds = 50;
  /// Empty = every pair of EnginePairs().
  std::vector<std::string> pairs;
  bool shrink = false;
  /// Directory for repro files of failing cases ("" = don't write).
  std::string out_dir;
};

struct FuzzSummary {
  size_t cases = 0;
  size_t failures = 0;
  size_t skipped = 0;
  std::vector<std::string> repro_paths;
};

/// Drives seeds × pairs, reporting each failing seed/pair/diagnosis
/// (and the repro path, when `out_dir` is set) to `err` as it is
/// found. The CLI's `fuzz` subcommand and the nightly job are thin
/// wrappers over this.
FuzzSummary RunFuzz(const FuzzOptions& options, std::FILE* err);

}  // namespace testing
}  // namespace accltl

#endif  // ACCLTL_TESTING_DIFFERENTIAL_H_
