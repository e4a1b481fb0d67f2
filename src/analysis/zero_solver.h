#ifndef ACCLTL_ANALYSIS_ZERO_SOLVER_H_
#define ACCLTL_ANALYSIS_ZERO_SOLVER_H_

#include <cstddef>
#include <memory>

#include "src/accltl/formula.h"
#include "src/common/status.h"
#include "src/engine/cancel.h"
#include "src/schema/access.h"

namespace accltl {
namespace acc {
class AccFormula;
}

namespace analysis {

struct ZeroSolverOptions {
  /// Restrict to grounded access paths. The paper leaves tight bounds
  /// for the grounded 0-ary case open (§6); this solver supports it as
  /// a bounded-complete procedure over the witness pool.
  bool grounded = false;
  /// Require idempotent witnesses (repeated access => same response).
  bool require_idempotent = false;
  /// Search budget.
  size_t max_nodes = 500000;
  /// Cap on the number of facts injected per access (response size).
  size_t max_facts_per_step = 6;
  /// Hard cap on path length (0 = derived from the state space).
  size_t max_path_length = 64;
  /// Cap on the number of response subsets enumerated per (node,
  /// method). Subsets of up to `max_facts_per_step` facts are
  /// enumerated over *all* candidate pool facts (grouped by shared
  /// binding); when this cap truncates the enumeration the result is
  /// flagged `exhausted_budget` — never a silent "unsatisfiable".
  size_t max_subsets_per_access = 4096;
};

struct ZeroSolverResult {
  bool satisfiable = false;
  schema::AccessPath witness;
  size_t nodes_explored = 0;
  bool exhausted_budget = false;
  /// True when `exec.cancel` fired and stopped the search;
  /// `satisfiable == false` then means "unknown", not "no". A witness
  /// found before the cut is still returned (it is sound).
  bool cancelled = false;
  /// Logical bytes held live by the visited set at the end of the
  /// search (plus the treedb arena under VisitedMode::kCompact).
  /// Deterministic whenever the search result is.
  size_t visited_bytes = 0;
  /// Interned tree nodes (kCompact only; 0 under kExact).
  size_t treedb_nodes = 0;
};

/// The prepared, options-independent state of the zero-ary engine:
/// the Sch0−Acc abstraction, the Lemma 4.13 canonical-witness pool,
/// and the finite-word LTL tableau of the propositional skeleton —
/// everything that used to be rebuilt per call. The first check also
/// compiles the plan's search-side state (compiled atoms, candidate
/// layout, pool-fact ids) into it, once, and every later check reuses
/// it. Share one instance across any number of concurrent checks (with
/// any grounded/idempotent/budget variation — those are search-time
/// options) against the schema it was prepared with. Opaque: defined
/// in zero_solver.cc.
class ZeroPlan;

/// Builds the prepared state. Rejects formulas outside the
/// (constant-extended) 0-ary fragment with kUnsupported, oversized
/// witness pools and tableaux with kResourceExhausted — the same
/// errors the one-shot entry point reported from its setup phase.
Result<std::shared_ptr<const ZeroPlan>> PrepareZeroAry(
    const acc::AccPtr& formula, const schema::Schema& schema);

/// Runs the search against a prepared plan. `exec` is the single
/// execution-context source (engine/cancel.h): worker count and
/// cancellation. The solver runs on the shared parallel exploration
/// engine (src/engine/) with the same schedule-independence guarantee
/// as the automata search: verdict, witness and exhausted_budget are
/// identical at every worker count, provided `max_nodes` is not the
/// binding constraint (the serial DFS and the parallel level sweep
/// spend the same budget in different orders; see DESIGN.md §3), and
/// a cancel token that never fires never changes any result.
Result<ZeroSolverResult> CheckZeroAryPrepared(
    const ZeroPlan& plan, const schema::Schema& schema,
    const ZeroSolverOptions& options = {},
    const engine::ExecOptions& exec = {});

/// Decision procedure for AccLTL(FO∃+(,≠)0−Acc) satisfiability
/// (Thms 4.12 / 4.14 / 5.1) from the empty initial instance.
///
/// Realizes the proof constructively: Lemma 4.13 bounds witnesses by a
/// pool of *canonical witnesses* — the frozen canonical databases of the
/// UCQ disjuncts of the formula's positive sentences, with fresh values
/// per witness. The search schedules pool facts over accesses (one
/// method per step, response ⊆ pool facts of its relation), evaluates
/// every atomic sentence concretely on each transition, and drives the
/// propositional skeleton through the finite-word LTL tableau. States
/// (injected-facts set × tableau-state set) are memoized, so the search
/// is a complete decision procedure over the pool.
///
/// Completeness: the disjoint-block argument (see DESIGN.md) shows the
/// fresh-value pool is complete for ≠-free formulas; formulas with ≠
/// and grounded mode are complete up to the pool (value fusion across
/// witnesses is not enumerated).
///
/// Atoms may use 0-ary IsBind propositions and IsBind atoms whose terms
/// are all constants; variable binding terms require the AccLTL+
/// engines (automata/) and are rejected with kUnsupported.
///
/// One-shot adapter over PrepareZeroAry + CheckZeroAryPrepared: the
/// plan is built, used once and discarded. Long-lived callers (the
/// service layer) prepare once and submit many.
Result<ZeroSolverResult> CheckZeroArySatisfiable(
    const acc::AccPtr& formula, const schema::Schema& schema,
    const ZeroSolverOptions& options = {},
    const engine::ExecOptions& exec = {});

}  // namespace analysis
}  // namespace accltl

#endif  // ACCLTL_ANALYSIS_ZERO_SOLVER_H_
