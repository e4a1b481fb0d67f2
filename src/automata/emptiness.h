#ifndef ACCLTL_AUTOMATA_EMPTINESS_H_
#define ACCLTL_AUTOMATA_EMPTINESS_H_

#include <cstddef>

#include "src/automata/a_automaton.h"
#include "src/engine/cancel.h"
#include "src/schema/access.h"

namespace accltl {
namespace automata {

struct WitnessSearchOptions {
  /// Maximum access-path length explored.
  size_t max_path_length = 6;
  /// Restrict to grounded paths (§2): binding values must come from the
  /// current configuration (no guessed values).
  bool grounded = false;
  /// Require the witness to be an idempotent path.
  bool require_idempotent = false;
  /// Require the witness to be exact (for all methods).
  bool require_exact = false;
  /// Node budget for the search.
  size_t max_nodes = 200000;
  /// Cap on realizations enumerated per (transition, disjunct) step.
  size_t max_realizations_per_step = 512;
};

struct WitnessSearchResult {
  /// True when an accepting access path was found (L(A) non-empty).
  bool found = false;
  schema::AccessPath witness;
  /// True when a budget was hit before the bounded space was exhausted
  /// — the `max_nodes` budget or the `max_realizations_per_step` cap;
  /// `found == false` then means "unknown", not "empty".
  bool exhausted_budget = false;
  /// True when `exec.cancel` fired (deadline or explicit cancel) and
  /// stopped the search; `found == false` then means "unknown". A
  /// witness found before the cut is still returned (it is sound).
  bool cancelled = false;
  size_t nodes_explored = 0;
  /// Logical bytes held live by the visited set at the end of the
  /// search (plus the treedb arena under VisitedMode::kCompact).
  /// Deterministic whenever the search result is.
  size_t visited_bytes = 0;
  /// Interned tree nodes (kCompact only; 0 under kExact).
  size_t treedb_nodes = 0;
};

/// Bounded explicit-state emptiness: searches for an accepting access
/// path of length ≤ max_path_length, growing a concrete instance whose
/// facts realize the positive guard parts via homomorphism search and
/// fresh ("guessed") values, and checking the negated parts on each
/// concrete transition. Sound: a returned witness is a real accepting
/// access path. Complete up to the path-length bound for guards whose
/// negative parts do not force value fusion (see DESIGN.md).
///
/// `exec` is the single execution-context source (engine/cancel.h):
/// worker count and cancellation. Results reduce deterministically by
/// the content order on access paths (see DESIGN.md, "Parallel
/// engine"), independent of scheduling: the same witness and the same
/// exhausted_budget verdict at every `exec.num_threads`, provided
/// `max_nodes` is not the binding constraint (the serial and parallel
/// disciplines spend the budget on different node orders, so searches
/// cut off mid-space may diverge — clearly-under or clearly-over
/// budgets are deterministic either way). The total node count across
/// phases never exceeds `max_nodes` at any setting, and a cancel
/// token that never fires never changes any result.
WitnessSearchResult BoundedWitnessSearch(
    const AAutomaton& automaton, const schema::Schema& schema,
    const schema::Instance& initial, const WitnessSearchOptions& options,
    const engine::ExecOptions& exec = {});

}  // namespace automata
}  // namespace accltl

#endif  // ACCLTL_AUTOMATA_EMPTINESS_H_
