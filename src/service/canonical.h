#ifndef ACCLTL_SERVICE_CANONICAL_H_
#define ACCLTL_SERVICE_CANONICAL_H_

#include <string>

#include "src/accltl/formula.h"
#include "src/analysis/decide.h"
#include "src/schema/schema.h"

namespace accltl {
namespace service {

/// Semantic options fixed at Prepare time. Everything here is part of
/// the cache key (it changes answers); execution context (worker
/// count, deadlines) deliberately is not — it never changes answers.
struct PrepareOptions {
  /// Restrict to grounded access paths.
  bool grounded = false;
  /// Run the Lemma 4.9/4.10 Datalog pipeline to certify emptiness when
  /// the bounded search finds no witness (AccLTL+ only).
  bool use_datalog_pipeline = false;
  /// Shrink returned witnesses to 1-minimal paths.
  bool shrink_witness = false;
  analysis::ZeroSolverOptions zero;
  automata::WitnessSearchOptions bounded;
  automata::DecomposeOptions decompose;
};

/// Renders every semantic knob as "name=value;" in a pinned field
/// order. Every knob that can change an answer must appear here (a
/// missed knob would alias two requests with different answers onto
/// one cache line); tests/canonical_key_test.cc pins the exact order.
std::string CanonicalOptionsKey(const PrepareOptions& options);

/// The canonical identity of a prepared request: the result cache's
/// key. The schema and formula are rendered against
/// CanonicalizeSchemaNames(schema), so the key carries every arity,
/// position type, input-position set and exact/idempotent/result-bound
/// promise but no relation or method name. Two requests with equal
/// keys answer every submission identically: an answer depends on
/// what a schema's relations and methods are, never on what they are
/// called (DESIGN.md §9).
struct CanonicalRequestKey {
  /// schema::SerializeSchema of the name-canonicalized schema.
  std::string schema_text;
  /// The formula rendered against that schema.
  std::string formula_text;
  /// CanonicalOptionsKey of the Prepare-time options.
  std::string options_text;

  /// The flat LRU key: schema_text + '\n' + formula_text + '\n' +
  /// options_text. Newlines cannot occur inside the components
  /// (serialized schemas are newline-terminated per declaration but
  /// the join is unambiguous because field order is fixed).
  std::string Joined() const;
};

CanonicalRequestKey MakeCanonicalRequestKey(const schema::Schema& schema,
                                            const acc::AccPtr& formula,
                                            const PrepareOptions& options);

/// Rebuilds `schema` with positional names ("R0", "R1", … for
/// relations; "M0", "M1", … for methods) while keeping every id,
/// arity, position type, input-position set and exact/idempotent/
/// result-bound promise unchanged. Two schemas that differ only in
/// relation/method names canonicalize to equal serializations; every
/// formula AST (which refers to predicates by id) remains valid
/// against the canonicalized schema.
schema::Schema CanonicalizeSchemaNames(const schema::Schema& schema);

}  // namespace service
}  // namespace accltl

#endif  // ACCLTL_SERVICE_CANONICAL_H_
