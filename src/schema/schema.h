#ifndef ACCLTL_SCHEMA_SCHEMA_H_
#define ACCLTL_SCHEMA_SCHEMA_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/common/value.h"

namespace accltl {
namespace schema {

/// Index of a relation within a Schema.
using RelationId = int;
/// Index of an access method within a Schema.
using AccessMethodId = int;
/// A position (column index, 0-based) within a relation. The paper uses
/// 1-based positions; the C++ API is 0-based throughout.
using Position = int;

/// A relation under the unnamed perspective (§2): a name plus a typed
/// arity. Tuples are functions from positions to the position's domain.
struct Relation {
  std::string name;
  std::vector<ValueType> position_types;

  int arity() const { return static_cast<int>(position_types.size()); }
};

/// An access method (§2): a relation plus a set of input positions.
/// Using the method means supplying a binding for the input positions
/// and receiving a set of matching tuples.
///
/// The schema may additionally promise sanity properties for a method
/// (§2): `exact` methods return *all* matching tuples of the underlying
/// instance; `idempotent` methods are deterministic (same access -> same
/// response). Neither is assumed by default.
///
/// A method may further carry a *result bound* (Amarilli & Benedikt,
/// "When Can We Answer Queries Using Result-Bounded Data Interfaces?"):
/// a bounded method returns at most `result_bound` matching tuples,
/// chosen nondeterministically. `result_bound < 0` (the default) means
/// unbounded — the classic §2 method. `result_bound == 0` is legal and
/// means the method only ever answers with the empty response. An
/// `exact` bound-k method returns min(k, |matching|) tuples: all of
/// them when they fit, a nondeterministic size-k subset otherwise.
struct AccessMethod {
  std::string name;
  RelationId relation = 0;
  /// Sorted, duplicate-free input positions. May be empty (a "dump"
  /// access with no required fields) or all positions (a boolean /
  /// membership-test access).
  std::vector<Position> input_positions;
  bool exact = false;
  bool idempotent = false;
  /// Max tuples one access may return; -1 = unbounded.
  int result_bound = -1;

  int num_inputs() const { return static_cast<int>(input_positions.size()); }
  bool bounded() const { return result_bound >= 0; }
};

/// A schema with access restrictions (§2): relations plus access
/// methods. Immutable after construction through the fluent adders;
/// all lookups are by id (dense ints) or name.
///
/// Example (the paper's phone-directory schema, §1):
///   Schema sch;
///   RelationId mob = sch.AddRelation("Mobile", {kString, kString,
///                                               kString, kInt});
///   sch.AddAccessMethod("AcM1", mob, {0});   // name is the input field
class Schema {
 public:
  Schema() = default;

  /// Adds a relation; returns its id. Names must be unique and non-empty.
  RelationId AddRelation(const std::string& name,
                         std::vector<ValueType> position_types);

  /// Adds an access method on `relation`; returns its id. Input
  /// positions are deduplicated and sorted; they must be valid positions
  /// of the relation. `result_bound` < 0 means unbounded.
  AccessMethodId AddAccessMethod(const std::string& name, RelationId relation,
                                 std::vector<Position> input_positions,
                                 bool exact = false, bool idempotent = false,
                                 int result_bound = -1);

  int num_relations() const { return static_cast<int>(relations_.size()); }
  int num_access_methods() const { return static_cast<int>(methods_.size()); }

  const Relation& relation(RelationId id) const { return relations_[id]; }
  const AccessMethod& method(AccessMethodId id) const { return methods_[id]; }

  /// Access methods declared on a given relation.
  const std::vector<AccessMethodId>& methods_on(RelationId id) const {
    return methods_on_[id];
  }

  /// Name lookups; return kNotFound if absent.
  Result<RelationId> FindRelation(const std::string& name) const;
  Result<AccessMethodId> FindMethod(const std::string& name) const;

  /// Validates a whole-relation tuple: arity and per-position types.
  Status ValidateTuple(RelationId id, const Tuple& t) const;

  /// Validates a binding for a method: one value per input position with
  /// matching types.
  Status ValidateBinding(AccessMethodId id, const Tuple& binding) const;

  /// Renders a summary, one relation/method per line.
  std::string ToString() const;

 private:
  std::vector<Relation> relations_;
  std::vector<AccessMethod> methods_;
  std::vector<std::vector<AccessMethodId>> methods_on_;
};

}  // namespace schema
}  // namespace accltl

#endif  // ACCLTL_SCHEMA_SCHEMA_H_
