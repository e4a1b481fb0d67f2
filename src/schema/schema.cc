#include "src/schema/schema.h"

#include <algorithm>
#include <cassert>

#include "src/common/strings.h"

namespace accltl {
namespace schema {

RelationId Schema::AddRelation(const std::string& name,
                               std::vector<ValueType> position_types) {
  assert(!name.empty() && "relation name must be non-empty");
  assert(!FindRelation(name).ok() && "duplicate relation name");
  RelationId id = static_cast<RelationId>(relations_.size());
  relations_.push_back(Relation{name, std::move(position_types)});
  methods_on_.emplace_back();
  return id;
}

AccessMethodId Schema::AddAccessMethod(const std::string& name,
                                       RelationId relation,
                                       std::vector<Position> input_positions,
                                       bool exact, bool idempotent,
                                       int result_bound) {
  assert(!name.empty() && "method name must be non-empty");
  assert(!FindMethod(name).ok() && "duplicate method name");
  assert(relation >= 0 && relation < num_relations());
  std::sort(input_positions.begin(), input_positions.end());
  input_positions.erase(
      std::unique(input_positions.begin(), input_positions.end()),
      input_positions.end());
  for (Position p : input_positions) {
    assert(p >= 0 && p < relations_[relation].arity() &&
           "input position out of range");
    (void)p;
  }
  AccessMethodId id = static_cast<AccessMethodId>(methods_.size());
  if (result_bound < 0) result_bound = -1;  // every "unbounded" is -1
  methods_.push_back(AccessMethod{name, relation, std::move(input_positions),
                                  exact, idempotent, result_bound});
  methods_on_[relation].push_back(id);
  return id;
}

// Name lookups scan: schemas have a handful of relations and methods,
// and every prepared query keeps a copy, where name maps cost more
// memory than the scans cost time.
Result<RelationId> Schema::FindRelation(const std::string& name) const {
  for (size_t i = 0; i < relations_.size(); ++i) {
    if (relations_[i].name == name) return static_cast<RelationId>(i);
  }
  return Status::NotFound("unknown relation: " + name);
}

Result<AccessMethodId> Schema::FindMethod(const std::string& name) const {
  for (size_t i = 0; i < methods_.size(); ++i) {
    if (methods_[i].name == name) return static_cast<AccessMethodId>(i);
  }
  return Status::NotFound("unknown access method: " + name);
}

Status Schema::ValidateTuple(RelationId id, const Tuple& t) const {
  if (id < 0 || id >= num_relations()) {
    return Status::InvalidArgument("relation id out of range");
  }
  const Relation& rel = relations_[id];
  if (static_cast<int>(t.size()) != rel.arity()) {
    return Status::InvalidArgument("arity mismatch for " + rel.name +
                                   ": expected " +
                                   std::to_string(rel.arity()) + ", got " +
                                   std::to_string(t.size()));
  }
  for (int i = 0; i < rel.arity(); ++i) {
    if (t[i].type() != rel.position_types[i]) {
      return Status::InvalidArgument(
          "type mismatch for " + rel.name + " position " + std::to_string(i) +
          ": expected " + ValueTypeName(rel.position_types[i]) + ", got " +
          ValueTypeName(t[i].type()));
    }
  }
  return Status::OK();
}

Status Schema::ValidateBinding(AccessMethodId id, const Tuple& binding) const {
  if (id < 0 || id >= num_access_methods()) {
    return Status::InvalidArgument("access method id out of range");
  }
  const AccessMethod& m = methods_[id];
  const Relation& rel = relations_[m.relation];
  if (static_cast<int>(binding.size()) != m.num_inputs()) {
    return Status::InvalidArgument(
        "binding arity mismatch for " + m.name + ": expected " +
        std::to_string(m.num_inputs()) + ", got " +
        std::to_string(binding.size()));
  }
  for (int i = 0; i < m.num_inputs(); ++i) {
    ValueType want = rel.position_types[m.input_positions[i]];
    if (binding[i].type() != want) {
      return Status::InvalidArgument(
          "binding type mismatch for " + m.name + " input " +
          std::to_string(i) + ": expected " + ValueTypeName(want) + ", got " +
          ValueTypeName(binding[i].type()));
    }
  }
  return Status::OK();
}

std::string Schema::ToString() const {
  std::vector<std::string> lines;
  for (const Relation& r : relations_) {
    std::vector<std::string> cols;
    cols.reserve(r.position_types.size());
    for (ValueType t : r.position_types) cols.push_back(ValueTypeName(t));
    lines.push_back(r.name + "(" + Join(cols, ", ") + ")");
  }
  for (const AccessMethod& m : methods_) {
    std::vector<std::string> ins;
    ins.reserve(m.input_positions.size());
    for (Position p : m.input_positions) ins.push_back(std::to_string(p));
    std::string tags;
    if (m.exact) tags += " exact";
    if (m.idempotent) tags += " idempotent";
    if (m.bounded()) tags += " bound=" + std::to_string(m.result_bound);
    lines.push_back("  " + m.name + ": " + relations_[m.relation].name +
                    " inputs={" + Join(ins, ",") + "}" + tags);
  }
  return Join(lines, "\n");
}

}  // namespace schema
}  // namespace accltl
