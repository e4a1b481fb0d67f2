#include "src/service/canonical.h"

#include <cstdint>

#include "src/schema/text_format.h"

namespace accltl {
namespace service {

namespace {

/// Appends one options field to the canonical key. Field order is
/// fixed; every semantic knob must appear here.
void KeyField(std::string* key, const char* name, uint64_t value) {
  key->append(name);
  key->push_back('=');
  key->append(std::to_string(value));
  key->push_back(';');
}

}  // namespace

std::string CanonicalOptionsKey(const PrepareOptions& o) {
  std::string key;
  KeyField(&key, "grounded", o.grounded ? 1 : 0);
  KeyField(&key, "datalog", o.use_datalog_pipeline ? 1 : 0);
  KeyField(&key, "shrink", o.shrink_witness ? 1 : 0);
  KeyField(&key, "z.grounded", o.zero.grounded ? 1 : 0);
  KeyField(&key, "z.idem", o.zero.require_idempotent ? 1 : 0);
  KeyField(&key, "z.max_nodes", o.zero.max_nodes);
  KeyField(&key, "z.max_facts", o.zero.max_facts_per_step);
  KeyField(&key, "z.max_len", o.zero.max_path_length);
  KeyField(&key, "z.max_subsets", o.zero.max_subsets_per_access);
  KeyField(&key, "b.max_len", o.bounded.max_path_length);
  KeyField(&key, "b.grounded", o.bounded.grounded ? 1 : 0);
  KeyField(&key, "b.idem", o.bounded.require_idempotent ? 1 : 0);
  KeyField(&key, "b.exact", o.bounded.require_exact ? 1 : 0);
  KeyField(&key, "b.max_nodes", o.bounded.max_nodes);
  KeyField(&key, "b.max_real", o.bounded.max_realizations_per_step);
  KeyField(&key, "d.max_variants", o.decompose.max_variants);
  KeyField(&key, "d.max_phi", o.decompose.max_phi);
  KeyField(&key, "d.max_stages", o.decompose.max_stages);
  return key;
}

std::string CanonicalRequestKey::Joined() const {
  std::string key;
  key.reserve(schema_text.size() + formula_text.size() +
              options_text.size() + 2);
  key += schema_text;
  key.push_back('\n');
  key += formula_text;
  key.push_back('\n');
  key += options_text;
  return key;
}

CanonicalRequestKey MakeCanonicalRequestKey(const schema::Schema& schema,
                                            const acc::AccPtr& formula,
                                            const PrepareOptions& options) {
  schema::Schema canonical = CanonicalizeSchemaNames(schema);
  CanonicalRequestKey key;
  key.schema_text = schema::SerializeSchema(canonical);
  key.formula_text = formula->ToString(canonical);
  key.options_text = CanonicalOptionsKey(options);
  return key;
}

schema::Schema CanonicalizeSchemaNames(const schema::Schema& schema) {
  schema::Schema canonical;
  for (int r = 0; r < schema.num_relations(); ++r) {
    canonical.AddRelation("R" + std::to_string(r),
                          schema.relation(r).position_types);
  }
  for (int m = 0; m < schema.num_access_methods(); ++m) {
    const schema::AccessMethod& method = schema.method(m);
    canonical.AddAccessMethod("M" + std::to_string(m), method.relation,
                              method.input_positions, method.exact,
                              method.idempotent, method.result_bound);
  }
  return canonical;
}

}  // namespace service
}  // namespace accltl
