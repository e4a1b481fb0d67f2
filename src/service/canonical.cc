#include "src/service/canonical.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "src/logic/predicate.h"
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

constexpr uint64_t kFnvOffset = 1469598103934665603ull;
constexpr uint64_t kFnvPrime = 1099511628211ull;

void HashBytes(uint64_t* h, const void* data, size_t len) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < len; ++i) {
    *h ^= p[i];
    *h *= kFnvPrime;
  }
}

void HashString(uint64_t* h, const std::string& s) {
  HashBytes(h, s.data(), s.size());
  HashBytes(h, "\x1f", 1);
}

/// Appends the temporal skeleton of `f` — operators only, atom
/// contents elided — and collects each atom's predicate profile into
/// `preds`. The skeleton string distinguishes operator kinds and
/// child counts, so only structurally parallel formulas share it.
void WalkSkeleton(const acc::AccPtr& f, const schema::Schema& schema,
                  std::string* skeleton,
                  std::vector<std::tuple<int, int, int>>* preds) {
  switch (f->kind()) {
    case acc::AccKind::kAtom: {
      skeleton->push_back('a');
      for (const logic::PredicateRef& p : f->sentence()->Predicates()) {
        preds->emplace_back(static_cast<int>(p.space), p.id,
                            logic::PredicateArity(p, schema));
      }
      return;
    }
    case acc::AccKind::kNot:
      skeleton->push_back('!');
      WalkSkeleton(f->child(), schema, skeleton, preds);
      return;
    case acc::AccKind::kNext:
      skeleton->push_back('X');
      WalkSkeleton(f->child(), schema, skeleton, preds);
      return;
    case acc::AccKind::kUntil:
      skeleton->append("U(");
      WalkSkeleton(f->lhs(), schema, skeleton, preds);
      skeleton->push_back(',');
      WalkSkeleton(f->rhs(), schema, skeleton, preds);
      skeleton->push_back(')');
      return;
    case acc::AccKind::kAnd:
    case acc::AccKind::kOr:
      skeleton->push_back(f->kind() == acc::AccKind::kAnd ? '&' : '|');
      skeleton->push_back('(');
      for (const acc::AccPtr& c : f->children()) {
        WalkSkeleton(c, schema, skeleton, preds);
        skeleton->push_back(',');
      }
      skeleton->push_back(')');
      return;
  }
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
  KeyField(&key, "b.dedup", o.bounded.use_visited_dedup ? 1 : 0);
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
  CanonicalRequestKey key;
  key.schema_text = schema::SerializeSchema(schema);
  key.formula_text = formula->ToString(schema);
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

SemanticKey MakeSemanticKey(const schema::Schema& schema,
                            const acc::AccPtr& formula,
                            const PrepareOptions& options) {
  SemanticKey key;
  schema::Schema canonical = CanonicalizeSchemaNames(schema);
  key.schema_text = schema::SerializeSchema(canonical);
  key.formula_text = formula->ToString(canonical);
  key.options_text = CanonicalOptionsKey(options);
  // Prepared queries keep their key for life: drop the append slack.
  key.schema_text.shrink_to_fit();
  key.formula_text.shrink_to_fit();
  key.options_text.shrink_to_fit();

  std::string skeleton;
  std::vector<std::tuple<int, int, int>> preds;
  WalkSkeleton(formula, canonical, &skeleton, &preds);
  // Sorted multiset: variable renamings, join permutations and
  // variable identifications leave it unchanged, so such variants
  // fingerprint identically.
  std::sort(preds.begin(), preds.end());

  uint64_t h = kFnvOffset;
  HashString(&h, key.schema_text);
  HashString(&h, key.options_text);
  HashString(&h, skeleton);
  for (const auto& [space, id, arity] : preds) {
    HashBytes(&h, &space, sizeof(space));
    HashBytes(&h, &id, sizeof(id));
    HashBytes(&h, &arity, sizeof(arity));
  }
  key.fingerprint = h;
  return key;
}

}  // namespace service
}  // namespace accltl
