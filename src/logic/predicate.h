#ifndef ACCLTL_LOGIC_PREDICATE_H_
#define ACCLTL_LOGIC_PREDICATE_H_

#include <string>

#include "src/schema/schema.h"

namespace accltl {
namespace logic {

/// The vocabulary spaces of SchAcc (§2). `kPlain` is the base schema
/// vocabulary used by ordinary queries Q; `kPre`/`kPost` are the
/// before/after copies Rpre/Rpost of each schema relation; `kBind` is
/// the per-access-method binding predicate IsBind_AcM.
enum class PredSpace {
  kPlain = 0,
  kPre = 1,
  kPost = 2,
  kBind = 3,
};

/// A reference into the vocabulary: a space plus the relation id
/// (kPlain/kPre/kPost) or access-method id (kBind).
struct PredicateRef {
  PredSpace space = PredSpace::kPlain;
  int id = 0;

  friend bool operator==(const PredicateRef& a, const PredicateRef& b) {
    return a.space == b.space && a.id == b.id;
  }
  friend bool operator!=(const PredicateRef& a, const PredicateRef& b) {
    return !(a == b);
  }
  friend bool operator<(const PredicateRef& a, const PredicateRef& b) {
    if (a.space != b.space) return a.space < b.space;
    return a.id < b.id;
  }
};

inline PredicateRef Plain(schema::RelationId r) {
  return PredicateRef{PredSpace::kPlain, r};
}
inline PredicateRef Pre(schema::RelationId r) {
  return PredicateRef{PredSpace::kPre, r};
}
inline PredicateRef Post(schema::RelationId r) {
  return PredicateRef{PredSpace::kPost, r};
}
inline PredicateRef Bind(schema::AccessMethodId m) {
  return PredicateRef{PredSpace::kBind, m};
}

/// Declared type of position `i` (for bind predicates: the type of the
/// i-th input position of the method's relation).
ValueType PredicatePositionType(const PredicateRef& pred, int i,
                                const schema::Schema& schema);

/// Human-readable name, e.g. "Mobile_pre", "IsBind_AcM1".
std::string PredicateName(const PredicateRef& pred,
                          const schema::Schema& schema);

}  // namespace logic
}  // namespace accltl

#endif  // ACCLTL_LOGIC_PREDICATE_H_
