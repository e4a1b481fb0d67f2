#include "src/logic/predicate.h"

namespace accltl {
namespace logic {

ValueType PredicatePositionType(const PredicateRef& pred, int i,
                                const schema::Schema& schema) {
  switch (pred.space) {
    case PredSpace::kPlain:
    case PredSpace::kPre:
    case PredSpace::kPost:
      return schema.relation(pred.id).position_types[static_cast<size_t>(i)];
    case PredSpace::kBind: {
      const schema::AccessMethod& m = schema.method(pred.id);
      return schema.relation(m.relation)
          .position_types[static_cast<size_t>(m.input_positions[
              static_cast<size_t>(i)])];
    }
  }
  return ValueType::kInt;
}

std::string PredicateName(const PredicateRef& pred,
                          const schema::Schema& schema) {
  switch (pred.space) {
    case PredSpace::kPlain:
      return schema.relation(pred.id).name;
    case PredSpace::kPre:
      return schema.relation(pred.id).name + "_pre";
    case PredSpace::kPost:
      return schema.relation(pred.id).name + "_post";
    case PredSpace::kBind:
      return "IsBind_" + schema.method(pred.id).name;
  }
  return "?";
}

}  // namespace logic
}  // namespace accltl
