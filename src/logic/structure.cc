#include "src/logic/structure.h"

#include <algorithm>

namespace accltl {
namespace logic {

CandidateView::CandidateView(const schema::Schema& schema,
                             const schema::Instance& pre,
                             const schema::Access& access,
                             const std::vector<store::FactId>& response_ids)
    : pre_(pre),
      access_(access),
      relation_(schema.method(access.method).relation) {
  const store::FactSet& base = *pre.facts(relation_);
  for (store::FactId id : response_ids) {
    if (!base.Contains(id)) new_ids_.push_back(id);
  }
  std::sort(new_ids_.begin(), new_ids_.end());
  new_ids_.erase(std::unique(new_ids_.begin(), new_ids_.end()),
                 new_ids_.end());
}

std::string Database::ToString(const schema::Schema& schema) const {
  std::string out;
  for (const auto& [pred, tuples] : rels_) {
    for (const Tuple& t : tuples) {
      out += PredicateName(pred, schema) + TupleToString(t) + "\n";
    }
  }
  return out;
}

}  // namespace logic
}  // namespace accltl
