#include "src/logic/structure.h"

#include <algorithm>

namespace accltl {
namespace logic {

CandidateView::CandidateView(const schema::Schema& schema,
                             const schema::Instance& pre,
                             const schema::Access& access,
                             const std::vector<store::FactId>& response_ids,
                             std::vector<store::FactId>* scratch)
    : pre_(pre),
      access_(access),
      relation_(schema.method(access.method).relation),
      new_ids_(*scratch) {
  const store::FactSet& base = *pre.facts(relation_);
  scratch->clear();
  for (store::FactId id : response_ids) {
    if (!base.Contains(id)) scratch->push_back(id);
  }
  std::sort(scratch->begin(), scratch->end());
  scratch->erase(std::unique(scratch->begin(), scratch->end()),
                 scratch->end());
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
