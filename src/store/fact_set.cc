#include "src/store/fact_set.h"

#include <iterator>

namespace accltl {
namespace store {

const FactSet::Ptr& FactSet::Empty() {
  static const Ptr empty = Ptr(new FactSet());
  return empty;
}

FactSet::Ptr FactSet::Make(std::vector<FactId> sorted_ids) {
  if (sorted_ids.empty()) return Empty();
  auto set = std::shared_ptr<FactSet>(new FactSet());
  const Store& store = Store::Get();
  uint64_t h = 0;
  for (FactId id : sorted_ids) h ^= store.fact_hash(id);
  set->ids_ = std::move(sorted_ids);
  set->hash_ = h;
  return set;
}

FactSet::Ptr FactSet::FromUnsorted(std::vector<FactId> ids) {
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  return Make(std::move(ids));
}

FactSet::Ptr FactSet::WithFact(const Ptr& base, FactId id, bool* added) {
  const std::vector<FactId>& ids = base->ids_;
  auto pos = std::lower_bound(ids.begin(), ids.end(), id);
  if (pos != ids.end() && *pos == id) {
    if (added != nullptr) *added = false;
    return base;
  }
  auto set = std::shared_ptr<FactSet>(new FactSet());
  set->ids_.reserve(ids.size() + 1);
  set->ids_.insert(set->ids_.end(), ids.begin(), pos);
  set->ids_.push_back(id);
  set->ids_.insert(set->ids_.end(), pos, ids.end());
  set->hash_ = base->hash_ ^ Store::Get().fact_hash(id);
  if (added != nullptr) *added = true;
  return set;
}

FactSet::Ptr FactSet::Union(const Ptr& a, const Ptr& b) {
  if (a->empty() || b.get() == a.get()) return b;
  if (b->empty()) return a;
  std::vector<FactId> merged;
  merged.reserve(a->size() + b->size());
  std::set_union(a->ids_.begin(), a->ids_.end(), b->ids_.begin(),
                 b->ids_.end(), std::back_inserter(merged));
  if (merged.size() == a->size()) return a;  // b ⊆ a
  if (merged.size() == b->size()) return b;  // a ⊆ b
  return Make(std::move(merged));
}

bool FactSet::SubsetOf(const FactSet& other) const {
  if (size() > other.size()) return false;
  return std::includes(other.ids_.begin(), other.ids_.end(), ids_.begin(),
                       ids_.end());
}

}  // namespace store
}  // namespace accltl
