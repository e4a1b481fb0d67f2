#ifndef ACCLTL_STORE_TUPLE_RANGE_H_
#define ACCLTL_STORE_TUPLE_RANGE_H_

#include <algorithm>
#include <cstddef>
#include <set>

#include "src/common/value.h"
#include "src/store/fact_set.h"

namespace accltl {
namespace store {

/// A lightweight read-only range of tuples, unifying the physical
/// representations the library uses: interned fact-id spans
/// (instances), plain std::set<Tuple> (canonical databases) and a
/// single borrowed tuple (an access binding). Iteration yields
/// `const Tuple&` either way; fact-id mode decodes through the global
/// store at O(1) per step with no allocation.
///
/// Fact-id mode holds up to two spans, each strictly ascending and
/// disjoint from the other: a relation's set plus the ids an access
/// response adds to it (logic::CandidateView reads a post-instance
/// relation this way without building it). Iteration visits the first
/// span, then the second.
///
/// A default-constructed range is empty — "no interpretation" and "the
/// empty interpretation" are deliberately the same thing here.
class TupleRange {
 public:
  TupleRange() = default;
  /// Fact-id mode. `set` may be null (empty range). The range does not
  /// keep the set alive; the caller's set must outlive the range.
  explicit TupleRange(const FactSet* set) : TupleRange(set, nullptr, 0) {}
  /// Two-span fact-id mode: `set` (may be null) followed by
  /// `extra[0, num_extra)`, ascending and disjoint from `set`.
  TupleRange(const FactSet* set, const FactId* extra, size_t num_extra)
      : fact_mode_(true) {
    if (set != nullptr && !set->empty()) {
      ids_ = set->ids().data();
      num_ids_ = set->size();
      extra_ = num_extra == 0 ? nullptr : extra;
      num_extra_ = num_extra;
    } else if (num_extra > 0) {
      ids_ = extra;
      num_ids_ = num_extra;
    }
  }
  /// Set mode. `tuples` may be null (empty range).
  explicit TupleRange(const std::set<Tuple>* tuples) : set_(tuples) {}
  /// The one-tuple range {*tuple}; the tuple must outlive the range.
  static TupleRange Single(const Tuple* tuple) {
    TupleRange r;
    r.single_ = tuple;
    return r;
  }

  size_t size() const {
    if (set_ != nullptr) return set_->size();
    if (single_ != nullptr) return 1;
    return num_ids_ + num_extra_;
  }
  bool empty() const { return size() == 0; }

  bool Contains(const Tuple& t) const {
    if (set_ != nullptr) return set_->count(t) > 0;
    if (single_ != nullptr) return *single_ == t;
    if (ids_ == nullptr) return false;
    FactId id = Store::Get().TryFindTuple(t);
    if (id == kNoFactId) return false;
    return std::binary_search(ids_, ids_ + num_ids_, id) ||
           std::binary_search(extra_, extra_ + num_extra_, id);
  }

  /// True for the fact-id modes: `span_begin(i)`/`span_end(i)` for
  /// i = 0, 1 then expose the ids directly (evaluators compare interned
  /// value ids instead of decoding tuples).
  bool has_fact_ids() const { return fact_mode_; }
  const FactId* span_begin(int i) const { return i == 0 ? ids_ : extra_; }
  const FactId* span_end(int i) const {
    return i == 0 ? ids_ + num_ids_ : extra_ + num_extra_;
  }

  class const_iterator {
   public:
    const_iterator& operator++() {
      if (set_mode_) {
        ++it_;
      } else if (++p_ == end_ && next_ != nullptr) {
        p_ = next_;
        end_ = next_end_;
        next_ = nullptr;
      }
      return *this;
    }
    const Tuple& operator*() const {
      if (set_mode_) return *it_;
      return single_ != nullptr ? *single_ : Store::Get().tuple(*p_);
    }
    const Tuple* operator->() const { return &**this; }
    friend bool operator==(const const_iterator& a, const const_iterator& b) {
      return a.set_mode_ ? a.it_ == b.it_ : a.p_ == b.p_;
    }
    friend bool operator!=(const const_iterator& a, const const_iterator& b) {
      return !(a == b);
    }

   private:
    friend class TupleRange;
    const_iterator() = default;

    /// Pointer modes: `p_` walks [p_, end_), then [next_, next_end_).
    /// Single mode walks a one-element dummy span with `single_` set.
    const FactId* p_ = nullptr;
    const FactId* end_ = nullptr;
    const FactId* next_ = nullptr;
    const FactId* next_end_ = nullptr;
    const Tuple* single_ = nullptr;
    std::set<Tuple>::const_iterator it_;
    bool set_mode_ = false;
  };

  const_iterator begin() const {
    const_iterator it;
    if (set_ != nullptr) {
      it.set_mode_ = true;
      it.it_ = set_->begin();
    } else if (single_ != nullptr) {
      it.single_ = single_;
      it.p_ = &kSingleSlot;
      it.end_ = &kSingleSlot + 1;
    } else {
      it.p_ = ids_;
      it.end_ = ids_ + num_ids_;
      it.next_ = extra_;
      it.next_end_ = extra_ + num_extra_;
    }
    return it;
  }
  const_iterator end() const {
    const_iterator it;
    if (set_ != nullptr) {
      it.set_mode_ = true;
      it.it_ = set_->end();
    } else if (single_ != nullptr) {
      it.p_ = &kSingleSlot + 1;
    } else if (extra_ != nullptr) {
      it.p_ = extra_ + num_extra_;
    } else {
      it.p_ = ids_ + num_ids_;
    }
    return it;
  }

  /// The set-mode source, or null.
  const std::set<Tuple>* tuple_set() const { return set_; }
  /// The single-mode tuple, or null.
  const Tuple* single_tuple() const { return single_; }

 private:
  static constexpr FactId kSingleSlot = kNoFactId;

  const FactId* ids_ = nullptr;
  size_t num_ids_ = 0;
  const FactId* extra_ = nullptr;
  size_t num_extra_ = 0;
  bool fact_mode_ = false;
  const std::set<Tuple>* set_ = nullptr;
  const Tuple* single_ = nullptr;
};

}  // namespace store
}  // namespace accltl

#endif  // ACCLTL_STORE_TUPLE_RANGE_H_
