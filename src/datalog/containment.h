#ifndef ACCLTL_DATALOG_CONTAINMENT_H_
#define ACCLTL_DATALOG_CONTAINMENT_H_

#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/datalog/program.h"

namespace accltl {
namespace datalog {

/// A boolean conjunctive query over EDB predicates (all variables
/// existentially quantified); a positive FO sentence is a union of
/// these.
struct DlCq {
  std::vector<DlAtom> atoms;

  std::string ToString() const;
};

/// A positive existential FO sentence in UCQ normal form.
using DlUcq = std::vector<DlCq>;

struct ContainmentStats {
  /// Distinct (predicate, type-entry) pairs discovered.
  size_t type_entries = 0;
  /// Rule/child-entry combinations composed.
  size_t compositions = 0;
  /// Fixpoint rounds.
  size_t iterations = 0;
};

struct ContainmentOptions {
  /// Cap on surviving type entries per predicate.
  size_t max_entries_per_pred = 1u << 14;
  /// Cap on total compositions before giving up.
  size_t max_compositions = 1u << 24;
};

/// Prop. 4.11: is the Datalog program `p` contained in the positive FO
/// sentence `query` — i.e. does every database accepted by `p` satisfy
/// `query`? Decidable (2EXPTIME); both sides may use constants.
///
/// Implementation: a least fixpoint over *types* of proof-tree
/// expansions. A type is a pair (interface profile, set of partial
/// embeddings): the profile records which head positions of the
/// expansion are forced equal / forced to constants, and each partial
/// embedding records how a subset of a query disjunct's atoms can map
/// into the expansion, with its residual requirements on the interface.
/// An expansion whose type contains an unconditional full embedding can
/// never witness non-containment and is pruned; the program is
/// contained iff no type at all survives for the (0-ary) goal.
Result<bool> ContainedInPositive(const Program& p, const DlUcq& query,
                                 const ContainmentOptions& options = {},
                                 ContainmentStats* stats = nullptr);

/// Unfolds a non-recursive program's goal into a UCQ over EDB
/// predicates (used as an exact cross-check of ContainedInPositive and
/// as the nonrecursive fast path). Fails on recursive programs or when
/// the expansion exceeds `max_disjuncts`.
Result<DlUcq> UnfoldToUcq(const Program& p, size_t max_disjuncts = 10000);

/// Does `db`, viewed as a concrete database, satisfy the sentence
/// (some disjunct maps homomorphically into it)?
bool UcqHoldsOnDb(const DlUcq& query, const DlDatabase& db);

/// Containment of UCQ sentences over the same EDB vocabulary:
/// lhs ⊆ rhs iff each disjunct's canonical database satisfies rhs.
bool DlUcqContained(const DlUcq& lhs, const DlUcq& rhs);

}  // namespace datalog
}  // namespace accltl

#endif  // ACCLTL_DATALOG_CONTAINMENT_H_
