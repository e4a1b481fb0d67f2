#ifndef ACCLTL_LOGIC_CONTAINMENT_H_
#define ACCLTL_LOGIC_CONTAINMENT_H_

#include <map>
#include <string>

#include "src/common/status.h"
#include "src/logic/cq.h"

namespace accltl {
namespace logic {

/// Classical query containment over all databases (no access patterns —
/// that variant lives in analysis/containment_ap.h).
///
/// For ≠-free queries this is the Chandra–Merlin homomorphism test
/// (freeze the left query, evaluate the right one). With inequalities we
/// use Klug's method: enumerate all identifications of the left
/// disjunct's variables (merging variables with each other and with the
/// constants occurring in either query) consistent with its ≠ atoms, and
/// require the right query to hold on every collapsed canonical
/// database. Exponential in the number of left-hand variables; exact.

/// Is q1 ⊆ q2? Heads must have equal arity.
Result<bool> CqContained(const Cq& q1, const Cq& q2,
                         const schema::Schema& schema);

/// Is q1 ⊆ Q2 (a union)?
Result<bool> CqContainedInUcq(const Cq& q1, const Ucq& q2,
                              const schema::Schema& schema);

/// Is Q1 ⊆ Q2? (disjunct-wise: every disjunct of Q1 contained in Q2).
Result<bool> UcqContained(const Ucq& q1, const Ucq& q2,
                          const schema::Schema& schema);

/// Is the sentence `f1` contained in sentence `f2` (i.e. every structure
/// satisfying f1 satisfies f2)? Both are normalized to UCQs first.
Result<bool> SentenceContained(const PosFormulaPtr& f1,
                               const PosFormulaPtr& f2,
                               const schema::Schema& schema);

}  // namespace logic
}  // namespace accltl

#endif  // ACCLTL_LOGIC_CONTAINMENT_H_
