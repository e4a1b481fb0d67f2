#ifndef ACCLTL_MONITOR_PROGRESSION_H_
#define ACCLTL_MONITOR_PROGRESSION_H_

#include <memory>
#include <string>
#include <vector>

#include "src/accltl/formula.h"
#include "src/engine/cancel.h"
#include "src/schema/access.h"
#include "src/schema/lts.h"

namespace accltl {
namespace monitor {

/// Four-valued runtime verdict for a policy over the access prefix
/// consumed so far (RV-LTL style):
///  - kSatisfied:       φ holds on the prefix and on every extension;
///  - kViolated:        φ fails on the prefix and on every extension;
///  - kCurrentlyTrue:   φ holds if the session stops now, but some
///                      extension could violate it;
///  - kCurrentlyFalse:  φ fails if the session stops now, but some
///                      extension could still satisfy it.
enum class Verdict {
  kSatisfied,
  kViolated,
  kCurrentlyTrue,
  kCurrentlyFalse,
};

const char* VerdictName(Verdict v);

/// True for the two irrevocable verdicts.
inline bool IsFinal(Verdict v) {
  return v == Verdict::kSatisfied || v == Verdict::kViolated;
}

/// Online AccLTL monitor by formula progression.
///
/// The monitor consumes one transition at a time and rewrites the
/// formula into the residual obligation on the remaining suffix:
///   prog(atom, t)  = M(t) ⊨ atom        (a constant)
///   prog(X φ, t)   = φ                  (deferred to the next letter)
///   prog(φ U ψ, t) = prog(ψ,t) ∨ (prog(φ,t) ∧ φ U ψ)
/// with ¬/∧/∨ progressed pointwise and constant-folded.
///
/// The verdict matches the reference semantics (acc::EvalOnPath) on the
/// consumed prefix exactly: deferred obligations are *strong* — X and U
/// fail past the end of the path, as in Def. 2.1 over finite paths.
/// Irrevocable verdicts are detected by constant folding; this is sound
/// (a kSatisfied/kViolated verdict is correct for every extension) but
/// not complete — a residual that is unsatisfiable for deeper reasons
/// keeps reporting a kCurrently* verdict.
///
/// Works on *any* AccLTL(FO∃+,≠Acc) formula — monitoring evaluates
/// concrete transitions, so the fragment restrictions that matter for
/// satisfiability (Table 1) play no role here.
class ProgressionMonitor {
 public:
  /// The monitor starts before any access: `initial` is I0.
  ProgressionMonitor(acc::AccPtr formula, const schema::Schema& schema,
                     schema::Instance initial);

  /// Consumes one access/response step, advancing I_i to I_{i+1}.
  void Step(const schema::Access& access, const schema::Response& response);

  /// Consumes a pre-materialized transition. The transition's `pre`
  /// must equal the monitor's current configuration.
  void StepTransition(const schema::Transition& t);

  /// Cancellable variants. A progression step is all-or-nothing —
  /// `cancel` is polled on entry (the rewrite itself is bounded by the
  /// residual, not the configuration); a fired token returns false and
  /// leaves the monitor untouched so the caller may retry the same
  /// step, and an unfired token never changes any result (the PR-4
  /// cancellation contract). nullptr means uncancellable.
  bool TryStep(const schema::Access& access, const schema::Response& response,
               const engine::CancelToken* cancel);
  bool TryStepTransition(const schema::Transition& t,
                         const engine::CancelToken* cancel);

  /// Verdict for the prefix consumed so far. Before the first step the
  /// verdict is kCurrentlyFalse (the paper's paths are non-empty).
  Verdict verdict() const { return verdict_; }

  /// Does the consumed prefix satisfy the formula if the session ends
  /// here? (Equals acc::EvalOnPath on the consumed path.)
  bool CurrentlyHolds() const {
    return verdict_ == Verdict::kSatisfied ||
           verdict_ == Verdict::kCurrentlyTrue;
  }

  /// Number of steps consumed.
  size_t num_steps() const { return num_steps_; }

  /// Configuration after the consumed prefix (Conf(p, I0)).
  const schema::Instance& configuration() const { return current_; }

  /// Size of the residual obligation (nodes); grows at most linearly
  /// per step and shrinks under folding. Exposed for the ablation bench.
  size_t ResidualSize() const;

 private:
  struct Prog;
  using ProgPtr = std::shared_ptr<const Prog>;

  ProgPtr ProgressFormula(const acc::AccFormula* f,
                          const schema::Transition& t) const;
  ProgPtr ProgressResidual(const ProgPtr& s, const schema::Transition& t) const;
  void RecomputeVerdict();

  const schema::Schema& schema_;
  schema::Instance current_;
  ProgPtr residual_;
  Verdict verdict_ = Verdict::kCurrentlyFalse;
  size_t num_steps_ = 0;
};

/// Convenience: verdict trace of a whole path (one verdict per step).
std::vector<Verdict> MonitorPath(const acc::AccPtr& formula,
                                 const schema::Schema& schema,
                                 const schema::AccessPath& path,
                                 const schema::Instance& initial);

}  // namespace monitor
}  // namespace accltl

#endif  // ACCLTL_MONITOR_PROGRESSION_H_
