#ifndef ACCLTL_ENGINE_TWO_PHASE_H_
#define ACCLTL_ENGINE_TWO_PHASE_H_

#include <algorithm>
#include <cstddef>
#include <memory>
#include <utility>
#include <vector>

#include "src/engine/cancel.h"
#include "src/engine/explorer.h"
#include "src/engine/thread_pool.h"
#include "src/obs/trace.h"

namespace accltl {
namespace engine {

/// The shared parallel-search driver of the witness engines
/// (automata::BoundedWitnessSearch, analysis::CheckZeroArySatisfiable):
///
/// - one worker: serial depth-first in the caller's reduction order
///   (`dfs_visit` expands children pf-sorted), whose first accept is
///   the reduced answer;
/// - several workers: a serial pf-DFS *pilot* with a small node cap
///   (fast satisfiable answers and small exhaustive sweeps finish here
///   with the very result the serial path returns), then — only if the
///   pilot was cut — `reset()` discards its partial state and a
///   level-synchronous sweep (`level_visit` + `reduce`) re-explores
///   with deterministic barrier reductions, against the budget that
///   remains after the pilot.
///
/// `found()` reports whether the pilot already produced an accepting
/// answer. The returned stats aggregate both phases; `budget_exhausted`
/// is the final phase's verdict (the pilot's cut is an internal
/// staging step, not a caller-visible budget). `exec.cancel` is polled
/// by both phases at node granularity: a cancelled pilot is returned
/// as-is (its `cancelled` stat set) rather than escalating to the
/// sweep.
template <typename Node, typename MakeRoots, typename DfsVisit,
          typename LevelVisit, typename Reduce, typename FoundFn,
          typename ResetFn>
typename Explorer<Node>::Stats TwoPhaseExplore(
    const ExecOptions& exec, size_t max_nodes, const MakeRoots& make_roots,
    const DfsVisit& dfs_visit, const LevelVisit& level_visit,
    const Reduce& reduce, const FoundFn& found, const ResetFn& reset) {
  size_t workers = exec.num_threads < 1 ? 1 : exec.num_threads;
  Explorer<Node> explorer;
  if (workers == 1) {
    obs::Span span("serial-dfs");
    return explorer.Run(make_roots(), max_nodes, exec.cancel, dfs_visit);
  }
  constexpr size_t kPilotBudget = 256;
  size_t pilot_budget = std::min(kPilotBudget, max_nodes);
  typename Explorer<Node>::Stats pilot;
  {
    obs::Span span("pilot");
    pilot = explorer.Run(make_roots(), pilot_budget, exec.cancel, dfs_visit);
  }
  if (found() || pilot.cancelled || !pilot.budget_exhausted ||
      pilot_budget == max_nodes) {
    // Found, cancelled, swept, or the global budget itself is spent.
    return pilot;
  }
  reset();
  typename Explorer<Node>::Options bopts;
  bopts.num_threads = workers;
  bopts.cancel = exec.cancel;
  // The pilot's pops count against the caller's budget: the total
  // across both phases never exceeds max_nodes.
  bopts.max_nodes = max_nodes - pilot.nodes_explored;
  obs::Span span("sweep");
  typename Explorer<Node>::Stats stats =
      explorer.RunLevels(make_roots(), bopts, level_visit, reduce);
  stats.nodes_explored += pilot.nodes_explored;
  return stats;
}

/// The shared barrier reduction: stripe the merged child batch by
/// class hash (the caller's dominance relation must only relate nodes
/// of equal class, so related nodes always share a stripe), sort each
/// stripe with `less` (a strict weak order on node *content*), and
/// keep the nodes `keep` accepts, in sorted order. Every input batch
/// set is complete and every stripe reduces deterministically, so the
/// surviving frontier is identical at every worker count (only its
/// concatenation order varies, which the level barrier erases).
///
/// `keep` typically applies the best-path prune and the visited-table
/// check-and-insert; it runs concurrently across stripes but in
/// sorted order within each stripe.
template <typename Node, typename HashFn, typename LessFn, typename KeepFn>
std::vector<std::unique_ptr<Node>> ReduceLevelByContent(
    std::vector<std::vector<Node*>> batches, const HashFn& class_hash,
    const LessFn& less, const KeepFn& keep) {
  constexpr size_t kStripes = 64;
  size_t producers = batches.size();
  // Phase A (parallel): each worker buckets the children *it*
  // emitted — allocation affinity, no shared writes.
  std::vector<std::vector<std::vector<Node*>>> bucketed(
      producers, std::vector<std::vector<Node*>>(kStripes));
  ThreadPool::Global().Run(producers, [&](size_t w) {
    for (Node* child : batches[w]) {
      bucketed[w][static_cast<size_t>(class_hash(*child)) & (kStripes - 1)]
          .push_back(child);
    }
  });
  // Phase B (parallel): each worker owns a set of stripes.
  std::vector<std::vector<std::unique_ptr<Node>>> outs(producers);
  ThreadPool::Global().Run(producers, [&](size_t w) {
    std::vector<std::unique_ptr<Node>> stripe;
    for (size_t s = w; s < kStripes; s += producers) {
      stripe.clear();
      for (size_t p = 0; p < producers; ++p) {
        for (Node* child : bucketed[p][s]) stripe.emplace_back(child);
      }
      std::sort(stripe.begin(), stripe.end(),
                [&](const std::unique_ptr<Node>& a,
                    const std::unique_ptr<Node>& b) {
                  return less(*a, *b);
                });
      for (std::unique_ptr<Node>& node : stripe) {
        if (keep(*node)) outs[w].push_back(std::move(node));
      }
    }
  });
  std::vector<std::unique_ptr<Node>> frontier;
  size_t total = 0;
  for (auto& out : outs) total += out.size();
  frontier.reserve(total);
  for (auto& out : outs) {
    for (auto& node : out) frontier.push_back(std::move(node));
  }
  return frontier;
}

}  // namespace engine
}  // namespace accltl

#endif  // ACCLTL_ENGINE_TWO_PHASE_H_
