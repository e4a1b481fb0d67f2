#ifndef ACCLTL_ENGINE_PATH_LINK_H_
#define ACCLTL_ENGINE_PATH_LINK_H_

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace accltl {
namespace engine {

/// Generic path reconstruction for parallel searches: an immutable
/// parent chain of steps, so sibling subtrees share every common
/// prefix and no search mutates a path in place (a mutable push/pop
/// path vector does not survive a node changing workers between
/// levels).
///
/// Each link carries an *order-preserving byte key* of its step:
/// memcmp order over keys must equal the caller's content order over
/// steps. Prefix-first lexicographic comparison over key sequences is
/// then the deterministic reduction order shared by every engine
/// client (see DESIGN.md §3).
template <typename Step>
struct PathLink {
  std::shared_ptr<const PathLink> parent;
  Step step;
  std::string key;
};

/// Prefix-first lexicographic over step keys: -1 / 0 / +1.
template <typename Step>
int CmpPathKeys(const std::vector<const PathLink<Step>*>& a,
                const std::vector<const PathLink<Step>*>& b) {
  size_t n = std::min(a.size(), b.size());
  for (size_t i = 0; i < n; ++i) {
    int c = a[i]->key.compare(b[i]->key);
    if (c != 0) return c < 0 ? -1 : 1;
  }
  if (a.size() != b.size()) return a.size() < b.size() ? -1 : 1;
  return 0;
}

/// CmpPathKeys over two bare chain heads (for entries that keep only
/// the head: they walk their chains on the rare tie instead of paying
/// a pointer vector each).
template <typename Step>
int CmpChains(const PathLink<Step>* a, const PathLink<Step>* b) {
  auto root_first = [](const PathLink<Step>* link) {
    std::vector<const PathLink<Step>*> out;
    for (; link != nullptr; link = link->parent.get()) out.push_back(link);
    std::reverse(out.begin(), out.end());
    return out;
  };
  return CmpPathKeys(root_first(a), root_first(b));
}

/// Extends `parent_path` by one step; appends the new link to
/// `links` (the root-to-node materialization callers keep per node so
/// comparisons never walk or allocate). Returns the owning chain head.
template <typename Step>
std::shared_ptr<const PathLink<Step>> ExtendPath(
    std::shared_ptr<const PathLink<Step>> parent_path, Step step,
    std::string key, std::vector<const PathLink<Step>*>* links) {
  auto link = std::make_shared<PathLink<Step>>();
  link->parent = std::move(parent_path);
  link->step = std::move(step);
  link->key = std::move(key);
  links->push_back(link.get());
  return link;
}

/// The content-minimal accepting path found so far, shared across
/// workers. Immutable snapshots are swapped under a short lock;
/// readers compare outside it. `Prunes` is the upward-closed bound
/// used to cut subtrees: once a node can no longer precede the best
/// path in the prefix-first order, neither can any extension.
template <typename Step>
class BestPathTracker {
 public:
  struct Path {
    std::vector<std::string> keys;
    std::vector<Step> steps;
  };

  std::shared_ptr<const Path> Snapshot() const {
    if (!known_.load(std::memory_order_acquire)) return nullptr;
    std::lock_guard<std::mutex> lock(mu_);
    return best_;
  }

  /// Records an accepting path; keeps the content-minimal one.
  void Offer(const std::vector<const PathLink<Step>*>& path) {
    auto candidate = std::make_shared<Path>();
    candidate->keys.reserve(path.size());
    candidate->steps.reserve(path.size());
    for (const PathLink<Step>* link : path) {
      candidate->keys.push_back(link->key);
      candidate->steps.push_back(link->step);
    }
    std::lock_guard<std::mutex> lock(mu_);
    if (best_ != nullptr) {
      // Prefix-first compare on the precomputed keys.
      size_t n = std::min(candidate->keys.size(), best_->keys.size());
      int c = 0;
      for (size_t i = 0; i < n && c == 0; ++i) {
        c = candidate->keys[i].compare(best_->keys[i]);
      }
      if (c == 0 && candidate->keys.size() >= best_->keys.size()) return;
      if (c > 0) return;
    }
    best_ = std::move(candidate);
    known_.store(true, std::memory_order_release);
  }

  /// True when no extension of the node with these links can precede
  /// the current best path (prefix-compare), so its subtree is
  /// redundant.
  bool Prunes(const std::vector<const PathLink<Step>*>& links) const {
    std::shared_ptr<const Path> best = Snapshot();
    if (best == nullptr) return false;
    size_t n = std::min(links.size(), best->keys.size());
    for (size_t i = 0; i < n; ++i) {
      int c = links[i]->key.compare(best->keys[i]);
      if (c < 0) return false;  // strictly earlier: may still improve
      if (c > 0) return true;   // strictly later: every extension is too
    }
    // Equal on the common prefix: improving requires being a proper
    // prefix of the best path.
    return links.size() >= best->keys.size();
  }

 private:
  std::atomic<bool> known_{false};
  mutable std::mutex mu_;
  std::shared_ptr<const Path> best_;
};

}  // namespace engine
}  // namespace accltl

#endif  // ACCLTL_ENGINE_PATH_LINK_H_
