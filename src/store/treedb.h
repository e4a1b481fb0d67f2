#ifndef ACCLTL_STORE_TREEDB_H_
#define ACCLTL_STORE_TREEDB_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "src/store/fact_store.h"
#include "src/store/stable_vector.h"

namespace accltl {
namespace store {

/// Dense id of an interned tree node. Refs are assigned in
/// first-interning order within one TreeDb and stay valid until
/// `Clear()`; `kNilTreeRef` is the canonical empty set.
using TreeRef = uint32_t;
inline constexpr TreeRef kNilTreeRef = 0;

/// Concurrent tree-compressed configuration database (the treedbs-ll
/// idea from the multi-core model-checking playbook): a configuration's
/// fact-id sets and its automaton/tableau state fold into a binary tree
/// of interned nodes, so shared subtrees across the whole frontier —
/// and across the entire visited history — are stored exactly once.
///
/// Two tree families share one node arena:
///
///  - *Sets* of uint32 keys (fact ids, tableau states) are big-endian
///    Patricia tries: the shape is a function of the key set alone
///    (never of insertion order), so equal sets always intern to the
///    same root ref, and `InsertSet` derives a superset root by
///    path-copying O(log u) nodes (u = key bit-width) — the delta a
///    successor configuration needs when one access adds its response
///    facts to one relation.
///  - *Tuples* of fixed length fold as a balanced tree of interned
///    (left, right) pairs; `UpdateTuple` replaces one slot by copying
///    the O(log n) pairs on its spine.
///
/// Injectivity (the exact-confirmation property): interning is
/// hash-consing over the full node payload, and each family's shape is
/// canonical, so within one fold discipline equal refs ⇔ structurally
/// identical trees ⇔ equal contents. A visited table storing refs
/// therefore needs no separate exact confirmation — ref equality *is*
/// the exact check; a hash collision can never conflate two
/// configurations. (Node kinds are part of the interning key, so a
/// leaf, a Patricia branch and a tuple pair can never alias.)
///
/// Thread-safety: interning is striped like store::Store — sharded
/// maps under per-shard mutexes, payloads written into block-stable
/// storage before the ref escapes the shard mutex. Read paths
/// (`SetContains`, stats) are lock-free on published refs. `Clear()`
/// requires quiescence (no concurrent interning) and invalidates every
/// outstanding ref; the two-phase searches call it from the pilot
/// reset hook so the level sweep re-interns from scratch and
/// `num_nodes()` stays schedule-independent.
class TreeDb {
 public:
  TreeDb() = default;
  TreeDb(const TreeDb&) = delete;
  TreeDb& operator=(const TreeDb&) = delete;

  // --- Sets (canonical Patricia tries over uint32 keys) ---

  /// Derives `set ∪ {key}`; returns `set` itself when already present.
  TreeRef InsertSet(TreeRef set, uint32_t key);

  bool SetContains(TreeRef set, uint32_t key) const;

  /// Folds a whole key set (any order; duplicates collapse). Equal
  /// sets yield equal refs regardless of order.
  TreeRef SetFromKeys(const uint32_t* keys, size_t n);

  // --- Tuples (balanced folds of fixed length) ---

  /// Interns a scalar leaf (e.g. an automaton state).
  TreeRef InternLeaf(uint32_t value);

  /// Interns one (left, right) pair node.
  TreeRef InternPair(TreeRef left, TreeRef right);

  /// Balanced fold of `n` slot refs (n >= 1 interns pairs; n == 0
  /// returns kNilTreeRef; n == 1 returns the slot itself).
  TreeRef InternTuple(const TreeRef* slots, size_t n);

  /// Replaces slot `index` of an `n`-slot tuple built by InternTuple,
  /// re-interning only the O(log n) pairs on the slot's spine.
  TreeRef UpdateTuple(TreeRef root, size_t n, size_t index, TreeRef value);

  // --- Stats / lifecycle ---

  /// Distinct nodes interned since construction / the last Clear().
  /// Deterministic for the schedule-independent searches: the set of
  /// interned trees is a function of the explored configurations, not
  /// of worker scheduling (ref *values* are not).
  size_t num_nodes() const {
    return next_ref_.load(std::memory_order_acquire) - 1;
  }

  /// Arena payload bytes of the interned nodes (num_nodes ×
  /// sizeof(node)); the deterministic share of the structure's
  /// footprint (hash-map overhead varies with sharding).
  size_t bytes() const { return num_nodes() * kNodeBytes; }

  static constexpr size_t kNodeBytes = 4 * sizeof(uint32_t);

  /// Discards every node. Quiescent callers only; invalidates all
  /// outstanding refs.
  void Clear();

 private:
  // Node payload: (tag, a, b, c).
  //  - leaf:   tag = kTagLeaf,            a = value
  //  - branch: tag = kTagBranch + bitpos, a = prefix, b = left, c = right
  //  - pair:   tag = kTagPair,            a = left,   b = right
  struct Node {
    uint32_t tag = 0;
    uint32_t a = 0;
    uint32_t b = 0;
    uint32_t c = 0;
  };
  static constexpr uint32_t kTagLeaf = 1;
  static constexpr uint32_t kTagPair = 2;
  static constexpr uint32_t kTagBranch = 16;  // + bit position (0..31)

  static constexpr size_t kShards = 32;  // power of two

  struct NodeKey {
    uint32_t tag, a, b, c;
    friend bool operator==(const NodeKey& x, const NodeKey& y) {
      return x.tag == y.tag && x.a == y.a && x.b == y.b && x.c == y.c;
    }
  };
  struct NodeKeyHash {
    size_t operator()(const NodeKey& k) const {
      uint64_t h = Mix64((uint64_t{k.tag} << 32) | k.a);
      h = Mix64(h ^ ((uint64_t{k.b} << 32) | k.c));
      return static_cast<size_t>(h);
    }
  };
  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<NodeKey, TreeRef, NodeKeyHash> refs;
  };

  TreeRef Intern(uint32_t tag, uint32_t a, uint32_t b, uint32_t c);
  const Node& node(TreeRef r) const { return nodes_[r]; }

  TreeRef InternLeafNode(uint32_t key) { return Intern(kTagLeaf, key, 0, 0); }
  TreeRef InternBranch(uint32_t prefix, uint32_t bitpos, TreeRef left,
                       TreeRef right) {
    return Intern(kTagBranch + bitpos, prefix, left, right);
  }
  /// Joins two tries whose prefixes diverge (Patricia `join`).
  TreeRef Join(uint32_t p1, TreeRef t1, uint32_t p2, TreeRef t2);

  mutable Shard shards_[kShards];
  std::atomic<uint32_t> next_ref_{1};  // 0 = kNilTreeRef
  StableVector<Node> nodes_;
};

/// A configuration's tree-compressed identity: one set ref per
/// relation over its fact ids, and the tuple fold of those refs. Ref
/// equality of `config_ref` is configuration equality. The searches
/// and the LTS explorer keep the per-relation refs on each node so a
/// child derives its identity as a delta (ExtendConfigRefs) instead of
/// re-encoding its whole configuration.
struct ConfigRefs {
  std::vector<TreeRef> rel_refs;
  TreeRef config_ref = kNilTreeRef;
};

/// Folds a configuration of `num_relations` relations into `db`;
/// `ids_of(r)` returns relation r's fact ids as a
/// `const std::vector<FactId>&`.
template <typename IdsOf>
ConfigRefs FoldConfigRefs(TreeDb* db, size_t num_relations,
                          const IdsOf& ids_of) {
  ConfigRefs refs;
  refs.rel_refs.resize(num_relations);
  for (size_t r = 0; r < num_relations; ++r) {
    const std::vector<FactId>& ids = ids_of(r);
    refs.rel_refs[r] = db->SetFromKeys(ids.data(), ids.size());
  }
  refs.config_ref = db->InternTuple(refs.rel_refs.data(), num_relations);
  return refs;
}

/// The refs of `parent` with `response` added to relation `rel`: only
/// that relation's set ref moves, then the O(log R) tuple spine
/// re-interns; the unchanged relations' subtrees are shared with the
/// parent. A response already contained in the parent leaves the
/// configuration ref as it is.
ConfigRefs ExtendConfigRefs(TreeDb* db, const ConfigRefs& parent, size_t rel,
                            const std::vector<FactId>& response);

}  // namespace store
}  // namespace accltl

#endif  // ACCLTL_STORE_TREEDB_H_
