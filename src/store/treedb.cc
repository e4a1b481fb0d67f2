#include "src/store/treedb.h"

#include "src/obs/metrics.h"

namespace accltl {
namespace store {

namespace {

/// Intern traffic: total lookups and distinct-node misses (the arena
/// growth rate). Written relaxed outside the shard lock.
struct TreeDbMetrics {
  obs::Counter* interns;
  obs::Counter* intern_misses;
  static const TreeDbMetrics& Get() {
    static const TreeDbMetrics m{
        obs::Registry::Get().counter("store.treedb.interns"),
        obs::Registry::Get().counter("store.treedb.intern_misses"),
    };
    return m;
  }
};

/// Big-endian Patricia helpers (Okasaki–Gill). `mask` is a single bit;
/// a branch's prefix keeps the bits strictly above its mask bit.
inline bool ZeroBit(uint32_t key, uint32_t mask) { return (key & mask) == 0; }

inline uint32_t MaskPrefix(uint32_t key, uint32_t mask) {
  return key & (~(mask - 1) ^ mask);
}

inline bool MatchPrefix(uint32_t key, uint32_t prefix, uint32_t mask) {
  return MaskPrefix(key, mask) == prefix;
}

inline uint32_t HighestBit(uint32_t x) {
  x |= x >> 1;
  x |= x >> 2;
  x |= x >> 4;
  x |= x >> 8;
  x |= x >> 16;
  return x - (x >> 1);
}

inline uint32_t BitPos(uint32_t mask) {
  uint32_t pos = 0;
  while ((mask >> pos) != 1u) ++pos;
  return pos;
}

}  // namespace

TreeRef TreeDb::Intern(uint32_t tag, uint32_t a, uint32_t b, uint32_t c) {
  const TreeDbMetrics& metrics = TreeDbMetrics::Get();
  metrics.interns->Inc();
  NodeKey key{tag, a, b, c};
  Shard& shard = shards_[NodeKeyHash{}(key)&(kShards - 1)];
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.refs.find(key);
  if (it != shard.refs.end()) return it->second;
  metrics.intern_misses->Inc();
  TreeRef ref = next_ref_.fetch_add(1, std::memory_order_acq_rel);
  // Publish the payload before the ref escapes the shard mutex (the
  // StableVector release-store plus any happens-before edge the caller
  // passes the ref over makes it readable lock-free).
  nodes_.Emplace(ref, Node{tag, a, b, c});
  shard.refs.emplace(key, ref);
  return ref;
}

TreeRef TreeDb::Join(uint32_t p1, TreeRef t1, uint32_t p2, TreeRef t2) {
  uint32_t mask = HighestBit(p1 ^ p2);
  uint32_t prefix = MaskPrefix(p1, mask);
  return ZeroBit(p1, mask) ? InternBranch(prefix, BitPos(mask), t1, t2)
                           : InternBranch(prefix, BitPos(mask), t2, t1);
}

TreeRef TreeDb::InsertSet(TreeRef set, uint32_t key) {
  if (set == kNilTreeRef) return InternLeafNode(key);
  const Node n = node(set);
  if (n.tag == kTagLeaf) {
    if (n.a == key) return set;
    return Join(key, InternLeafNode(key), n.a, set);
  }
  // Branch node. (Pair nodes never appear inside a set trie: the two
  // fold disciplines share the arena but never each other's roots.)
  uint32_t mask = 1u << (n.tag - kTagBranch);
  if (!MatchPrefix(key, n.a, mask)) {
    return Join(key, InternLeafNode(key), n.a, set);
  }
  if (ZeroBit(key, mask)) {
    TreeRef left = InsertSet(n.b, key);
    return left == n.b ? set : InternBranch(n.a, n.tag - kTagBranch, left, n.c);
  }
  TreeRef right = InsertSet(n.c, key);
  return right == n.c ? set : InternBranch(n.a, n.tag - kTagBranch, n.b, right);
}

bool TreeDb::SetContains(TreeRef set, uint32_t key) const {
  while (set != kNilTreeRef) {
    const Node& n = node(set);
    if (n.tag == kTagLeaf) return n.a == key;
    uint32_t mask = 1u << (n.tag - kTagBranch);
    if (!MatchPrefix(key, n.a, mask)) return false;
    set = ZeroBit(key, mask) ? n.b : n.c;
  }
  return false;
}

TreeRef TreeDb::SetFromKeys(const uint32_t* keys, size_t n) {
  TreeRef set = kNilTreeRef;
  for (size_t i = 0; i < n; ++i) set = InsertSet(set, keys[i]);
  return set;
}

TreeRef TreeDb::InternLeaf(uint32_t value) { return InternLeafNode(value); }

TreeRef TreeDb::InternPair(TreeRef left, TreeRef right) {
  return Intern(kTagPair, left, right, 0);
}

TreeRef TreeDb::InternTuple(const TreeRef* slots, size_t n) {
  if (n == 0) return kNilTreeRef;
  if (n == 1) return slots[0];
  size_t half = (n + 1) / 2;
  return InternPair(InternTuple(slots, half),
                    InternTuple(slots + half, n - half));
}

TreeRef TreeDb::UpdateTuple(TreeRef root, size_t n, size_t index,
                            TreeRef value) {
  if (n == 1) return value;
  const Node& pair = node(root);
  size_t half = (n + 1) / 2;
  if (index < half) {
    return InternPair(UpdateTuple(pair.a, half, index, value), pair.b);
  }
  return InternPair(pair.a,
                    UpdateTuple(pair.b, n - half, index - half, value));
}

void TreeDb::Clear() {
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.refs.clear();
  }
  // Stale arena slots are overwritten as refs are reassigned; blocks
  // stay allocated for reuse (Clear is a reset, not a shrink).
  next_ref_.store(1, std::memory_order_release);
}

ConfigRefs ExtendConfigRefs(TreeDb* db, const ConfigRefs& parent, size_t rel,
                            const std::vector<FactId>& response) {
  ConfigRefs refs;
  refs.rel_refs = parent.rel_refs;
  TreeRef set = refs.rel_refs[rel];
  for (FactId f : response) set = db->InsertSet(set, f);
  if (set != parent.rel_refs[rel]) {
    refs.rel_refs[rel] = set;
    refs.config_ref = db->UpdateTuple(parent.config_ref, refs.rel_refs.size(),
                                      rel, set);
  } else {
    refs.config_ref = parent.config_ref;
  }
  return refs;
}

}  // namespace store
}  // namespace accltl
