#ifndef ACCLTL_STORE_STABLE_VECTOR_H_
#define ACCLTL_STORE_STABLE_VECTOR_H_

#include <atomic>
#include <cstddef>
#include <utility>

namespace accltl {
namespace store {

/// Append-only, index-stable storage for interned payloads, safe for
/// concurrent readers while writers append.
///
/// Payloads live in geometrically sized blocks: block k holds
/// `kBlockSize << k` slots, so block k covers the indices
/// [kBlockSize·(2^k − 1), kBlockSize·(2^(k+1) − 1)). A block, once
/// allocated, is never moved or freed until destruction, so
/// `operator[]` references stay valid for the container's lifetime (the
/// property std::deque gave the single-threaded store — without
/// std::deque's internal block map, whose growth races with lock-free
/// readers). The directory is a fixed inline array of kMaxBlocks block
/// pointers: 256 bytes that cover every 32-bit id, so constructing and
/// destroying an empty vector costs O(kMaxBlocks), independent of how
/// many ids it could hold. Memory is at most twice the slots used plus
/// one kBlockSize block.
///
/// Memory model:
///  - Writers call `Emplace(i, ...)` for each index `i` exactly once
///    (indices come from an external atomic counter). Writers to
///    different indices may run concurrently; block allocation races
///    resolve by compare-exchange.
///  - A reader may call `operator[](i)` only with a *published* id: one
///    it received over a happens-before edge from the writer of slot i
///    (an interner-shard mutex, a thread-pool region's start or
///    join). The release CAS/store on the block pointer plus that edge
///    make both the block pointer and the slot contents visible. A read is one
///    count-leading-zeros plus one acquire load of the block pointer.
template <typename T, size_t kBlockBits = 12>
class StableVector {
 public:
  static constexpr size_t kBlockSize = size_t{1} << kBlockBits;
  static constexpr size_t kMaxBlocks = 32;

  /// One past the largest valid index.
  static constexpr size_t kCapacity =
      kBlockSize * ((size_t{1} << kMaxBlocks) - 1);

  StableVector() {
    for (auto& b : blocks_) b.store(nullptr, std::memory_order_relaxed);
  }
  StableVector(const StableVector&) = delete;
  StableVector& operator=(const StableVector&) = delete;
  ~StableVector() {
    for (auto& b : blocks_) delete[] b.load(std::memory_order_relaxed);
  }

  /// Constructs the element at index `i` (each index exactly once).
  template <typename... Args>
  void Emplace(size_t i, Args&&... args) {
    size_t block = BlockOf(i);
    T* slots = EnsureBlock(block);
    slots[OffsetIn(i, block)] = T(std::forward<Args>(args)...);
  }

  /// The element at published index `i` (see class comment).
  const T& operator[](size_t i) const {
    size_t block = BlockOf(i);
    const T* slots = blocks_[block].load(std::memory_order_acquire);
    return slots[OffsetIn(i, block)];
  }

  /// Block index of slot `i`: the position of the highest set bit of
  /// i + kBlockSize, less kBlockBits.
  static size_t BlockOf(size_t i) {
    return 63 - static_cast<size_t>(__builtin_clzll(
                    static_cast<unsigned long long>(i + kBlockSize))) -
           kBlockBits;
  }

  /// Slots in block `b`.
  static size_t BlockSlots(size_t b) { return kBlockSize << b; }

  /// Blocks allocated so far (quiescent callers; tests and stats).
  size_t blocks_allocated() const {
    size_t n = 0;
    for (const auto& b : blocks_) {
      if (b.load(std::memory_order_acquire) != nullptr) ++n;
    }
    return n;
  }

 private:
  /// Offset of slot `i` inside its block `b`.
  static size_t OffsetIn(size_t i, size_t b) {
    return i + kBlockSize - BlockSlots(b);
  }

  T* EnsureBlock(size_t b) {
    T* block = blocks_[b].load(std::memory_order_acquire);
    if (block != nullptr) return block;
    T* fresh = new T[BlockSlots(b)]();
    if (blocks_[b].compare_exchange_strong(block, fresh,
                                           std::memory_order_acq_rel)) {
      return fresh;
    }
    delete[] fresh;  // another writer won the race
    return block;
  }

  std::atomic<T*> blocks_[kMaxBlocks];
};

}  // namespace store
}  // namespace accltl

#endif  // ACCLTL_STORE_STABLE_VECTOR_H_
