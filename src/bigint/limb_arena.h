//===- bigint/limb_arena.h - Bump arena for BigInt limbs ---------*- C++ -*-===//
//
// Part of libdragon4. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Allocation hook underneath BigInt's limb storage.  By default limbs live
/// on the heap (operator new), but a thread can install a LimbArena -- a
/// chunked bump allocator -- and every limb allocation made on that thread
/// while the arena is active is served from it instead.  Arena memory is
/// never freed individually; the owner calls reset() between conversions,
/// which rewinds the arena in O(number of blocks) without releasing the
/// blocks.  After a warm-up conversion has sized the blocks, a conversion
/// therefore performs zero heap traffic for its bignum state.
///
/// The hook is strictly thread-local: arenas installed on one thread are
/// invisible to every other thread, which is what makes one-Scratch-per-
/// worker batch conversion safe without any locking.
///
/// Lifetime contract: a BigInt whose limbs were arena-allocated must not be
/// *read* after the arena is reset.  Destroying or overwriting it is always
/// safe (arena-backed storage is released by the arena, not the BigInt).
/// Long-lived caches (the B^k power cache) suspend the hook while growing
/// so their entries are always heap-backed.
///
//===----------------------------------------------------------------------===//

#ifndef DRAGON4_BIGINT_LIMB_ARENA_H
#define DRAGON4_BIGINT_LIMB_ARENA_H

#include <cstddef>
#include <cstdint>
#include <new>
#include <vector>

namespace dragon4 {

/// A chunked bump allocator for limb storage.
///
/// Memory is carved from geometrically growing blocks; allocate() is a
/// pointer bump in the common case.  Individual allocations cannot be
/// freed; reset() rewinds everything at once.  Not thread-safe: one arena
/// belongs to one thread at a time (see LimbArenaScope).
class LimbArena {
public:
  /// Creates an arena whose first block holds \p FirstBlockBytes bytes.
  explicit LimbArena(size_t FirstBlockBytes = 1 << 16);
  ~LimbArena();

  LimbArena(const LimbArena &) = delete;
  LimbArena &operator=(const LimbArena &) = delete;

  /// Returns \p Bytes of 8-byte-aligned storage.  Grows by adding a new
  /// block (one heap allocation, counted in blockAllocs) when the current
  /// blocks are exhausted; after warm-up this never happens again.
  void *allocate(size_t Bytes);

  /// Rewinds the arena to empty without releasing any block.
  void reset();

  /// Largest total number of live bytes ever observed (across resets).
  size_t highWaterBytes() const { return HighWater; }

  /// Total bytes currently reserved in blocks.
  size_t capacityBytes() const;

  /// Number of times the arena had to grow by allocating a fresh block.
  uint64_t blockAllocs() const { return BlockAllocCount; }

private:
  struct Block {
    char *Data;
    size_t Size;
    size_t Used;
  };

  std::vector<Block> Blocks;
  size_t Active = 0;      // Index of the block currently being bumped.
  size_t LiveBytes = 0;   // Bytes handed out since the last reset.
  size_t HighWater = 0;
  uint64_t BlockAllocCount = 0;
};

/// Installs \p Arena as this thread's active limb arena and returns the
/// previously active one (nullptr if none).  Pass nullptr to deactivate.
LimbArena *setActiveLimbArena(LimbArena *Arena);

/// This thread's active limb arena, or nullptr.
LimbArena *activeLimbArena();

/// RAII: installs an arena for the current scope and restores the previous
/// hook on exit.
class LimbArenaScope {
public:
  explicit LimbArenaScope(LimbArena *Arena)
      : Previous(setActiveLimbArena(Arena)) {}
  ~LimbArenaScope() { setActiveLimbArena(Previous); }
  LimbArenaScope(const LimbArenaScope &) = delete;
  LimbArenaScope &operator=(const LimbArenaScope &) = delete;

private:
  LimbArena *Previous;
};

/// RAII: suspends any active arena so allocations in the scope go to the
/// heap.  Used by long-lived caches whose BigInts must outlive any arena.
class LimbArenaSuspend {
public:
  LimbArenaSuspend() : Inner(nullptr) {}

private:
  LimbArenaScope Inner;
};

/// Number of limb allocations this thread has served from the heap (not
/// from an arena) since it started.  Tests assert this stays flat across a
/// warmed-up Scratch conversion.
uint64_t limbHeapAllocCount();

namespace detail {

/// Allocates storage for \p Count limbs via the thread's hook.  Sets
/// \p FromArena so the matching deallocate knows whether to free.
uint32_t *allocateLimbs(size_t Count, bool &FromArena);

/// Releases storage obtained from allocateLimbs.  Arena-backed storage is
/// a no-op (the arena reclaims it wholesale on reset).  Inline, and null
/// storage skips the call: every BigInt move and destruction comes here,
/// and most of them release nothing.
inline void deallocateLimbs(uint32_t *Ptr, bool FromArena) {
  if (!FromArena && Ptr)
    ::operator delete(Ptr);
}

} // namespace detail

} // namespace dragon4

#endif // DRAGON4_BIGINT_LIMB_ARENA_H
