//===- bigint/limb_arena.cpp - Bump arena for BigInt limbs ----------------===//
//
// Part of libdragon4. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "bigint/limb_arena.h"

#include "support/checks.h"

#include <new>

using namespace dragon4;

namespace {

/// The thread's active arena; nullptr routes limb storage to the heap.
thread_local LimbArena *ActiveArena = nullptr;

/// Heap-served limb allocations on this thread (arena misses and the
/// default no-arena path).
thread_local uint64_t HeapAllocCount = 0;

constexpr size_t alignUp(size_t Bytes) { return (Bytes + 7) & ~size_t(7); }

} // namespace

LimbArena::LimbArena(size_t FirstBlockBytes) {
  size_t Size = alignUp(FirstBlockBytes < 64 ? 64 : FirstBlockBytes);
  Blocks.push_back({static_cast<char *>(::operator new(Size)), Size, 0});
  ++BlockAllocCount;
}

LimbArena::~LimbArena() {
  for (Block &B : Blocks)
    ::operator delete(B.Data);
}

void *LimbArena::allocate(size_t Bytes) {
  Bytes = alignUp(Bytes);
  for (;;) {
    Block &B = Blocks[Active];
    if (B.Size - B.Used >= Bytes) {
      void *Ptr = B.Data + B.Used;
      B.Used += Bytes;
      LiveBytes += Bytes;
      if (LiveBytes > HighWater)
        HighWater = LiveBytes;
      return Ptr;
    }
    if (Active + 1 < Blocks.size()) {
      ++Active;
      Blocks[Active].Used = 0;
      continue;
    }
    // Grow: double the last block, or more if one allocation needs it.
    size_t Size = Blocks.back().Size * 2;
    while (Size < Bytes)
      Size *= 2;
    Blocks.push_back({static_cast<char *>(::operator new(Size)), Size, 0});
    ++BlockAllocCount;
    ++Active;
  }
}

void LimbArena::reset() {
  for (Block &B : Blocks)
    B.Used = 0;
  Active = 0;
  LiveBytes = 0;
}

size_t LimbArena::capacityBytes() const {
  size_t Total = 0;
  for (const Block &B : Blocks)
    Total += B.Size;
  return Total;
}

LimbArena *dragon4::setActiveLimbArena(LimbArena *Arena) {
  LimbArena *Previous = ActiveArena;
  ActiveArena = Arena;
  return Previous;
}

LimbArena *dragon4::activeLimbArena() { return ActiveArena; }

uint64_t dragon4::limbHeapAllocCount() { return HeapAllocCount; }

uint32_t *dragon4::detail::allocateLimbs(size_t Count, bool &FromArena) {
  if (LimbArena *Arena = ActiveArena) {
    FromArena = true;
    return static_cast<uint32_t *>(Arena->allocate(Count * sizeof(uint32_t)));
  }
  FromArena = false;
  ++HeapAllocCount;
  return static_cast<uint32_t *>(::operator new(Count * sizeof(uint32_t)));
}
