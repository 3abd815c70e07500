//===- parse/pow5_table.h - Compile-time powers-of-five table ----*- C++ -*-===//
//
// Part of libdragon4. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The library's one table of 128-bit powers of five: for every exponent
/// q in [-342, 342], the top 128 bits of 5^q normalized so bit 127 is set.
/// Three readers share it:
///
///   * the Eisel-Lemire parser multiplies the 64-bit decimal significand
///     by an entry to approximate w * 10^q (the 2^q part is tracked in the
///     binary exponent); its per-format clamps (ElParams) keep it inside
///     [-342, 308];
///   * the Ryu shortest writer (Adams, PLDI 2018) multiplies the scaled
///     interval by 5^i up to i = 325 (printing a binary64 subnormal) and
///     by the reciprocal side down to about -291 -- Ryu's POW5_SPLIT and
///     POW5_INV_SPLIT at 128 bits, more than the 125/124 bits its
///     correctness theorem needs for binary64;
///   * fastpath/diyfp.cpp rounds an entry to the 64-bit cached powers of
///     ten the fixed-precision fast path and the Grisu baseline use.
///
/// Entry semantics:
///   q >= 0  truncation: Hi:Lo is the top 128 bits of the exact integer
///           5^q, so Hi:Lo <= 5^q / 2^(bitlen - 128) < Hi:Lo + 1.
///   q <  0  reciprocal: Hi:Lo = ceil(2^(bitlen(5^-q) + 127) / 5^-q),
///           which lands in [2^127, 2^128).  The division is never exact
///           (powers of two share no factor with 5), so the ceiling is
///           floor + 1 and the entry over-estimates by less than one ulp.
///
/// The table is built entirely at compile time by the constexpr bignum
/// evaluator below -- no initialization order, no locks, no heap.
/// tests/parse/pow5_table_test.cpp asserts every entry against the
/// independent bigint/power_cache.h values.
///
//===----------------------------------------------------------------------===//

#ifndef DRAGON4_PARSE_POW5_TABLE_H
#define DRAGON4_PARSE_POW5_TABLE_H

#include <array>
#include <cstddef>
#include <cstdint>

namespace dragon4::parse {

/// One normalized 128-bit significand (bit 127 of Hi always set).
struct Pow5Entry {
  uint64_t Hi = 0;
  uint64_t Lo = 0;
};

/// Table bounds.  Below -342 every sub-2^64 decimal significand reads as
/// binary64 zero (see eisel_lemire.h for the per-format clamps); the
/// positive side must reach -MinExponent * log5(2) for Ryu (325 for
/// binary64's e2 = -1076).  Symmetric for simplicity.
inline constexpr int SmallestPowerOfFive = -342;
inline constexpr int LargestPowerOfFive = 342;
inline constexpr int Pow5TableSize =
    LargestPowerOfFive - SmallestPowerOfFive + 1;

namespace pow5_detail {

/// Fixed-size little-endian natural number for the constexpr evaluator.
/// 5^342 is 795 bits = 13 limbs; 16 leaves slack without bloating the
/// compile-time working set.
struct BigNat {
  static constexpr int MaxLimbs = 16;
  uint64_t Limb[MaxLimbs] = {};
  int Size = 1;
};

constexpr void mulSmall(BigNat &V, uint64_t M) {
  unsigned __int128 Carry = 0;
  for (int I = 0; I < V.Size; ++I) {
    Carry += static_cast<unsigned __int128>(V.Limb[I]) * M;
    V.Limb[I] = static_cast<uint64_t>(Carry);
    Carry >>= 64;
  }
  if (Carry != 0)
    V.Limb[V.Size++] = static_cast<uint64_t>(Carry);
}

constexpr int bitLength(const BigNat &V) {
  uint64_t Top = V.Limb[V.Size - 1];
  int Bits = 0;
  while (Top != 0) {
    ++Bits;
    Top >>= 1;
  }
  return Bits + 64 * (V.Size - 1);
}

/// 64 bits of V starting at bit position Pos; positions below zero or
/// beyond the value read as zero (so normalization shifts need no cases).
constexpr uint64_t bits64At(const BigNat &V, int Pos) {
  uint64_t Out = 0;
  for (int B = 0; B < 64; ++B) {
    int Bit = Pos + B;
    if (Bit < 0)
      continue;
    int Index = Bit / 64;
    if (Index >= V.Size)
      break;
    Out |= ((V.Limb[Index] >> (Bit % 64)) & uint64_t(1)) << B;
  }
  return Out;
}

/// Truncated top 128 bits, normalized so bit 127 is set.
constexpr Pow5Entry topBits128(const BigNat &V) {
  int B = bitLength(V);
  return {bits64At(V, B - 64), bits64At(V, B - 128)};
}

constexpr int compare(const BigNat &A, const BigNat &B) {
  if (A.Size != B.Size)
    return A.Size < B.Size ? -1 : 1;
  for (int I = A.Size - 1; I >= 0; --I)
    if (A.Limb[I] != B.Limb[I])
      return A.Limb[I] < B.Limb[I] ? -1 : 1;
  return 0;
}

/// A -= B; requires A >= B.
constexpr void subtract(BigNat &A, const BigNat &B) {
  uint64_t Borrow = 0;
  for (int I = 0; I < A.Size; ++I) {
    uint64_t Sub = (I < B.Size ? B.Limb[I] : 0);
    uint64_t Lhs = A.Limb[I];
    uint64_t Mid = Lhs - Sub;
    uint64_t Out = Mid - Borrow;
    Borrow = (Lhs < Sub) | (Mid < Borrow);
    A.Limb[I] = Out;
  }
  while (A.Size > 1 && A.Limb[A.Size - 1] == 0)
    --A.Size;
}

constexpr void shiftLeft1(BigNat &V) {
  uint64_t Carry = 0;
  for (int I = 0; I < V.Size; ++I) {
    uint64_t Next = V.Limb[I] >> 63;
    V.Limb[I] = (V.Limb[I] << 1) | Carry;
    Carry = Next;
  }
  if (Carry != 0)
    V.Limb[V.Size++] = Carry;
}

/// ceil(2^(bitLength(D) + 127) / D) for odd D: exactly 128 bits.  Long
/// division one quotient bit per step; the first bitLength(D) dividend
/// bits contribute no quotient bits (2^(b-1) < D), so the remainder
/// starts there and only the 128 productive steps run.
constexpr Pow5Entry reciprocal128(const BigNat &D) {
  int B = bitLength(D);
  BigNat R{};
  R.Size = (B - 1) / 64 + 1;
  R.Limb[(B - 1) / 64] = uint64_t(1) << ((B - 1) % 64);
  uint64_t Hi = 0, Lo = 0;
  for (int Step = 0; Step < 128; ++Step) {
    shiftLeft1(R);
    Hi = (Hi << 1) | (Lo >> 63);
    Lo <<= 1;
    if (compare(R, D) >= 0) {
      subtract(R, D);
      Lo |= 1;
    }
  }
  // 2^k mod 5^m is never zero, so the floor quotient always rounds up.
  ++Lo;
  if (Lo == 0)
    ++Hi;
  return {Hi, Lo};
}

constexpr std::array<Pow5Entry, Pow5TableSize> makeTable() {
  std::array<Pow5Entry, Pow5TableSize> Table{};
  BigNat P{}; // 5^Q for the ascending non-negative exponents.
  P.Limb[0] = 1;
  for (int Q = 0; Q <= LargestPowerOfFive; ++Q) {
    Table[static_cast<size_t>(Q - SmallestPowerOfFive)] = topBits128(P);
    mulSmall(P, 5);
  }
  BigNat D{}; // 5^-Q for the descending negative exponents.
  D.Limb[0] = 5;
  for (int Q = -1; Q >= SmallestPowerOfFive; --Q) {
    Table[static_cast<size_t>(Q - SmallestPowerOfFive)] = reciprocal128(D);
    mulSmall(D, 5);
  }
  return Table;
}

} // namespace pow5_detail

inline constexpr std::array<Pow5Entry, Pow5TableSize> Pow5Table =
    pow5_detail::makeTable();

/// Entry for decimal exponent \p Q; Q must lie in
/// [SmallestPowerOfFive, LargestPowerOfFive].
constexpr const Pow5Entry &pow5Entry(int64_t Q) {
  return Pow5Table[static_cast<size_t>(Q - SmallestPowerOfFive)];
}

/// bitlen(5^E): the number of bits in the exact power.  Ryu's pow5bits;
/// the magic fraction overestimates log2(5) by < 2^-19, exact for
/// E <= 3528.
constexpr int ryuPow5Bits(int E) {
  return static_cast<int>(
             (static_cast<uint32_t>(E) * uint32_t(1217359)) >> 19) +
         1;
}

// Spot anchors (full-range agreement with the BigInt-derived values is
// asserted in tests/parse/pow5_table_test.cpp).
static_assert(pow5Entry(0).Hi == 0x8000000000000000 && pow5Entry(0).Lo == 0);
static_assert(pow5Entry(1).Hi == 0xa000000000000000 && pow5Entry(1).Lo == 0);
static_assert(pow5Entry(-1).Hi == 0xcccccccccccccccc &&
              pow5Entry(-1).Lo == 0xcccccccccccccccd);
static_assert(ryuPow5Bits(0) == 1 && ryuPow5Bits(1) == 3 &&
              ryuPow5Bits(325) == 755);

} // namespace dragon4::parse

#endif // DRAGON4_PARSE_POW5_TABLE_H
