//===- tests/parse/pow5_table_test.cpp -------------------------------------===//
//
// Part of libdragon4. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The compile-time powers-of-five table (the one the Eisel-Lemire
/// parser, the Ryu writer, and the 64-bit cached powers of ten all read)
/// against the runtime BigInt machinery: every one of the 685 entries is
/// recomputed from bigint/power_cache.h's cachedPow (truncation for
/// q >= 0, an explicit ceiling division for q < 0) and must match bit for
/// bit, and ryuPow5Bits must equal the exact BigInt bit length
/// everywhere.  The two computations share no code -- the table is a
/// constexpr limb evaluator, the oracle is the library bignum stack.
/// The RyuPow5Table tests check the same entries the way the Ryu writer
/// reads them: normalized by ryuPow5Bits, the shift its mulShift applies,
/// instead of by the oracle's own bit length.
///
//===----------------------------------------------------------------------===//

#include "parse/pow5_table.h"

#include "bigint/bigint.h"
#include "bigint/power_cache.h"

#include <gtest/gtest.h>

using namespace dragon4;
using namespace dragon4::parse;

namespace {

/// 64 bits of \p V starting at bit \p Pos (positions below zero or past
/// the value read as zero), mirroring the constexpr evaluator's helper.
uint64_t bitsAt(const BigInt &V, int64_t Pos) {
  uint64_t Out = 0;
  int64_t Length = static_cast<int64_t>(V.bitLength());
  for (int64_t B = 0; B < 64; ++B) {
    int64_t Bit = Pos + B;
    if (Bit < 0 || Bit >= Length)
      continue;
    if (V.testBit(static_cast<size_t>(Bit)))
      Out |= uint64_t(1) << B;
  }
  return Out;
}

TEST(Pow5Table, Bounds) {
  EXPECT_EQ(Pow5TableSize, 685);
  EXPECT_EQ(static_cast<int>(Pow5Table.size()), Pow5TableSize);
  // Every entry is normalized: bit 127 set.
  for (const Pow5Entry &Entry : Pow5Table)
    EXPECT_NE(Entry.Hi & (uint64_t(1) << 63), 0u);
}

TEST(Pow5Table, NonNegativeExponentsMatchCachedPowTruncation) {
  for (int Q = 0; Q <= LargestPowerOfFive; ++Q) {
    const BigInt &P = cachedPow(5, static_cast<unsigned>(Q));
    int64_t Length = static_cast<int64_t>(P.bitLength());
    const Pow5Entry &Entry = pow5Entry(Q);
    EXPECT_EQ(Entry.Hi, bitsAt(P, Length - 64)) << "5^" << Q;
    EXPECT_EQ(Entry.Lo, bitsAt(P, Length - 128)) << "5^" << Q;
  }
}

TEST(Pow5Table, NegativeExponentsMatchCeilingDivision) {
  for (int Q = -1; Q >= SmallestPowerOfFive; --Q) {
    const BigInt &D = cachedPow(5, static_cast<unsigned>(-Q));
    // ceil(2^(bitlen(D) + 127) / D), the normalized 128-bit reciprocal.
    // The truncation direction matters: the division is never exact (no
    // power of two shares a factor with 5), so ceiling must be floor + 1
    // -- an entry built by truncation instead would under-estimate and
    // break Ryu's one-sided error argument.
    BigInt Numerator(uint64_t(1));
    Numerator <<= D.bitLength() + 127;
    BigInt Quotient, Remainder;
    BigInt::divMod(Numerator, D, Quotient, Remainder);
    ASSERT_FALSE(Remainder.isZero()) << "5^" << Q; // Division never exact.
    Quotient.addSmall(1);
    ASSERT_EQ(Quotient.bitLength(), 128u) << "5^" << Q;
    const Pow5Entry &Entry = pow5Entry(Q);
    EXPECT_EQ(Entry.Hi, bitsAt(Quotient, 64)) << "5^" << Q;
    EXPECT_EQ(Entry.Lo, bitsAt(Quotient, 0)) << "5^" << Q;
  }
}

TEST(RyuPow5Table, Bounds) {
  // Ryu's binary64 indices stay in [-290, 325] (docs/fastpath.md); the
  // table it shares with the parser spans [-342, 342].
  EXPECT_EQ(SmallestPowerOfFive, -342);
  EXPECT_EQ(LargestPowerOfFive, 342);
  EXPECT_EQ(Pow5TableSize, LargestPowerOfFive - SmallestPowerOfFive + 1);
  for (int Q = SmallestPowerOfFive; Q <= LargestPowerOfFive; ++Q)
    EXPECT_NE(pow5Entry(Q).Hi & (uint64_t(1) << 63), 0u) << "5^" << Q;
}

TEST(RyuPow5Table, NonNegativeExponentsMatchCachedPowTruncation) {
  // floor(5^q / 2^(pow5bits(q) - 128)): the top 128 bits of 5^q.
  for (int Q = 0; Q <= LargestPowerOfFive; ++Q) {
    const BigInt &P = cachedPow(5, static_cast<unsigned>(Q));
    const Pow5Entry &Entry = pow5Entry(Q);
    EXPECT_EQ(Entry.Hi, bitsAt(P, ryuPow5Bits(Q) - 64)) << "5^" << Q;
    EXPECT_EQ(Entry.Lo, bitsAt(P, ryuPow5Bits(Q) - 128)) << "5^" << Q;
  }
}

TEST(RyuPow5Table, NegativeExponentsMatchCeilingDivision) {
  // ceil(2^(pow5bits(q) + 127) / 5^q), the inverse Ryu multiplies by
  // when the binary exponent is non-negative.
  for (int Q = -1; Q >= SmallestPowerOfFive; --Q) {
    const BigInt &D = cachedPow(5, static_cast<unsigned>(-Q));
    BigInt Numerator(uint64_t(1));
    Numerator <<= static_cast<size_t>(ryuPow5Bits(-Q) + 127);
    BigInt Quotient, Remainder;
    BigInt::divMod(Numerator, D, Quotient, Remainder);
    ASSERT_FALSE(Remainder.isZero()) << "5^" << Q; // Division never exact.
    Quotient.addSmall(1);
    ASSERT_EQ(Quotient.bitLength(), 128u) << "5^" << Q;
    const Pow5Entry &Entry = pow5Entry(Q);
    EXPECT_EQ(Entry.Hi, bitsAt(Quotient, 64)) << "5^" << Q;
    EXPECT_EQ(Entry.Lo, bitsAt(Quotient, 0)) << "5^" << Q;
  }
}

TEST(RyuPow5Table, Pow5BitsMatchesExactBitLength) {
  for (int E = 0; E <= LargestPowerOfFive; ++E)
    EXPECT_EQ(static_cast<uint64_t>(ryuPow5Bits(E)),
              cachedPow(5, static_cast<unsigned>(E)).bitLength())
        << "5^" << E;
}

} // namespace
