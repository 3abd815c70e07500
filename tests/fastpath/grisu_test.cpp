//===- tests/fastpath/grisu_test.cpp ------------------------------------------===//
//
// Part of libdragon4. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Grisu3 baseline (src/baselines/grisu.h): the table-backed 64-bit
/// powers of ten against an independent BigInt derivation, agreement with
/// the exact Burger-Dybvig algorithm on every success, the fallback
/// plumbing, and the success rate.
///
//===----------------------------------------------------------------------===//

#include "baselines/grisu.h"

#include "bigint/power_cache.h"
#include "core/free_format.h"
#include "fastpath/diyfp.h"
#include "parse/pow5_table.h"
#include "reader/reader.h"
#include "testgen/random_floats.h"
#include "testgen/schryer.h"

#include <gtest/gtest.h>

using namespace dragon4;

namespace {

DigitString exactConservative(uint64_t F, int E, int P, int MinE) {
  FreeFormatOptions Options;
  Options.Boundaries = BoundaryMode::Conservative;
  return freeFormatDigits(F, E, P, MinE, Options);
}

/// The reference 10^K10: the exact BigInt power (a 128-plus-bit division
/// for negative K10), rounded half-up to a normalized 64-bit significand.
/// Shares no code with cachedPowerOfTen, which reads the compile-time
/// powers-of-five table.
DiyFp bigIntPowerOfTen(int K10) {
  if (K10 >= 0) {
    const BigInt &Exact = cachedPow(10, static_cast<unsigned>(K10));
    int Bits = static_cast<int>(Exact.bitLength());
    if (Bits <= 64)
      return diyNormalize(DiyFp{Exact.toUint64(), 0});
    BigInt Top = Exact;
    Top >>= static_cast<size_t>(Bits - 64);
    uint64_t F = Top.toUint64();
    int E = Bits - 64;
    if (Exact.testBit(static_cast<size_t>(Bits - 65)) && ++F == 0) {
      F = uint64_t(1) << 63; // Carried out of 64 bits.
      E += 1;
    }
    return DiyFp{F, E};
  }
  // 10^-n = 2^-(Bits+63) * (2^(Bits+63) / 10^n), quotient in (2^63, 2^64].
  const BigInt &P = cachedPow(10, static_cast<unsigned>(-K10));
  int Bits = static_cast<int>(P.bitLength());
  BigInt Numerator(uint64_t(1));
  Numerator <<= static_cast<size_t>(Bits + 63);
  BigInt Q, R;
  BigInt::divMod(Numerator, P, Q, R);
  BigInt Doubled = R;
  Doubled.mulSmall(2);
  if (Doubled >= P)
    Q.addSmall(1);
  int E = -(Bits + 63);
  if (Q.bitLength() > 64) {
    Q >>= 1; // Rounding reached 2^64: drop the (zero) low bit.
    E += 1;
  }
  return diyNormalize(DiyFp{Q.toUint64(), E});
}

TEST(GrisuCache, MatchesExactPowersWithinOneUnit) {
  // Bit-exact, not merely within one unit: every power the table covers
  // must equal the BigInt derivation's half-up rounding.
  for (int K = parse::SmallestPowerOfFive; K <= parse::LargestPowerOfFive;
       ++K) {
    DiyFp Cached = cachedPowerOfTen(K);
    DiyFp Exact = bigIntPowerOfTen(K);
    EXPECT_EQ(Cached.F >> 63, 1u) << K; // Normalized.
    EXPECT_EQ(Cached.F, Exact.F) << "10^" << K;
    EXPECT_EQ(Cached.E, Exact.E) << "10^" << K;
  }
}

TEST(Grisu, SimpleValuesSucceedAndMatch) {
  for (double V : {1.0, 2.0, 0.5, 0.1, 0.3, 3.141592653589793, 123.456,
                   1e22, 5e-324, 1.7976931348623157e308, 6.02214076e23}) {
    Decomposed D = decompose(V);
    auto Fast = grisuShortest(D.F, D.E, 53, -1074);
    DigitString Exact = exactConservative(D.F, D.E, 53, -1074);
    if (Fast.has_value()) {
      EXPECT_EQ(*Fast, Exact) << V;
    }
  }
}

TEST(Grisu, AgreesWithExactWheneverItSucceeds) {
  size_t Successes = 0, Total = 0;
  auto Check = [&](double V) {
    Decomposed D = decompose(V);
    ++Total;
    auto Fast = grisuShortest(D.F, D.E, 53, -1074);
    if (!Fast.has_value())
      return;
    ++Successes;
    ASSERT_EQ(*Fast, exactConservative(D.F, D.E, 53, -1074)) << V;
  };
  for (double V : randomNormalDoubles(20000, 777777))
    Check(V);
  for (double V : randomSubnormalDoubles(2000, 777778))
    Check(V);
  // Loitsch reports ~99.5% success on random doubles; be conservative.
  EXPECT_GT(static_cast<double>(Successes) / static_cast<double>(Total),
            0.985);
}

TEST(Grisu, AgreesOnTheSchryerSet) {
  SchryerParams Params;
  Params.ExponentStride = 128;
  for (double V : schryerDoubles(Params)) {
    Decomposed D = decompose(V);
    auto Fast = grisuShortest(D.F, D.E, 53, -1074);
    if (!Fast.has_value())
      continue;
    ASSERT_EQ(*Fast, exactConservative(D.F, D.E, 53, -1074)) << V;
  }
}

TEST(Grisu, FloatsAgreeToo) {
  size_t Successes = 0, Total = 0;
  for (float V : randomNormalFloats(20000, 99)) {
    Decomposed D = decompose(V);
    ++Total;
    auto Fast = grisuShortest(D.F, D.E, 24, -149);
    if (!Fast.has_value())
      continue;
    ++Successes;
    ASSERT_EQ(*Fast, exactConservative(D.F, D.E, 24, -149)) << V;
  }
  EXPECT_GT(static_cast<double>(Successes) / static_cast<double>(Total),
            0.98);
}

TEST(GrisuFallback, AlwaysEqualsExact) {
  // shortestDigitsFast (fast path + fallback) must be indistinguishable
  // from the exact conservative conversion on every input.
  for (double V : randomNormalDoubles(5000, 123123)) {
    Decomposed D = decompose(V);
    EXPECT_EQ(shortestDigitsFast(V),
              exactConservative(D.F, D.E, 53, -1074))
        << V;
  }
  for (float V : randomNormalFloats(3000, 321321)) {
    Decomposed D = decompose(V);
    EXPECT_EQ(shortestDigitsFast(V),
              exactConservative(D.F, D.E, 24, -149))
        << V;
  }
}

TEST(GrisuFallback, RoundTripsThroughTheReader) {
  for (double V : randomNormalDoubles(3000, 456456)) {
    DigitString D = shortestDigitsFast(V);
    std::string Text =
        D.digitsAsText() + "e" +
        std::to_string(D.K - static_cast<int>(D.Digits.size()));
    EXPECT_EQ(*readFloat<double>(Text), V) << Text;
  }
}

} // namespace
