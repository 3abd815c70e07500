//===- tests/fastpath/ryu_extended80_test.cpp ------------------------------===//
//
// Part of libdragon4. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Ryu rung on extended80 (x87 long double, 64-bit mantissa), which
/// runs Ryu's one body on its 128-bit carrier and certifies each product.
/// Every conversion Ryu accepts must be byte-identical to the exact loop
/// under all nine symmetric option combinations: random values across the
/// exponent window, pinned integers, exact ties and binade boundaries.
/// The engine must take Ryu exactly inside the window and the exact loop
/// one exponent outside it, and a planted removal-loop bug must show.
/// The every-exponent proof lives with the other formats' in ryu_test.cpp;
/// the 10^6-value sweep in ryu_extended80_sweep_test.cpp.
///
//===----------------------------------------------------------------------===//

#include "ryu_check.h"

#include "engine/engine.h"
#include "format/render.h"
#include "support/testhooks.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

using namespace dragon4;
using namespace dragon4::ryu_check;

namespace {

using Format = FormatTraits<long double>;
using Traits = IeeeTraits<long double>;

constexpr uint64_t Top = uint64_t(1) << 63;

/// Every symmetric combination on one (F, E); returns the tally.
Tally checkAllCombos(uint64_t F, int E) {
  std::vector<uint8_t> Digits;
  Tally Counts;
  for (const OptionCombo &Combo : SymmetricCombos)
    checkRyu(F, E, Traits::Precision, Traits::MinExponent, Combo, Digits,
             Counts);
  return Counts;
}

/// Ryu's digits for (F, E) under \p Ties and the nearest-even reader.
std::vector<uint8_t> ryuDigits(uint64_t F, int E, TieBreak Ties) {
  bool AcceptBounds = false;
  EXPECT_TRUE(ryuEligible(10, BoundaryMode::NearestEven, (F & 1) == 0,
                          AcceptBounds));
  std::vector<uint8_t> Digits;
  int K = 0;
  EXPECT_TRUE(ryuShortestInto(F, E, Traits::Precision, Traits::MinExponent,
                              AcceptBounds, Ties, Digits, K));
  return Digits;
}

/// (F, E) of the positive integer N (N < 2^64), normalized to F >= 2^63.
void integerParts(uint64_t N, uint64_t &F, int &E) {
  const int Shift = __builtin_clzll(N);
  F = N << Shift;
  E = -Shift;
}

TEST(RyuExtended80, RandomInWindowAllSymmetricOptions) {
  Tally Counts = sweepExtended80Window(20000, 80);
  EXPECT_EQ(Counts.Mismatches, 0u) << Counts.FirstMismatch;
  EXPECT_EQ(Counts.Conversions, 20000u * 9);
  // A refusal is legal, but at odds of about 2^-54 per product none is
  // expected here; one would mean the certification margin moved.
  EXPECT_EQ(Counts.Refusals, 0u);
}

/// Integers up to 2^64: powers of two and ten, their neighbours, and the
/// extremes of the 64-bit mantissa.  Small exponents take the e2 < 0
/// branch with exact cached powers, 2^64 the Q == 0 branch.
TEST(RyuExtended80, IntegersUpTo2To64) {
  std::vector<uint64_t> Integers = {1, 2, 3, 5, 7, 9, 99, 12345,
                                    999999999999999999u, ~uint64_t(0),
                                    Top + 1, Top - 1};
  for (int Bit = 0; Bit < 64; ++Bit)
    Integers.push_back(uint64_t(1) << Bit);
  for (uint64_t Power = 10; Power <= 10000000000000000000u / 10; Power *= 10)
    for (uint64_t N : {Power - 1, Power, Power + 1})
      Integers.push_back(N);
  Integers.push_back(10000000000000000000u);
  for (uint64_t N : Integers) {
    uint64_t F;
    int E;
    integerParts(N, F, E);
    Tally Counts = checkAllCombos(F, E);
    EXPECT_EQ(Counts.Mismatches, 0u) << Counts.FirstMismatch << " (" << N
                                     << ")";
    EXPECT_EQ(Counts.Refusals, 0u) << N;
  }
  // 2^64 itself: F = 2^63, E = 1.
  Tally Counts = checkAllCombos(Top, 1);
  EXPECT_EQ(Counts.Mismatches, 0u) << Counts.FirstMismatch;
  EXPECT_EQ(toShortest(std::ldexp(1.0L, 64)), "18446744073709551616");
  EXPECT_EQ(toShortest(static_cast<long double>(~uint64_t(0))),
            "18446744073709551615");
}

/// Values whose shortest form ends on an exact tie between two candidates.
/// With E = -2, v = X.25 or X.75: the half-ulp 0.125 admits both X.2 and
/// X.3 (or X.7 and X.8), 0.05 away (the Q <= 1 branch).  With E = -5,
/// v = X.125 or X.375 ties at two places (the 2^q-divides-mv branch).
/// Each must match the exact loop, and the tie rules must disagree.
TEST(RyuExtended80, ExactTiesFollowTheTieBreak) {
  struct TieCase {
    uint64_t F;
    int E;
  };
  const TieCase Cases[] = {
      {Top + 1, -2},  {Top + 3, -2},  {~uint64_t(0) - 2, -2},
      {Top + 4, -5},  {Top + 12, -5}, {Top + 0x1234567894, -5},
      {Top + 5, -2},  {Top + 7, -2},
  };
  for (const TieCase &Case : Cases) {
    Tally Counts = checkAllCombos(Case.F, Case.E);
    EXPECT_EQ(Counts.Mismatches, 0u) << Counts.FirstMismatch;
    EXPECT_EQ(Counts.Refusals, 0u);
    EXPECT_NE(ryuDigits(Case.F, Case.E, TieBreak::RoundUp),
              ryuDigits(Case.F, Case.E, TieBreak::RoundDown))
        << "no tie at F " << Case.F << " E " << Case.E;
  }
}

/// Binade boundaries (F = 2^63, where the gap below halves) and their
/// predecessors (2^64 - 1 one exponent down), across the window.
TEST(RyuExtended80, BinadeBoundaries) {
  for (int E : {Format::RyuMinExponent + 1, -1000, -500, -130, -66, -65, -64,
                -63, -62, -2, -1, 0, 1, 2, 3, 4, 7, 8, 64, 500, 1000,
                Format::RyuMaxExponent}) {
    for (auto [F, At] : {std::pair{Top, E}, std::pair{~uint64_t(0), E - 1},
                         std::pair{Top + 1, E}}) {
      Tally Counts = checkAllCombos(F, At);
      EXPECT_EQ(Counts.Mismatches, 0u) << Counts.FirstMismatch;
      EXPECT_EQ(Counts.Refusals, 0u) << "F " << F << " E " << At;
    }
  }
}

/// The engine's eligibility test: Ryu at both window edges, the exact loop
/// one exponent outside each, with the exact loop's text either way.
TEST(RyuExtended80, EngineTakesRyuExactlyInsideTheWindow) {
  engine::Scratch S;
  char Buffer[64];
  auto Convert = [&](uint64_t F, int E) {
    long double Value = std::ldexp(static_cast<long double>(F), E);
    const uint64_t Ryu = S.stats().RyuHits;
    const uint64_t Exact = S.stats().SlowPathDirect;
    size_t Length = engine::format(Value, Buffer, sizeof(Buffer), {}, S);
    EXPECT_EQ(std::string(Buffer, Length),
              renderAuto(shortestDigits(Value), false))
        << "F " << F << " E " << E;
    return std::pair{S.stats().RyuHits - Ryu,
                     S.stats().SlowPathDirect - Exact};
  };
  for (uint64_t F : {Top, ~uint64_t(0), Top + 0x5bd1e995}) {
    EXPECT_EQ(Convert(F, Format::RyuMinExponent), std::pair(1ul, 0ul));
    EXPECT_EQ(Convert(F, Format::RyuMaxExponent), std::pair(1ul, 0ul));
    EXPECT_EQ(Convert(F, Format::RyuMinExponent - 1), std::pair(0ul, 1ul));
    EXPECT_EQ(Convert(F, Format::RyuMaxExponent + 1), std::pair(0ul, 1ul));
  }
}

/// Inside the window, asymmetric reader models and other bases still take
/// the exact loop, and match it.
TEST(RyuExtended80, IneligibleOptionsTakeTheExactLoop) {
  engine::Scratch S;
  char Buffer[128];
  const long double Value = 0.1L;
  for (PrintOptions Options :
       {PrintOptions{.Boundaries = BoundaryMode::LowInclusive},
        PrintOptions{.Boundaries = BoundaryMode::HighInclusive},
        PrintOptions{.Base = 16}}) {
    const uint64_t Exact = S.stats().SlowPathDirect;
    size_t Length = engine::format(Value, Buffer, sizeof(Buffer), Options, S);
    FreeFormatOptions Free;
    Free.Base = Options.Base;
    Free.Boundaries = Options.Boundaries;
    RenderOptions Render;
    Render.Base = Options.Base;
    EXPECT_EQ(std::string(Buffer, Length),
              renderAuto(shortestDigits(Value, Free), false, Render));
    EXPECT_EQ(S.stats().SlowPathDirect, Exact + 1);
  }
  EXPECT_EQ(S.stats().RyuHits, 0u);
}

/// The planted removal-loop bug (FlipRyuBoundComparison) must show up in
/// the 128-bit instantiation too.
TEST(RyuExtended80, PlantedBoundFlipIsCaught) {
  testhooks::FlipRyuBoundComparison = true;
  Tally Counts = sweepExtended80Window(500, 81);
  testhooks::FlipRyuBoundComparison = false;
  EXPECT_GT(Counts.Mismatches, 0u);
  Tally Clean = sweepExtended80Window(500, 81);
  EXPECT_EQ(Clean.Mismatches, 0u) << Clean.FirstMismatch;
}

} // namespace
