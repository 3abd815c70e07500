//===- tests/fastpath/ryu_test.cpp -----------------------------------------===//
//
// Part of libdragon4. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Ryu rung against the exact Burger-Dybvig loop.  binary16 is small
/// enough to sweep the full encoding space under the whole symmetric
/// options matrix (three boundary modes x three tie breaks); binary32 gets
/// a strided sweep.  Every Ryu conversion must be byte-identical to the
/// exact algorithm, and -- asserted separately so a correctness regression
/// and a minimality regression fail with different messages -- never
/// longer than the Dragon4 output.  Ryu's range checks read only the
/// exponent, so one conversion per exponent of each certified format
/// proves they can never fire.  The RyuLadder tests hold the string API's
/// two-rung ladder to the exact loop.
///
//===----------------------------------------------------------------------===//

#include "fastpath/ryu.h"

#include "core/free_format.h"
#include "format/dtoa.h"
#include "format/render.h"
#include "fp/binary16.h"
#include "fp/ieee_traits.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

using namespace dragon4;

namespace {

struct OptionCombo {
  BoundaryMode Boundaries;
  TieBreak Ties;
};

/// The full symmetric options matrix: every boundary mode Ryu models,
/// crossed with every writer tie strategy.
constexpr OptionCombo SymmetricCombos[] = {
    {BoundaryMode::Conservative, TieBreak::RoundUp},
    {BoundaryMode::Conservative, TieBreak::RoundEven},
    {BoundaryMode::Conservative, TieBreak::RoundDown},
    {BoundaryMode::NearestEven, TieBreak::RoundUp},
    {BoundaryMode::NearestEven, TieBreak::RoundEven},
    {BoundaryMode::NearestEven, TieBreak::RoundDown},
    {BoundaryMode::BothInclusive, TieBreak::RoundUp},
    {BoundaryMode::BothInclusive, TieBreak::RoundEven},
    {BoundaryMode::BothInclusive, TieBreak::RoundDown},
};

const char *comboName(const OptionCombo &Combo) {
  switch (Combo.Boundaries) {
  case BoundaryMode::Conservative:
    switch (Combo.Ties) {
    case TieBreak::RoundUp:
      return "conservative/up";
    case TieBreak::RoundEven:
      return "conservative/even";
    case TieBreak::RoundDown:
      return "conservative/down";
    }
    break;
  case BoundaryMode::NearestEven:
    switch (Combo.Ties) {
    case TieBreak::RoundUp:
      return "nearest-even/up";
    case TieBreak::RoundEven:
      return "nearest-even/even";
    case TieBreak::RoundDown:
      return "nearest-even/down";
    }
    break;
  case BoundaryMode::BothInclusive:
    switch (Combo.Ties) {
    case TieBreak::RoundUp:
      return "both-inclusive/up";
    case TieBreak::RoundEven:
      return "both-inclusive/even";
    case TieBreak::RoundDown:
      return "both-inclusive/down";
    }
    break;
  default:
    break;
  }
  return "?";
}

/// Runs Ryu and the exact loop on one finite non-zero value and compares.
/// Returns false (after recording a gtest failure) on any divergence.
/// \p Digits is caller-owned scratch so sweeps do not reallocate per value.
template <typename T>
bool checkOne(T Value, uint64_t Bits, const OptionCombo &Combo,
              std::vector<uint8_t> &Digits) {
  using Traits = IeeeTraits<T>;
  Decomposed D = decompose(Value);
  bool AcceptBounds = false;
  if (!ryuEligible(10, Combo.Boundaries, (D.F & 1) == 0, AcceptBounds)) {
    ADD_FAILURE() << "symmetric combo " << comboName(Combo)
                  << " not Ryu-eligible, bits 0x" << std::hex << Bits;
    return false;
  }
  int K = 0;
  if (!ryuShortestInto(D.F, D.E, Traits::Precision, Traits::MinExponent,
                       AcceptBounds, Combo.Ties, Digits, K)) {
    ADD_FAILURE() << "Ryu fell back on in-range input, bits 0x" << std::hex
                  << Bits << " combo " << comboName(Combo);
    return false;
  }
  FreeFormatOptions Options;
  Options.Boundaries = Combo.Boundaries;
  Options.Ties = Combo.Ties;
  DigitString Exact = freeFormatDigits(D.F, D.E, Traits::Precision,
                                       Traits::MinExponent, Options);
  // Minimality first: a Ryu result longer than Dragon4's is a shortness
  // bug even if some prefix agrees.
  if (Digits.size() > Exact.Digits.size()) {
    ADD_FAILURE() << "Ryu emitted " << Digits.size() << " digits, Dragon4 "
                  << Exact.Digits.size() << ", bits 0x" << std::hex << Bits
                  << " combo " << comboName(Combo);
    return false;
  }
  if (Digits != Exact.Digits || K != Exact.K) {
    DigitString Ours;
    Ours.Digits = Digits;
    Ours.K = K;
    ADD_FAILURE() << "Ryu " << Ours.digitsAsText() << "e" << K << " != exact "
                  << Exact.digitsAsText() << "e" << Exact.K << ", bits 0x"
                  << std::hex << Bits << " combo " << comboName(Combo);
    return false;
  }
  return true;
}

/// Full binary16 encoding space (sign included -- digit generation works on
/// the magnitude, so this doubles as a check that the sign bit never leaks
/// into the path), all nine symmetric option combinations.
TEST(RyuBinary16, FullSpaceMatchesExactAllSymmetricOptions) {
  std::vector<uint8_t> Digits;
  int Failures = 0;
  for (uint32_t Bits = 0; Bits <= 0xffff; ++Bits) {
    Binary16 Value = Binary16::fromBits(static_cast<uint16_t>(Bits));
    FpClass Class = classify(Value);
    if (Class != FpClass::Normal && Class != FpClass::Subnormal)
      continue;
    for (const OptionCombo &Combo : SymmetricCombos) {
      if (!checkOne(Value, Bits, Combo, Digits) && ++Failures >= 8) {
        FAIL() << "stopping after " << Failures << " mismatches";
      }
    }
  }
  EXPECT_EQ(Failures, 0);
}

/// Strided walk of the binary32 encoding space (coprime stride so the
/// samples spread across every binade), one combo per boundary mode.
TEST(RyuBinary32, StridedMatchesExact) {
  constexpr OptionCombo Combos[] = {
      {BoundaryMode::Conservative, TieBreak::RoundUp},
      {BoundaryMode::NearestEven, TieBreak::RoundEven},
      {BoundaryMode::BothInclusive, TieBreak::RoundDown},
  };
  std::vector<uint8_t> Digits;
  int Failures = 0;
  for (uint64_t Bits = 0; Bits <= 0xffffffffull; Bits += 65537) {
    float Value = IeeeTraits<float>::fromBits(static_cast<uint32_t>(Bits));
    FpClass Class = classify(Value);
    if (Class != FpClass::Normal && Class != FpClass::Subnormal)
      continue;
    for (const OptionCombo &Combo : Combos) {
      if (!checkOne(Value, Bits, Combo, Digits) && ++Failures >= 8) {
        FAIL() << "stopping after " << Failures << " mismatches";
      }
    }
  }
  EXPECT_EQ(Failures, 0);
}

/// Asymmetric reader models cannot be expressed by Ryu's AcceptBounds
/// flag and must report ineligible (the engine then takes the exact loop).
TEST(RyuEligibility, AsymmetricBoundariesRejected) {
  bool AcceptBounds = false;
  EXPECT_FALSE(
      ryuEligible(10, BoundaryMode::LowInclusive, true, AcceptBounds));
  EXPECT_FALSE(
      ryuEligible(10, BoundaryMode::LowInclusive, false, AcceptBounds));
  EXPECT_FALSE(
      ryuEligible(10, BoundaryMode::HighInclusive, true, AcceptBounds));
  EXPECT_FALSE(
      ryuEligible(10, BoundaryMode::HighInclusive, false, AcceptBounds));
}

/// Ryu is a base-10 algorithm; any other base takes the exact path.
TEST(RyuEligibility, NonDecimalBaseRejected) {
  bool AcceptBounds = false;
  EXPECT_FALSE(ryuEligible(2, BoundaryMode::Conservative, true, AcceptBounds));
  EXPECT_FALSE(ryuEligible(16, BoundaryMode::NearestEven, true, AcceptBounds));
  EXPECT_FALSE(
      ryuEligible(36, BoundaryMode::BothInclusive, false, AcceptBounds));
}

/// AcceptBounds resolution: Conservative always excludes the endpoints,
/// BothInclusive always admits them, NearestEven follows mantissa parity.
TEST(RyuEligibility, AcceptBoundsResolution) {
  bool AcceptBounds = true;
  ASSERT_TRUE(
      ryuEligible(10, BoundaryMode::Conservative, true, AcceptBounds));
  EXPECT_FALSE(AcceptBounds);
  ASSERT_TRUE(
      ryuEligible(10, BoundaryMode::BothInclusive, false, AcceptBounds));
  EXPECT_TRUE(AcceptBounds);
  ASSERT_TRUE(ryuEligible(10, BoundaryMode::NearestEven, true, AcceptBounds));
  EXPECT_TRUE(AcceptBounds);
  ASSERT_TRUE(ryuEligible(10, BoundaryMode::NearestEven, false, AcceptBounds));
  EXPECT_FALSE(AcceptBounds);
}

/// Ryu's range checks depend only on the exponent E of v = F * 2^E, so
/// converting one mantissa per exponent reaches every shift and table
/// index the format can produce.  At each exponent of the format: the
/// binade-boundary mantissa 2^(p-1) (the halved lower gap), the largest
/// mantissa, and F = 1 at MinExponent (the smallest subnormal), under both
/// AcceptBounds values.  Every call must succeed (an out-of-range check
/// would abort) and equal the exact loop under the matching reader model.
template <typename T> void checkEveryExponent() {
  using Traits = IeeeTraits<T>;
  constexpr int P = Traits::Precision;
  std::vector<uint8_t> Digits;
  for (int E = Traits::MinExponent; E <= Traits::MaxExponent; ++E) {
    std::vector<uint64_t> Mantissas = {uint64_t(1) << (P - 1),
                                       (uint64_t(1) << P) - 1};
    if (E == Traits::MinExponent)
      Mantissas.push_back(1);
    for (uint64_t F : Mantissas) {
      for (bool AcceptBounds : {false, true}) {
        FreeFormatOptions Options;
        Options.Boundaries = AcceptBounds ? BoundaryMode::BothInclusive
                                          : BoundaryMode::Conservative;
        int K = 0;
        ASSERT_TRUE(ryuShortestInto(F, E, P, Traits::MinExponent,
                                    AcceptBounds, Options.Ties, Digits, K))
            << "F " << F << " E " << E;
        DigitString Exact =
            freeFormatDigits(F, E, P, Traits::MinExponent, Options);
        ASSERT_EQ(Digits, Exact.Digits) << "F " << F << " E " << E;
        ASSERT_EQ(K, Exact.K) << "F " << F << " E " << E;
      }
    }
  }
}

TEST(RyuExponents, EveryExponentOfEveryCertifiedFormatConverts) {
  checkEveryExponent<Binary16>();
  checkEveryExponent<float>();
  checkEveryExponent<double>();
}

/// toShortest must render exactly the exact loop's digits for every finite
/// binary16 encoding under the default options.
TEST(RyuLadder, Binary16FullSpaceEqualsExact) {
  for (uint32_t Bits = 0; Bits <= 0xffff; ++Bits) {
    Binary16 Value = Binary16::fromBits(static_cast<uint16_t>(Bits));
    FpClass Class = classify(Value);
    if (Class != FpClass::Normal && Class != FpClass::Subnormal)
      continue;
    std::string Exact = renderAuto(shortestDigits(Value), signBit(Value));
    ASSERT_EQ(toShortest(Value), Exact) << "bits 0x" << std::hex << Bits;
  }
}

/// toShortest vs the exact loop over the full symmetric options matrix,
/// strided so the test stays cheap: the per-combo behavior is already
/// swept exhaustively above; this guards the engine's rung dispatch.
TEST(RyuLadder, Binary16StridedAllSymmetricOptions) {
  for (uint32_t Bits = 1; Bits <= 0xffff; Bits += 7) {
    Binary16 Value = Binary16::fromBits(static_cast<uint16_t>(Bits));
    FpClass Class = classify(Value);
    if (Class != FpClass::Normal && Class != FpClass::Subnormal)
      continue;
    for (const OptionCombo &Combo : SymmetricCombos) {
      PrintOptions Options;
      Options.Boundaries = Combo.Boundaries;
      Options.Ties = Combo.Ties;
      FreeFormatOptions Free;
      Free.Boundaries = Combo.Boundaries;
      Free.Ties = Combo.Ties;
      std::string Exact =
          renderAuto(shortestDigits(Value, Free), signBit(Value));
      ASSERT_EQ(toShortest(Value, Options), Exact)
          << "bits 0x" << std::hex << Bits << " combo " << comboName(Combo);
    }
  }
}

/// Asymmetric boundary modes route around Ryu to the exact loop; the
/// string API must still give the exact answer.
TEST(RyuLadder, AsymmetricModesFallThrough) {
  for (uint32_t Bits = 1; Bits <= 0xffff; Bits += 31) {
    Binary16 Value = Binary16::fromBits(static_cast<uint16_t>(Bits));
    FpClass Class = classify(Value);
    if (Class != FpClass::Normal && Class != FpClass::Subnormal)
      continue;
    for (BoundaryMode Mode :
         {BoundaryMode::LowInclusive, BoundaryMode::HighInclusive}) {
      PrintOptions Options;
      Options.Boundaries = Mode;
      FreeFormatOptions Free;
      Free.Boundaries = Mode;
      std::string Exact =
          renderAuto(shortestDigits(Value, Free), signBit(Value));
      ASSERT_EQ(toShortest(Value, Options), Exact)
          << "bits 0x" << std::hex << Bits;
    }
  }
}

} // namespace
