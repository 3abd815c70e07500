//===- tests/fastpath/ryu_check.h - Ryu vs the exact loop -------*- C++ -*-===//
//
// Part of libdragon4. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The comparison every Ryu test makes: one (F, E) under one symmetric
/// options combination, Ryu against the exact Burger-Dybvig loop, byte for
/// byte -- with minimality asserted first so a correctness regression and
/// a shortness regression fail with different messages.  Also the
/// extended80 random sweep shared by the per-push slice
/// (ryu_extended80_test.cpp) and the 10^6-value exhaustive sweep
/// (ryu_extended80_sweep_test.cpp).
///
//===----------------------------------------------------------------------===//

#ifndef DRAGON4_TESTS_FASTPATH_RYU_CHECK_H
#define DRAGON4_TESTS_FASTPATH_RYU_CHECK_H

#include "core/free_format.h"
#include "fastpath/ryu.h"
#include "fp/format_traits.h"
#include "testgen/random_floats.h"

#include <cstdint>
#include <string>
#include <vector>

namespace dragon4::ryu_check {

struct OptionCombo {
  BoundaryMode Boundaries;
  TieBreak Ties;
};

/// The full symmetric options matrix: every boundary mode Ryu models,
/// crossed with every writer tie strategy.
inline constexpr OptionCombo SymmetricCombos[] = {
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

inline const char *comboName(const OptionCombo &Combo) {
  static const char *const Names[3][3] = {
      {"conservative/up", "conservative/even", "conservative/down"},
      {"nearest-even/up", "nearest-even/even", "nearest-even/down"},
      {"both-inclusive/up", "both-inclusive/even", "both-inclusive/down"}};
  int Row;
  switch (Combo.Boundaries) {
  case BoundaryMode::Conservative:
    Row = 0;
    break;
  case BoundaryMode::NearestEven:
    Row = 1;
    break;
  case BoundaryMode::BothInclusive:
    Row = 2;
    break;
  default:
    return "?";
  }
  return Names[Row][static_cast<int>(Combo.Ties)];
}

/// Conversions, declined conversions (only the 128-bit carrier may
/// decline), mismatches against the exact loop, and the first mismatch.
struct Tally {
  uint64_t Conversions = 0;
  uint64_t Refusals = 0;
  uint64_t Mismatches = 0;
  std::string FirstMismatch;
};

/// Ryu against the exact loop on v = F * 2^E.  Returns false on a
/// divergence (or on a refusal by a format of at most 54 bits), counting it
/// and keeping the first description in \p Counts; a 128-bit-carrier
/// refusal is counted, not failed -- the engine would take the exact loop.
/// \p Digits is caller-owned scratch.
inline bool checkRyu(uint64_t F, int E, int Precision, int MinExponent,
                     const OptionCombo &Combo, std::vector<uint8_t> &Digits,
                     Tally &Counts) {
  auto Mismatch = [&](const std::string &What) {
    if (Counts.Mismatches++ == 0)
      Counts.FirstMismatch = What + ", F " + std::to_string(F) + " E " +
                             std::to_string(E) + " combo " + comboName(Combo);
    return false;
  };
  bool AcceptBounds = false;
  if (!ryuEligible(10, Combo.Boundaries, (F & 1) == 0, AcceptBounds))
    return Mismatch("symmetric combo not Ryu-eligible");
  ++Counts.Conversions;
  int K = 0;
  if (!ryuShortestInto(F, E, Precision, MinExponent, AcceptBounds,
                       Combo.Ties, Digits, K)) {
    ++Counts.Refusals;
    return Precision > 54 || Mismatch("Ryu declined");
  }
  FreeFormatOptions Options;
  Options.Boundaries = Combo.Boundaries;
  Options.Ties = Combo.Ties;
  DigitString Exact =
      freeFormatDigits(F, E, Precision, MinExponent, Options);
  // Minimality first: a Ryu result longer than Dragon4's is a shortness
  // bug even if some prefix agrees.
  if (Digits.size() > Exact.Digits.size())
    return Mismatch("Ryu emitted " + std::to_string(Digits.size()) +
                    " digits, Dragon4 " +
                    std::to_string(Exact.Digits.size()));
  if (Digits != Exact.Digits || K != Exact.K) {
    DigitString Ours;
    Ours.Digits = Digits;
    Ours.K = K;
    return Mismatch("Ryu " + Ours.digitsAsText() + "e" + std::to_string(K) +
                    " != exact " + Exact.digitsAsText() + "e" +
                    std::to_string(Exact.K));
  }
  return true;
}

/// \p Count random extended80 values inside the Ryu window, each under all
/// nine symmetric combinations.  Exponents are uniform over the window;
/// mantissas are uniform normals, except that one in four has its low bits
/// cleared (so exactness and tie bookkeeping run) and one in four sits just
/// above a binade boundary.  Stops after eight mismatches.
inline Tally sweepExtended80Window(uint64_t Count, uint64_t Seed) {
  using Format = FormatTraits<long double>;
  using Traits = IeeeTraits<long double>;
  SplitMix64 Rng(Seed);
  std::vector<uint8_t> Digits;
  Tally Counts;
  for (uint64_t I = 0; I < Count && Counts.Mismatches < 8; ++I) {
    uint64_t F = Rng.next() | uint64_t(1) << 63;
    if (I % 4 == 1)
      F &= ~((uint64_t(1) << Rng.below(64)) - 1);
    else if (I % 4 == 2)
      F = uint64_t(1) << 63 | Rng.below(1 << 16);
    const int E = Format::RyuMinExponent +
                  static_cast<int>(Rng.below(static_cast<uint64_t>(
                      Format::RyuMaxExponent - Format::RyuMinExponent + 1)));
    for (const OptionCombo &Combo : SymmetricCombos)
      checkRyu(F, E, Traits::Precision, Traits::MinExponent, Combo, Digits,
               Counts);
  }
  return Counts;
}

} // namespace dragon4::ryu_check

#endif // DRAGON4_TESTS_FASTPATH_RYU_CHECK_H
