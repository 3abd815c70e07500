//===- baselines/grisu.h - Grisu3 shortest-output baseline ------*- C++ -*-===//
//
// Part of libdragon4. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Grisu3 for base-10 shortest output, after Loitsch, "Printing
/// floating-point numbers quickly and accurately with integers" (PLDI
/// 2010) -- the direct successor of the Burger-Dybvig algorithm this
/// library reproduces, kept as a benchmark comparator (the role
/// Champagne Gareau-Lemire give it) rather than a production rung: Ryu
/// accepts every input Grisu's model covers, and never gives up.  The
/// idea: do the whole conversion in 64-bit fixed-point arithmetic against
/// a precomputed approximation of 10^k, track the accumulated error, and
/// *fail* whenever the error could affect either shortness or the final
/// rounding; the caller then falls back to the exact bignum path.  On
/// typical doubles it succeeds ~99.5% of the time.
///
/// The 10^k approximations are fastpath/diyfp.h's cachedPowerOfTen, read
/// from the compile-time powers-of-five table.
///
/// Grisu models the conservative reader (boundaries excluded) with
/// round-up ties, matching BoundaryMode::Conservative of the exact
/// algorithm.
///
//===----------------------------------------------------------------------===//

#ifndef DRAGON4_BASELINES_GRISU_H
#define DRAGON4_BASELINES_GRISU_H

#include "core/digits.h"
#include "core/free_format.h"
#include "fp/ieee_traits.h"

#include <optional>
#include <vector>

namespace dragon4 {

/// Attempts the fast shortest conversion of the positive value F * 2^E
/// with the given precision/minimum exponent (base 10, conservative
/// boundaries).  Returns std::nullopt when the 64-bit error analysis
/// cannot certify the result; the caller must fall back to
/// freeFormatDigits.
std::optional<DigitString> grisuShortest(uint64_t F, int E, int Precision,
                                         int MinExponent);

/// Engine variant of grisuShortest: on success, fills \p Digits (cleared
/// first, capacity reused across calls) and sets \p K so that
/// v = 0.d1...dn * 10^K, and returns true.  Returns false when the error
/// analysis cannot certify the result; \p Digits is then garbage and the
/// caller must take the exact path.  Allocates nothing once \p Digits is
/// warm.
bool grisuShortestInto(uint64_t F, int E, int Precision, int MinExponent,
                       std::vector<uint8_t> &Digits, int &K);

/// Shortest base-10 digits of \p Value: Grisu3 when certifiable, the
/// exact Burger-Dybvig algorithm otherwise.  Result is always identical
/// to shortestDigits(Value, {.Boundaries = Conservative}).
template <typename T> DigitString shortestDigitsFast(T Value) {
  using Traits = IeeeTraits<T>;
  static_assert(Traits::Precision <= 62,
                "boundary scaling 4F-1 must fit in 64 bits");
  Decomposed D = decompose(Value);
  if (std::optional<DigitString> Fast = grisuShortest(
          D.F, D.E, Traits::Precision, Traits::MinExponent))
    return *Fast;
  FreeFormatOptions Options;
  Options.Boundaries = BoundaryMode::Conservative;
  return freeFormatDigits(D.F, D.E, Traits::Precision, Traits::MinExponent,
                          Options);
}

extern template DigitString shortestDigitsFast<double>(double);
extern template DigitString shortestDigitsFast<float>(float);

} // namespace dragon4

#endif // DRAGON4_BASELINES_GRISU_H
