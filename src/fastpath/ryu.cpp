//===- fastpath/ryu.cpp - Ryu shortest-output fast path ---------------------===//
//
// Part of libdragon4. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Ryu digit generation (Adams, PLDI 2018), generic over every
/// certified format through the runtime (Precision, MinExponent) pair --
/// one body serves binary16, binary32, binary64 and extended80, exactly
/// like the exact loop it fronts.  The body is a template over the
/// integer carrier of the scaled interval: uint64_t for mantissas of up
/// to 54 bits, unsigned __int128 for extended80's 64.
///
/// Outline: decompose v = m2 * 2^e2 and scale the halfway-neighbour
/// interval by four so the three interval points u = 4m2 - 1 - mmShift,
/// v = 4m2, w = 4m2 + 2 are integers.  Multiply all three by a cached
/// 128-bit power of five to land in decimal, track which of the three
/// scaled values are exact, then remove digits while the interval still
/// spans a multiple of ten, and round the last kept digit with full
/// knowledge of ties.
///
/// Each floor must be the exact floor of the real product.  For the
/// 64-bit carrier the paper's Theorem 5.1 proves it at this table
/// precision (125 bits suffice for binary64's 55-bit interval points).
/// For the 128-bit carrier no such theorem covers 67-bit points, so each
/// product is certified on the call: an entry is within one unit of the
/// exact power, the product is therefore within m units of exact in its
/// discarded low bits, and a product whose low bits lie that close to a
/// carry or a borrow (odds of about 2^-54 for a random value) makes Ryu
/// decline, unless exactness is already known.  docs/fastpath.md has the
/// argument.
///
/// The range checks are assertions, not fallbacks: they read only the
/// exponent, and over every exponent of binary16/32/64 and of extended80's
/// window the shift J stays in [121, 125] and the table index in
/// [-342, 342] (docs/fastpath.md has the derivation;
/// tests/fastpath/ryu_test.cpp replays it at each exponent).
///
//===----------------------------------------------------------------------===//

#include "fastpath/ryu.h"

#include "format/render_core.h"
#include "parse/pow5_table.h"
#include "prof/phase.h"
#include "support/checks.h"
#include "support/testhooks.h"

#include <array>
#include <bit>

using namespace dragon4;
using parse::Pow5Entry;
using parse::pow5Entry;
using parse::ryuPow5Bits;

namespace dragon4::testhooks {

// Flips the digit-removal loop's interval-width comparison from strict to
// inclusive (see ryu.h); the Ryu analogue of FlipDigitLoopLowComparison.
bool FlipRyuBoundComparison = false;

} // namespace dragon4::testhooks

namespace {

using uint128 = unsigned __int128;

/// floor(e * log10(2)) for 0 <= e <= 1650.
inline int log10Pow2(int E) {
  return static_cast<int>((static_cast<uint32_t>(E) * uint32_t(78913)) >> 18);
}

/// floor(e * log10(5)) for 0 <= e <= 2620.
inline int log10Pow5(int E) {
  return static_cast<int>((static_cast<uint32_t>(E) * uint32_t(732923)) >>
                          20);
}

/// Does 5^Q divide V?  Plain trial division: Q is small whenever the
/// answer can be yes (5^29 > 2^67), so the loop exits fast.
template <typename Carrier> inline bool multipleOfPowerOf5(Carrier V, int Q) {
  for (; Q > 0; --Q) {
    if (V % 5 != 0)
      return false;
    V /= 5;
  }
  return true;
}

/// Does 2^Q divide V?  V is nonzero and narrower than its carrier, so a
/// Q of the carrier's width or more is always false.
template <typename Carrier> inline bool multipleOfPowerOf2(Carrier V, int Q) {
  return Q < static_cast<int>(8 * sizeof(Carrier)) &&
         (V & ((Carrier(1) << Q) - 1)) == 0;
}

/// Which way a cached power errs, by less than one unit: the entries for
/// 5^i (i >= 0) are truncated and read low, the reciprocals for 5^-q are
/// ceilings and read high.
enum class EntryError { Low, High };

/// floor(M * (Hi:Lo) / 2^Shift) for M < 2^57 and 64 < Shift < 128.  The
/// two 64x64 partial products fit unsigned __int128 with the top bits to
/// spare, and the sum keeps the full 128 bits above the discarded low
/// word, so the single wide shift is exact.  Theorem 5.1 makes the floor
/// exact at this precision, so there is nothing to certify.
inline uint64_t mulShift(uint64_t M, const Pow5Entry &Pow, int Shift,
                         EntryError, bool &) {
  unsigned __int128 Sum =
      (static_cast<unsigned __int128>(M) * Pow.Hi) +
      ((static_cast<unsigned __int128>(M) * Pow.Lo) >> 64);
  return static_cast<uint64_t>(Sum >> (Shift - 64));
}

/// floor(M * (Hi:Lo) / 2^Shift) for M < 2^67 and 64 < Shift < 128, from
/// the full 195-bit product.  The real product differs from the computed
/// one by less than M units of its last bit, in the entry's direction of
/// \p Error, so the floor is certain unless the discarded low Shift bits
/// lie within M of a carry (Low) or a borrow (High); then \p Uncertain is
/// set.
inline uint128 mulShift(uint128 M, const Pow5Entry &Pow, int Shift,
                        EntryError Error, bool &Uncertain) {
  const uint64_t M0 = static_cast<uint64_t>(M);
  const uint64_t M1 = static_cast<uint64_t>(M >> 64);
  // Product = Top * 2^128 + P1 * 2^64 + P0.  Neither partial sum can
  // overflow: (2^64 - 1)^2 + 2 (2^64 - 1) < 2^128, and M1 < 8.
  const uint128 LoLo = static_cast<uint128>(M0) * Pow.Lo;
  const uint128 Mid = static_cast<uint128>(M0) * Pow.Hi + (LoLo >> 64);
  const uint128 Cross = static_cast<uint128>(M1) * Pow.Lo;
  const uint128 Mid2 = static_cast<uint128>(static_cast<uint64_t>(Mid)) +
                       static_cast<uint64_t>(Cross);
  const uint64_t P0 = static_cast<uint64_t>(LoLo);
  const uint64_t P1 = static_cast<uint64_t>(Mid2);
  const uint128 Top = static_cast<uint128>(M1) * Pow.Hi + (Mid >> 64) +
                      (Cross >> 64) + (Mid2 >> 64);
  const int S = Shift - 64;
  const uint128 Low =
      (static_cast<uint128>(P1 & ((uint64_t(1) << S) - 1)) << 64) | P0;
  Uncertain |= Error == EntryError::High
                   ? Low < M
                   : Low > (static_cast<uint128>(1) << Shift) - M;
  return (Top << (64 - S)) | (P1 >> S);
}

/// 10^0 .. 10^19, the decimal digit-count thresholds of a uint64_t.
constexpr auto Pow10 = [] {
  std::array<uint64_t, 20> Table{};
  uint64_t Power = 1;
  for (uint64_t &Entry : Table) {
    Entry = Power;
    Power *= 10;
  }
  return Table;
}();

/// Decimal digits in V >= 1: floor(log10 V) + 1, estimated from the bit
/// width (1233 / 4096 ~ log10 2, never over) and settled by one table
/// comparison.
inline int decimalLength(uint64_t V) {
  const int Guess = (std::bit_width(V) * 1233) >> 12;
  return Guess + (V >= Pow10[static_cast<size_t>(Guess)]);
}

/// Stores the decimal digits of \p Output into \p Digits (resized, never
/// cleared: every position is overwritten); returns their count.
/// Emission goes through the unified render core's digit store, which
/// honors the CI regression self-test's synthetic per-digit slowdown so
/// the planted regression stays visible now that Ryu fronts the
/// conversion.
inline int storeOutput(uint64_t Output, std::vector<uint8_t> &Digits) {
  const int Length = decimalLength(Output);
  Digits.resize(static_cast<size_t>(Length));
  render_detail::storeDecimalDigits(Output, Length, Digits.data());
  return Length;
}

/// The 128-bit carrier's output can exceed 2^64 (up to 21 digits; it is
/// at most vp < 2^73).  Split off the low 19 digits with one 64-bit
/// division -- 10^19 = 2^19 * 5^19 and Output >> 19 < 2^54 -- so no
/// 128-bit division runs per digit; the tail is stored at its fixed
/// width, leading zeros included.
inline int storeOutput(uint128 Output, std::vector<uint8_t> &Digits) {
  if (Output >> 64 == 0)
    return storeOutput(static_cast<uint64_t>(Output), Digits);
  constexpr uint64_t Pow5To19 = 19073486328125;
  constexpr uint64_t Pow10To19 = 10000000000000000000u;
  const uint64_t Head = static_cast<uint64_t>(Output >> 19) / Pow5To19;
  const uint64_t Tail =
      static_cast<uint64_t>(Output - static_cast<uint128>(Head) * Pow10To19);
  const int HeadLength = decimalLength(Head);
  Digits.resize(static_cast<size_t>(HeadLength + 19));
  render_detail::storeDecimalDigits(Head, HeadLength, Digits.data());
  render_detail::storeDecimalDigits(Tail, 19, Digits.data() + HeadLength);
  return HeadLength + 19;
}

/// The Ryu body over \p Carrier.  Returns false only when the 128-bit
/// carrier cannot certify a product.
template <typename Carrier>
bool ryuDigits(uint64_t F, int E, int Precision, int MinExponent,
               bool AcceptBounds, TieBreak Ties, std::vector<uint8_t> &Digits,
               int &K) {
  // Scale by four: mm/mv/mp are the low neighbour midpoint, the value,
  // and the high neighbour midpoint as integers against e2 = E - 2.  The
  // gap below is halved (mmShift == 0) exactly when F sits on a binade
  // boundary above the subnormal range.
  const int E2 = E - 2;
  const Carrier Mv = 4 * static_cast<Carrier>(F);
  const unsigned MmShift =
      (F != (uint64_t(1) << (Precision - 1)) || E <= MinExponent) ? 1 : 0;
  const Carrier Mp = Mv + 2;
  const Carrier Mm = Mv - 1 - MmShift;

  Carrier Vr, Vp, Vm;
  int E10;
  bool VmIsTrailingZeros = false;
  bool VrIsTrailingZeros = false;
  if (E2 >= 0) {
    // v = mv * 2^e2; aim for e10 = q ~ floor(e2 log10 2) removed decimal
    // digits (one less near the bottom so at most one extra digit is ever
    // removed by the loop).
    const int Q = log10Pow2(E2) - (E2 > 3);
    E10 = Q;
    if (Q == 0) {
      // 10^0: the scaled values are the inputs themselves (e2 <= 6 here,
      // so the shifts cannot overflow the carrier).
      Vr = Mv << E2;
      Vp = Mp << E2;
      Vm = Mm << E2;
    } else {
      // Multiply by the 128-bit reciprocal of 5^q.  The entry is
      // ceil(2^(pow5bits(q) + 127) / 5^q); with j chosen below the
      // mulShift floor equals floor(x * 2^e2 / 10^q).
      const int J = -E2 + Q + ryuPow5Bits(Q) + 127;
      D4_ASSERT(-Q >= parse::SmallestPowerOfFive && J > 64 && J < 128,
                "Ryu reciprocal outside the certified range");
      const Pow5Entry &Inv = pow5Entry(-Q);
      bool UncertainR = false, UncertainP = false, UncertainM = false;
      Vr = mulShift(Mv, Inv, J, EntryError::High, UncertainR);
      Vp = mulShift(Mp, Inv, J, EntryError::High, UncertainP);
      Vm = mulShift(Mm, Inv, J, EntryError::High, UncertainM);
      // A high entry can lift a product across an integer it falls just
      // short of, but not past one it reaches exactly: an uncertain floor
      // stands if 5^q divides its point.
      if ((UncertainR && !multipleOfPowerOf5(Mv, Q)) ||
          (UncertainP && !multipleOfPowerOf5(Mp, Q)) ||
          (UncertainM && !multipleOfPowerOf5(Mm, Q)))
        return false;
    }
    // Exactness: 2^q always divides x * 2^e2 here (q <= e2), so only the
    // power of five matters.  Only the flag the rounding logic will
    // consult needs computing: ties require 5 | mv, and an exact excluded
    // upper bound is handled by shrinking it.
    if (Mv % 5 == 0) {
      VrIsTrailingZeros = multipleOfPowerOf5(Mv, Q);
    } else if (AcceptBounds) {
      VmIsTrailingZeros = multipleOfPowerOf5(Mm, Q);
    } else {
      Vp -= multipleOfPowerOf5(Mp, Q);
    }
  } else {
    // v = mv / 2^-e2; aim to keep q ~ floor(-e2 log10 5) binary digits of
    // headroom, scaling by 5^i with i = -e2 - q.
    const int Q = log10Pow5(-E2) - (-E2 > 1);
    E10 = Q + E2;
    const int I = -E2 - Q;
    // Entry is the truncated (or, below 128 bits, exact) top 128 bits of
    // 5^i; with this j the mulShift floor equals floor(x * 5^i / 2^q).
    const int J = Q - (ryuPow5Bits(I) - 128);
    D4_ASSERT(I <= parse::LargestPowerOfFive && J > 64 && J < 128,
              "Ryu power outside the certified range");
    const Pow5Entry &Pow = pow5Entry(I);
    bool Uncertain = false;
    Vr = mulShift(Mv, Pow, J, EntryError::Low, Uncertain);
    Vp = mulShift(Mp, Pow, J, EntryError::Low, Uncertain);
    Vm = mulShift(Mm, Pow, J, EntryError::Low, Uncertain);
    if (Uncertain)
      return false;
    if (Q <= 1) {
      // Every scaled value is exact: mv = 4F has two trailing zero bits,
      // mp = mv + 2 has one, and mm has one exactly when mmShift == 1.
      VrIsTrailingZeros = true;
      if (AcceptBounds)
        VmIsTrailingZeros = MmShift == 1;
      else
        --Vp; // Exact excluded upper bound: shrink it.
    } else {
      // vr is exact iff 2^q divides mv (5^i contributes no twos).
      VrIsTrailingZeros = multipleOfPowerOf2(Mv, Q);
    }
  }

  // Digit removal: drop the last digit of all three values while the
  // interval still spans a full decade, tracking removed digits where
  // ties or an exact lower bound are still possible.  The test hook
  // widens the strict comparison to >=, removing one digit too many --
  // the classic off-by-one this library's verify tier exists to catch.
  const bool FlipBound = testhooks::FlipRyuBoundComparison;
  int Removed = 0;
  uint8_t LastRemovedDigit = 0;
  Carrier Output;
  if (VmIsTrailingZeros || VrIsTrailingZeros) {
    // Rare (~0.7% of doubles): exactness bookkeeping is live.
    for (;;) {
      const Carrier VpDiv10 = Vp / 10;
      const Carrier VmDiv10 = Vm / 10;
      // The flipped (injected-bug) comparison still terminates: once the
      // values run out of digits there is nothing left to over-remove.
      if (FlipBound ? (VpDiv10 < VmDiv10 || VpDiv10 == 0)
                    : VpDiv10 <= VmDiv10)
        break;
      const Carrier VrDiv10 = Vr / 10;
      VmIsTrailingZeros &= Vm - 10 * VmDiv10 == 0;
      VrIsTrailingZeros &= LastRemovedDigit == 0;
      LastRemovedDigit = static_cast<uint8_t>(Vr - 10 * VrDiv10);
      Vr = VrDiv10;
      Vp = VpDiv10;
      Vm = VmDiv10;
      ++Removed;
    }
    if (VmIsTrailingZeros) {
      // The exact, admissible lower bound ends in zeros: keep stripping
      // so the loop below may stop on vm itself.
      while (Vm != 0 && Vm % 10 == 0) {
        VrIsTrailingZeros &= LastRemovedDigit == 0;
        LastRemovedDigit = static_cast<uint8_t>(Vr % 10);
        Vr /= 10;
        Vp /= 10;
        Vm /= 10;
        ++Removed;
      }
    }
    // An exact tie (removed digits are exactly one half) is broken by the
    // writer's TieBreak: round-up keeps the 5, round-down demotes it, and
    // round-even demotes it only when the kept digit is already even.
    const bool ExactTie = VrIsTrailingZeros && LastRemovedDigit == 5;
    if (ExactTie && (Ties == TieBreak::RoundDown ||
                     (Ties == TieBreak::RoundEven && Vr % 2 == 0)))
      LastRemovedDigit = 4;
    Output = Vr + ((Vr == Vm && (!AcceptBounds || !VmIsTrailingZeros)) ||
                   LastRemovedDigit >= 5);
  } else {
    // Common case: nothing is exact, so no tie can occur and only
    // "removed at least one half" matters.  Digits go two per step while
    // the interval spans a full hundred: floor(floor(x/10)/10) =
    // floor(x/100), so a step is exactly two one-digit steps, and the
    // round-up digit is the tens digit of the removed pair.  Once a
    // hundred no longer fits, at most one more digit can go.
    bool RoundUp = false;
    for (;;) {
      const Carrier VpDiv100 = Vp / 100;
      const Carrier VmDiv100 = Vm / 100;
      if (FlipBound ? (VpDiv100 < VmDiv100 || VpDiv100 == 0)
                    : VpDiv100 <= VmDiv100)
        break;
      const Carrier VrDiv100 = Vr / 100;
      RoundUp = Vr - 100 * VrDiv100 >= 50;
      Vr = VrDiv100;
      Vp = VpDiv100;
      Vm = VmDiv100;
      Removed += 2;
    }
    const Carrier VpDiv10 = Vp / 10;
    const Carrier VmDiv10 = Vm / 10;
    if (FlipBound ? (VpDiv10 >= VmDiv10 && VpDiv10 != 0)
                  : VpDiv10 > VmDiv10) {
      const Carrier VrDiv10 = Vr / 10;
      RoundUp = Vr - 10 * VrDiv10 >= 5;
      Vr = VrDiv10;
      Vp = VpDiv10;
      Vm = VmDiv10;
      ++Removed;
    }
    Output = Vr + (Vr == Vm || RoundUp);
  }

  // v = Output * 10^(E10 + Removed); in the library's digit convention
  // v = 0.d1...dn * 10^K.
  K = E10 + Removed + storeOutput(Output, Digits);
  return true;
}

} // namespace

bool dragon4::ryuShortestInto(uint64_t F, int E, int Precision,
                              int MinExponent, bool AcceptBounds,
                              TieBreak Ties, std::vector<uint8_t> &Digits,
                              int &K) {
  D4_PROF_SPAN(RyuPath);
  D4_ASSERT(F != 0, "zero handled by the caller");
  // Certification envelope: for Precision <= 54, 4F + 2 and the mulShift
  // products fit the 64-bit carrier and the paper's exactness theorem
  // covers them; wider mantissas take the 128-bit carrier, whose products
  // are certified on each call.
  if (Precision <= 54)
    return ryuDigits<uint64_t>(F, E, Precision, MinExponent, AcceptBounds,
                               Ties, Digits, K);
  D4_ASSERT(Precision <= 64, "Ryu serves mantissas of up to 64 bits");
  return ryuDigits<uint128>(F, E, Precision, MinExponent, AcceptBounds, Ties,
                            Digits, K);
}
