//===- baselines/grisu.cpp - Grisu3 shortest-output baseline ----------------===//
//
// Part of libdragon4. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Implementation after Loitsch (PLDI 2010), sections 5-6: normalize the
/// value and its rounding-range boundaries to 64-bit significands, scale
/// them by a cached power of ten so the binary exponent lands in a window
/// where integer and fraction parts separate cheaply, generate digits of
/// the upper boundary, stop inside the (error-shrunk) safe interval, then
/// "weed" the final digit toward the value -- refusing whenever the
/// +/-1-unit error bars could change the answer.
///
//===----------------------------------------------------------------------===//

#include "baselines/grisu.h"

#include "fastpath/diyfp.h"
#include "support/checks.h"

#include <cmath>

using namespace dragon4;

namespace {

/// Target window for the scaled binary exponent: with E in
/// [Alpha, Gamma] = [-60, -32] the integer part of a 64-bit significand
/// holds at least one and at most ~9 decimal digits.
constexpr int Alpha = -60;
constexpr int Gamma = -32;

/// Largest power of ten not above \p Value (Value < 2^MaxBits), plus its
/// exponent: the initial decimal position of the integer part.
void biggestPowerTen(uint32_t Value, int MaxBits, uint32_t &Power,
                     int &Exponent) {
  static const uint32_t Powers[] = {1,      10,      100,      1000,
                                    10000,  100000,  1000000,  10000000,
                                    100000000, 1000000000};
  // floor(MaxBits * log10(2)) guesses the digit count to within one.
  int Guess = (MaxBits + 1) * 1233 / 4096; // 1233/4096 ~ log10(2).
  if (Guess > 0 && Value < Powers[Guess])
    --Guess;
  Power = Powers[Guess];
  Exponent = Guess;
}

/// Loitsch's round_weed: move the last digit of the buffer toward w and
/// certify the choice despite the +/-Unit error bars.  Returns false when
/// the answer cannot be certified (Grisu3's failure signal).
bool roundWeed(std::vector<uint8_t> &Digits, uint64_t DistanceTooHighW,
               uint64_t UnsafeInterval, uint64_t Rest, uint64_t TenKappa,
               uint64_t Unit) {
  // Success requires clearance of several units inside the interval; bail
  // out before any of the unsigned arithmetic below can wrap.
  if (UnsafeInterval < 4 * Unit || DistanceTooHighW < Unit)
    return false;
  uint64_t SmallDistance = DistanceTooHighW - Unit;
  uint64_t BigDistance = DistanceTooHighW + Unit;
  // Decrement the last digit (moving the candidate down toward w) while
  // that provably gets closer to w and stays inside the safe interval.
  while (Rest < SmallDistance && UnsafeInterval - Rest >= TenKappa &&
         (Rest + TenKappa < SmallDistance ||
          SmallDistance - Rest >= Rest + TenKappa - SmallDistance)) {
    D4_ASSERT(!Digits.empty() && Digits.back() > 0,
              "weeding ran out of digits");
    --Digits.back();
    Rest += TenKappa;
  }
  // If the bigger error bar would have chosen a different digit, the
  // result is ambiguous: fail and let the exact algorithm decide.
  if (Rest < BigDistance && UnsafeInterval - Rest >= TenKappa &&
      (Rest + TenKappa < BigDistance ||
       BigDistance - Rest > Rest + TenKappa - BigDistance))
    return false;
  // Safe only comfortably inside the interval (2 units from the low end,
  // 4 from the high end -- Loitsch's margins).
  return 2 * Unit <= Rest && Rest <= UnsafeInterval - 4 * Unit;
}

/// Digit generation for the scaled boundaries (all exponents equal, in
/// [Alpha, Gamma]).  On success fills Digits and Kappa (the number of
/// digits the decimal exponent grows by relative to -K10).
bool digitGen(DiyFp Low, DiyFp W, DiyFp High, std::vector<uint8_t> &Digits,
              int &Kappa) {
  D4_ASSERT(Low.E == W.E && W.E == High.E, "boundaries must share exponents");
  D4_ASSERT(High.E >= Alpha && High.E <= Gamma, "exponent outside window");
  // The scaled boundaries carry up to one unit of error each; shrink the
  // safe interval accordingly (too_low/too_high are 1 unit outward).
  uint64_t Unit = 1;
  DiyFp TooLow{Low.F - Unit, Low.E};
  DiyFp TooHigh{High.F + Unit, High.E};
  uint64_t UnsafeInterval = TooHigh.F - TooLow.F;

  DiyFp One{uint64_t(1) << -W.E, W.E};
  auto Integrals = static_cast<uint32_t>(TooHigh.F >> -One.E);
  uint64_t Fractionals = TooHigh.F & (One.F - 1);

  uint32_t Divisor;
  int DivisorExponent;
  biggestPowerTen(Integrals, 64 - (-One.E), Divisor, DivisorExponent);
  Kappa = DivisorExponent + 1;

  // Integer-part digits.
  while (Kappa > 0) {
    Digits.push_back(static_cast<uint8_t>(Integrals / Divisor));
    Integrals %= Divisor;
    --Kappa;
    uint64_t Rest = (static_cast<uint64_t>(Integrals) << -One.E) +
                    Fractionals;
    if (Rest < UnsafeInterval) {
      return roundWeed(Digits, TooHigh.F - W.F, UnsafeInterval, Rest,
                       static_cast<uint64_t>(Divisor) << -One.E, Unit);
    }
    Divisor /= 10;
  }

  // Fraction digits: multiply everything by ten and peel the integer bit
  // field.  Unit grows with the scaling, tracking the absolute error.
  for (;;) {
    Fractionals *= 10;
    Unit *= 10;
    UnsafeInterval *= 10;
    Digits.push_back(static_cast<uint8_t>(Fractionals >> -One.E));
    Fractionals &= One.F - 1;
    --Kappa;
    if (Fractionals < UnsafeInterval) {
      return roundWeed(Digits, (TooHigh.F - W.F) * Unit, UnsafeInterval,
                       Fractionals, One.F, Unit);
    }
    if (Unit > UnsafeInterval)
      return false; // Error bars swallowed the interval: cannot certify.
  }
}

} // namespace

std::optional<DigitString>
dragon4::grisuShortest(uint64_t F, int E, int Precision, int MinExponent) {
  DigitString Result;
  if (!grisuShortestInto(F, E, Precision, MinExponent, Result.Digits,
                         Result.K))
    return std::nullopt;
  return Result;
}

bool dragon4::grisuShortestInto(uint64_t F, int E, int Precision,
                                int MinExponent, std::vector<uint8_t> &Digits,
                                int &K) {
  D4_ASSERT(F > 0, "fast path requires a positive mantissa");
  D4_ASSERT(Precision <= 62, "fast path requires p <= 62 (see header)");
  D4_ASSERT(F < (uint64_t(1) << Precision), "mantissa exceeds precision");

  // Rounding-range boundaries as exact DiyFps: high = (2F+1) * 2^(E-1);
  // low = (2F-1) * 2^(E-1), or (4F-1) * 2^(E-2) below a power of two.
  // Normalize High, then shift the others left onto High's exponent --
  // exact, because High has the largest magnitude of the three.
  DiyFp High = diyNormalize(DiyFp{2 * F + 1, E - 1});
  DiyFp W{F << (E - High.E), High.E};
  DiyFp Low;
  if (F == (uint64_t(1) << (Precision - 1)) && E > MinExponent)
    Low = DiyFp{(4 * F - 1) << (E - 2 - High.E), High.E};
  else
    Low = DiyFp{(2 * F - 1) << (E - 1 - High.E), High.E};

  // Pick 10^K10 landing the scaled exponent inside [Alpha, Gamma].
  // ceil((Alpha - e - 64) * log10(2)) starts within one; adjust exactly.
  int K10 = static_cast<int>(
      std::ceil((Alpha - (High.E + 64)) * 0.30102999566398114));
  DiyFp Ten = cachedPowerOfTen(K10);
  while (High.E + Ten.E + 64 < Alpha)
    Ten = cachedPowerOfTen(++K10);
  while (High.E + Ten.E + 64 > Gamma)
    Ten = cachedPowerOfTen(--K10);

  DiyFp ScaledW = diyMultiply(W, Ten);
  DiyFp ScaledHigh = diyMultiply(High, Ten);
  DiyFp ScaledLow = diyMultiply(Low, Ten);

  Digits.clear();
  int Kappa = 0;
  if (!digitGen(ScaledLow, ScaledW, ScaledHigh, Digits, Kappa))
    return false;
  D4_ASSERT(!Digits.empty() && Digits.front() != 0,
            "fast path produced a leading zero");

  // The emitted digits satisfy v ~ 0.d1...dn * 10^(n + Kappa) * 10^(-K10).
  K = static_cast<int>(Digits.size()) + Kappa - K10;
  return true;
}

namespace dragon4 {
template DigitString shortestDigitsFast<double>(double);
template DigitString shortestDigitsFast<float>(float);
} // namespace dragon4
