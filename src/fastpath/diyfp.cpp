//===- fastpath/diyfp.cpp - 64-bit cached powers of ten ---------------------===//
//
// Part of libdragon4. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// 10^k = 5^k * 2^k, so the 64-bit significand of 10^k is the 128-bit
/// powers-of-five entry rounded to 64 bits, and only the binary exponent
/// differs.  Half-up rounding needs the exact value's bits below the
/// kept 64; the entry supplies them:
///
///   k >= 0  the entry truncates 5^k, so its bit 63 is 5^k's first
///           dropped bit exactly.
///   k <  0  the entry is the ceiling of 2^(b+127) / 5^-k (b the bit
///           length of 5^-k), a quotient that is never exact, so the
///           floor is entry - 1 and rounding the floor rounds the exact
///           quotient (no multiple of 2^63 lies strictly between them).
///
//===----------------------------------------------------------------------===//

#include "fastpath/diyfp.h"

#include "parse/pow5_table.h"

using namespace dragon4;

DiyFp dragon4::cachedPowerOfTen(int K10) {
  D4_ASSERT(K10 >= parse::SmallestPowerOfFive &&
                K10 <= parse::LargestPowerOfFive,
            "power of ten out of table range");
  const parse::Pow5Entry &Entry = parse::pow5Entry(K10);
  uint64_t Hi = Entry.Hi;
  uint64_t Lo = Entry.Lo;
  int E;
  if (K10 >= 0) {
    // 5^k = Hi:Lo * 2^(b - 128), b = bitlen(5^k).
    E = parse::ryuPow5Bits(K10) - 64 + K10;
  } else {
    // 5^k = (Hi:Lo - 1) * 2^-(b + 127) rounded down, b = bitlen(5^-k).
    if (Lo-- == 0)
      --Hi;
    E = -(parse::ryuPow5Bits(-K10) + 63) + K10;
  }
  uint64_t F = Hi + (Lo >> 63);
  if (F == 0) { // Rounding carried out of 64 bits: 2^64 = 2^63 * 2.
    F = uint64_t(1) << 63;
    ++E;
  }
  return DiyFp{F, E};
}
