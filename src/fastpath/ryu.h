//===- fastpath/ryu.h - Ryu shortest-output fast path ------------*- C++ -*-===//
//
// Part of libdragon4. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A Ryu-style shortest-form converter after Adams, "Ryu: fast
/// float-to-string conversion" (PLDI 2018) -- the first of the library's
/// two rungs; the exact Burger-Dybvig loop is the second.  Ryu computes
/// the exact scaled interval (v-, v, v+) with one 128-bit cached power of
/// five per conversion and tracks exactness explicitly.  It serves
/// mantissas of up to 64 bits: binary16/32/64 on a 64-bit carrier, where
/// it never gives up, and extended80 on a 128-bit carrier, where it
/// certifies each product and declines the rare one it cannot (see
/// ryuShortestInto).  Every exponent of binary16/32/64, and every
/// extended80 exponent inside FormatTraits' Ryu window, lands inside the
/// table range (proven by enumeration in tests/fastpath/ryu_test.cpp), so
/// the range checks are assertions.
///
/// Faithful to this repository's spirit, the cached powers are not magic
/// constants: parse/pow5_table.h builds them at compile time with a
/// constexpr bignum evaluator shared with the Eisel-Lemire parser, and
/// they are asserted bit for bit against the runtime BigInt stack.
///
/// This implementation models every symmetric boundary semantics: the
/// caller passes AcceptBounds (may the output land exactly on a neighbour
/// midpoint?) and the writer-side TieBreak.  Asymmetric reader models
/// (LowInclusive/HighInclusive) are not expressible and take the exact
/// loop; see ryuEligible.
///
//===----------------------------------------------------------------------===//

#ifndef DRAGON4_FASTPATH_RYU_H
#define DRAGON4_FASTPATH_RYU_H

#include "core/digits.h"
#include "core/free_format.h"
#include "core/options.h"
#include "fp/format_traits.h"
#include "fp/ieee_traits.h"

#include <cstdint>
#include <vector>

namespace dragon4 {

/// Decides whether Ryu's symmetric-bounds model expresses the requested
/// reader semantics for a value whose mantissa parity is \p MantissaEven.
/// On success sets \p AcceptBounds (both interval endpoints admissible)
/// and returns true.  Every TieBreak is supported; only base 10 and
/// symmetric BoundaryFlags (LowOk == HighOk) are.
inline bool ryuEligible(unsigned Base, BoundaryMode Boundaries,
                        bool MantissaEven, bool &AcceptBounds) {
  if (Base != 10)
    return false;
  BoundaryFlags Flags = BoundaryFlags::resolveEven(Boundaries, MantissaEven);
  if (Flags.LowOk != Flags.HighOk)
    return false;
  AcceptBounds = Flags.LowOk;
  return true;
}

/// Engine entry point: converts the positive value F * 2^E (a format with
/// \p Precision <= 64 mantissa bits and minimum exponent \p MinExponent)
/// to its shortest correctly rounded decimal form: fills \p Digits
/// (cleared first, capacity reused across calls), sets \p K so that
/// v = 0.d1...dn * 10^K, and returns true.  With Precision <= 54 it never
/// declines.  With a wider mantissa (extended80) it returns false, leaving
/// \p Digits and \p K unspecified, when a product's discarded bits lie
/// too close to a carry or borrow to certify its floor -- odds of about
/// 2^-54 on a random value; the caller then takes the exact loop.  The
/// exponent must lie inside the format's Ryu window
/// (FormatTraits::RyuMinExponent..RyuMaxExponent): the cached-power range
/// checks are assertions.  Allocates nothing once \p Digits is warm.
bool ryuShortestInto(uint64_t F, int E, int Precision, int MinExponent,
                     bool AcceptBounds, TieBreak Ties,
                     std::vector<uint8_t> &Digits, int &K);

} // namespace dragon4

#endif // DRAGON4_FASTPATH_RYU_H
