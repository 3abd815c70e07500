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
/// five per conversion and tracks exactness explicitly, so it never gives
/// up: every exponent of binary16/32/64 lands inside the certified table
/// range (proven by enumeration in tests/fastpath/ryu_test.cpp), and the
/// range checks are assertions.
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
/// \p Precision <= 54 mantissa bits and minimum exponent \p MinExponent)
/// to its shortest correctly rounded decimal form: fills \p Digits
/// (cleared first, capacity reused across calls), sets \p K so that
/// v = 0.d1...dn * 10^K, and returns true.  It never declines:
/// the precision and cached-power range checks are assertions (a format
/// wider than binary64 aborts), so callers need no fallback.  Allocates
/// nothing once \p Digits is warm.
bool ryuShortestInto(uint64_t F, int E, int Precision, int MinExponent,
                     bool AcceptBounds, TieBreak Ties,
                     std::vector<uint8_t> &Digits, int &K);

} // namespace dragon4

#endif // DRAGON4_FASTPATH_RYU_H
