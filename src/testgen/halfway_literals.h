//===- testgen/halfway_literals.h - Decimal halfway points -------*- C++ -*-===//
//
// Part of libdragon4. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The hardest decimal literals for a reader: the exact halfway point
/// between two neighbouring binary32/64 encodings, and that point moved by
/// one unit of some far significant digit.  The exact point is a tie that
/// nearest-even sends to the even neighbour; the moved ones must round
/// away from it although they agree with it on every digit up to the
/// moved one.  Past 19 digits they are exactly the literals parseFloat
/// settles with its halfway comparison, so the parse tests, the
/// differential fuzzer and the reader bench draw from here, and check
/// against fromCharsBits, libstdc++'s independent reading.
///
//===----------------------------------------------------------------------===//

#ifndef DRAGON4_TESTGEN_HALFWAY_LITERALS_H
#define DRAGON4_TESTGEN_HALFWAY_LITERALS_H

#include <cstddef>
#include <cstdint>
#include <string>

namespace dragon4 {

/// The decimal value Digits * 10^Exp10; Digits has no leading or trailing
/// zero.
struct DecimalLiteral {
  std::string Digits;
  int64_t Exp10 = 0;
};

/// The exact halfway point between encoding \p Lower (finite, sign clear)
/// and Lower + 1 of T, float or double: (2m+1) * 2^(e-1) for
/// Lower = m * 2^e.  At the largest finite encoding it is the overflow
/// threshold, at zero the underflow one.
template <typename T> DecimalLiteral halfwayAbove(uint64_t Lower);

/// \p D plus one unit of its significant digit \p Pos (counted from 1 at
/// the leading digit; Pos > D.Digits.size()): a trailing 1 after zeros.
DecimalLiteral stickyAbove(const DecimalLiteral &D, size_t Pos);

/// \p D minus one unit of its significant digit \p Pos: the last digit
/// drops by one and nines run to Pos.
DecimalLiteral stickyBelow(const DecimalLiteral &D, size_t Pos);

enum class LiteralSpelling {
  Exponent,   ///< "ddd" "e-k": the digits as an integer.
  Scientific, ///< "d.dd" "e+k".
  Positional, ///< "ddd00", "dd.d" or "0.000ddd", no exponent.
};

std::string spellLiteral(const DecimalLiteral &D, LiteralSpelling S);

/// Encoding std::from_chars reads from the whole of \p Text (float or
/// double), saturated to infinity or zero where from_chars reports the
/// result out of range and leaves its output alone.  Sets \p Whole to
/// whether it consumed all of \p Text.
template <typename T> uint64_t fromCharsBits(const std::string &Text,
                                             bool &Whole);

} // namespace dragon4

#endif // DRAGON4_TESTGEN_HALFWAY_LITERALS_H
