//===- tests/parse/parse_megabyte_test.cpp - Bounded worst case -----------===//
//
// Part of libdragon4. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Megabyte literals on the halfway comparison: the longest halfway point
/// of binary64 and of binary32 spelled out to 1 MB -- exactly on the tie
/// (zeros), one unit of the last digit above it, and one below it -- each
/// checked bit for bit against std::from_chars.  The parser keeps a fixed
/// number of significant digits and reads the rest only for a non-zero
/// one, so each parse is linear in the length; the ctest entry's timeout
/// is the time bound.
///
//===----------------------------------------------------------------------===//

#include "parse/parse.h"

#include "fp/ieee_traits.h"
#include "testgen/halfway_literals.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <string>

using namespace dragon4;
using namespace dragon4::parse;

namespace {

constexpr size_t Megabyte = size_t(1) << 20;

template <typename T> void checkMegabyteLiterals(uint64_t Lower) {
  const DecimalLiteral Half = halfwayAbove<T>(Lower);
  // Every spelling below is 1 MB of significant digits; "e" and the
  // exponent add a few bytes.
  DecimalLiteral Tie = Half;
  Tie.Digits.append(Megabyte - Half.Digits.size(), '0');
  Tie.Exp10 -= static_cast<int64_t>(Megabyte - Half.Digits.size());
  const DecimalLiteral Cases[] = {Tie, stickyAbove(Half, Megabyte),
                                  stickyBelow(Half, Megabyte)};
  for (const DecimalLiteral &D : Cases) {
    for (LiteralSpelling S :
         {LiteralSpelling::Exponent, LiteralSpelling::Positional}) {
      const std::string Text = spellLiteral(D, S);
      const auto Start = std::chrono::steady_clock::now();
      ParseResult<T> R = parseFloat<T>(Text);
      const double Ms = std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - Start)
                            .count();
      bool Whole = false;
      const uint64_t Want = fromCharsBits<T>(Text, Whole);
      ASSERT_TRUE(Whole);
      ASSERT_TRUE(R.ok());
      EXPECT_EQ(R.Consumed, Text.size());
      EXPECT_EQ(R.Path, ParsePath::ExactFallback);
      EXPECT_EQ(IeeeTraits<T>::toBits(R.Value), Want)
          << Text.size() << "-byte literal " << Text.substr(0, 40) << "...";
      std::printf("[ParseMegabyte] %zu bytes: %.2f ms\n", Text.size(), Ms);
    }
  }
}

TEST(ParseMegabyte, Binary64LongestHalfwayPoint) {
  // The top of the lowest normal binade, odd: its tie rounds up.
  checkMegabyteLiterals<double>((uint64_t(2) << 52) - 1);
  // Its even neighbour below: the tie rounds down.
  checkMegabyteLiterals<double>((uint64_t(2) << 52) - 2);
}

TEST(ParseMegabyte, Binary32LongestHalfwayPoint) {
  checkMegabyteLiterals<float>((uint64_t(2) << 23) - 1);
  checkMegabyteLiterals<float>((uint64_t(2) << 23) - 2);
}

} // namespace
