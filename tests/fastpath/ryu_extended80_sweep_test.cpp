//===- tests/fastpath/ryu_extended80_sweep_test.cpp ------------------------===//
//
// Part of libdragon4. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The long extended80 certification sweep: 10^6 random values inside the
/// Ryu window, each under all nine symmetric option combinations, against
/// the exact loop (about a minute on one core; run
/// `build/tests/ryu_extended80_sweep`, as the nightly CI job does).
/// Prints the refusal count of the 128-bit carrier's certification.
///
//===----------------------------------------------------------------------===//

#include "ryu_check.h"

#include <gtest/gtest.h>

#include <cstdio>

using namespace dragon4::ryu_check;

TEST(RyuExtended80Sweep, MillionWindowValuesAllSymmetricOptions) {
  Tally Counts = sweepExtended80Window(1000000, 0x80);
  std::printf("extended80 sweep: %llu conversions, %llu declined, %llu "
              "mismatches\n",
              static_cast<unsigned long long>(Counts.Conversions),
              static_cast<unsigned long long>(Counts.Refusals),
              static_cast<unsigned long long>(Counts.Mismatches));
  EXPECT_EQ(Counts.Mismatches, 0u) << Counts.FirstMismatch;
  EXPECT_EQ(Counts.Conversions, 9000000u);
}
