//===- tests/engine/engine_multiformat_test.cpp - One pipeline, 5 formats ---===//
//
// Part of libdragon4. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// The format-generic engine contract: engine::format<T> is byte-identical
// to toShortest<T> for every supported format -- binary16 exhaustively
// (the whole 65536-encoding space), the others over stratified corpora --
// and the traits-derived buffer bound maxShortestBufferSize<T>(Base) is
// never exceeded, proven by rendering into a buffer of exactly that size
// and asserting no truncation.
//
//===----------------------------------------------------------------------===//

#include "dragon4.h"
#include "verify/domain.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

using namespace dragon4;
namespace eng = dragon4::engine;

namespace {

/// Formats \p Value through a buffer of exactly the format's proven
/// worst-case size; a reported length beyond it is an overflow-bound
/// violation, not just a truncation.
template <typename T>
std::string viaBoundBuffer(T Value, const PrintOptions &Options,
                           eng::Scratch &S) {
  char Buf[eng::maxShortestBufferSize<T>(10)];
  size_t Length = eng::format(Value, Buf, sizeof(Buf), Options, S);
  EXPECT_LE(Length, sizeof(Buf)) << "buffer bound violated";
  return std::string(Buf, Length < sizeof(Buf) ? Length : sizeof(Buf));
}

template <typename T>
void expectMatchesToShortest(const std::vector<T> &Values) {
  eng::Scratch S;
  for (size_t I = 0; I < Values.size(); ++I)
    ASSERT_EQ(viaBoundBuffer(Values[I], PrintOptions{}, S),
              toShortest(Values[I]))
        << "value index " << I;
}

/// Stratified long double corpus: full-width mantissas over a log-uniform
/// exponent sweep, subnormals, both signs, plus the edges.
std::vector<long double> extended80Corpus(size_t Count, uint64_t Seed) {
  SplitMix64 Rng(Seed);
  std::vector<long double> Values;
  Values.reserve(Count + 8);
  for (size_t I = 0; I < Count; ++I) {
    uint64_t F = Rng.next() | (uint64_t(1) << 63); // Explicit integer bit.
    int E = static_cast<int>(Rng.below(16320 + 16381)) - 16381;
    long double V = std::ldexp(static_cast<long double>(F), E - 63);
    Values.push_back((Rng.next() & 1) ? -V : V);
  }
  Values.push_back(std::numeric_limits<long double>::max());
  Values.push_back(std::numeric_limits<long double>::min());
  Values.push_back(std::numeric_limits<long double>::denorm_min());
  Values.push_back(-std::numeric_limits<long double>::denorm_min());
  Values.push_back(std::numeric_limits<long double>::infinity());
  Values.push_back(std::numeric_limits<long double>::quiet_NaN());
  Values.push_back(0.0L);
  Values.push_back(-0.0L);
  return Values;
}

/// Stratified binary128 corpus through the verify domain (boundaries,
/// Schryer hard cases, seeded random strata -- specials included).
std::vector<Binary128> binary128Corpus(size_t Count, uint64_t Seed) {
  std::vector<Binary128> Values;
  for (const verify::BitPattern &Bits :
       verify::sampledDomain(verify::FloatFormat::Binary128, Count, Seed))
    Values.push_back(Binary128::fromBits(Bits.Hi, Bits.Lo));
  return Values;
}

TEST(EngineMultiFormat, Binary16ExhaustiveMatchesToShortest) {
  eng::Scratch S;
  for (uint32_t Bits = 0; Bits < (1u << 16); ++Bits) {
    Binary16 V = Binary16::fromBits(static_cast<uint16_t>(Bits));
    ASSERT_EQ(viaBoundBuffer(V, PrintOptions{}, S), toShortest(V))
        << "encoding 0x" << std::hex << Bits;
  }
  // The sweep covered finite values and specials; the Ryu rung certifies
  // every binary16 conversion, so nothing reaches the exact loop.
  EXPECT_GT(S.stats().Conversions, 0u);
  EXPECT_GT(S.stats().Specials, 0u);
  EXPECT_EQ(S.stats().RyuHits, S.stats().Conversions);
  EXPECT_EQ(S.stats().SlowPathDirect, 0u);
}

TEST(EngineMultiFormat, Binary32StratifiedMatchesToShortest) {
  std::vector<float> Values = randomNormalFloats(4000, 0xf04a0001);
  std::vector<float> Sub = randomSubnormalFloats(2000, 0xf04a0002);
  Values.insert(Values.end(), Sub.begin(), Sub.end());
  std::vector<float> Bits = randomBitsFloats(2000, 0xf04a0003);
  Values.insert(Values.end(), Bits.begin(), Bits.end());
  const float Edges[] = {
      0.0f, -0.0f, 1.0f, -1.0f, 0.1f, 0.3f,
      1e-45f,                 // Smallest subnormal.
      1.1754944e-38f,         // Smallest normal.
      3.4028235e38f,          // Largest finite.
      -3.4028235e38f,
      16777216.0f,            // 2^24.
      16777217.0f,            // 2^24 + 1 (rounds).
      std::numeric_limits<float>::infinity(),
      std::numeric_limits<float>::quiet_NaN(),
  };
  Values.insert(Values.end(), std::begin(Edges), std::end(Edges));
  expectMatchesToShortest(Values);
}

TEST(EngineMultiFormat, Extended80StratifiedMatchesToShortest) {
  expectMatchesToShortest(extended80Corpus(3000, 0xf04a0004));
}

TEST(EngineMultiFormat, Binary128StratifiedMatchesToShortest) {
  // binary128 digits run the wide BigInt loop end to end; a smaller corpus
  // keeps this tier-1 while still crossing every stratum.
  expectMatchesToShortest(binary128Corpus(600, 0xf04a0005));
}

TEST(EngineMultiFormat, FixedMatchesToFixedAcrossFormats) {
  eng::Scratch S;
  char Buf[512];
  for (uint32_t Bits = 0x0001; Bits < 0x7c00; Bits += 37) {
    Binary16 V = Binary16::fromBits(static_cast<uint16_t>(Bits));
    for (int Digits : {0, 2, 6}) {
      size_t Length =
          eng::formatFixed(V, Digits, Buf, sizeof(Buf), PrintOptions{}, S);
      ASSERT_LE(Length, sizeof(Buf));
      ASSERT_EQ(std::string(Buf, Length), toFixed(V, Digits))
          << "encoding 0x" << std::hex << Bits << std::dec << " digits "
          << Digits;
    }
  }
  for (float V : randomNormalFloats(400, 0xf04a0006)) {
    size_t Length =
        eng::formatFixed(V, 9, Buf, sizeof(Buf), PrintOptions{}, S);
    ASSERT_LE(Length, sizeof(Buf));
    ASSERT_EQ(std::string(Buf, Length), toFixed(V, 9)) << V;
  }
  // binary128's fixed forms run to ~4950 bytes at the top of the range
  // (unlike shortest, fixed notation has no traits bound).
  std::vector<char> BigBuf(8192);
  for (const Binary128 &V : binary128Corpus(80, 0xf04a0007)) {
    size_t Length =
        eng::formatFixed(V, 8, BigBuf.data(), BigBuf.size(), PrintOptions{}, S);
    ASSERT_LE(Length, BigBuf.size());
    ASSERT_EQ(std::string(BigBuf.data(), Length), toFixed(V, 8));
  }
}

/// The bound table itself: spot-check the static_assert values stay in
/// sync with the traits (a traits change that widens a format must widen
/// its slot).
TEST(EngineMultiFormat, BufferBoundsOrderedBySignificandWidth) {
  EXPECT_EQ(eng::maxShortestBufferSize<Binary16>(10), 23u);
  EXPECT_EQ(eng::maxShortestBufferSize<float>(10), 23u);
  EXPECT_EQ(eng::maxShortestBufferSize<double>(10), 24u);
  EXPECT_EQ(eng::maxShortestBufferSize<long double>(10), 29u);
  EXPECT_EQ(eng::maxShortestBufferSize<Binary128>(10), 44u);
  EXPECT_EQ(eng::shortestSlotSize<double>(10), 24u);
  EXPECT_EQ(eng::shortestSlotSize<Binary128>(10), 48u);
  // The length-24 witness for double: the largest finite magnitude,
  // negated, renders to exactly the bound.
  EXPECT_EQ(toShortest(-1.7976931348623157e308).size(), 24u);
}

/// Non-decimal bases keep the overflow-impossible property: render into a
/// buffer of exactly the base's bound and assert nothing truncates.
template <typename T, unsigned Base>
void checkBaseBound(const std::vector<T> &Values) {
  eng::Scratch S;
  PrintOptions Options;
  Options.Base = Base;
  if (Base > 14)
    Options.ExponentMarker = '^'; // 'e' is a hex digit.
  char Buf[eng::maxShortestBufferSize<T>(Base)];
  for (const T &V : Values) {
    size_t Length = eng::format(V, Buf, sizeof(Buf), Options, S);
    ASSERT_LE(Length, sizeof(Buf)) << "base " << Base;
  }
}

TEST(EngineMultiFormat, BufferBoundHoldsInBases2And16) {
  std::vector<double> Doubles = randomBitsDoubles(2000, 0xf04a0008);
  Doubles.push_back(-1.7976931348623157e308);
  Doubles.push_back(5e-324);
  checkBaseBound<double, 2>(Doubles);
  checkBaseBound<double, 16>(Doubles);

  std::vector<Binary16> Halves;
  for (uint32_t Bits = 0; Bits < (1u << 16); Bits += 7)
    Halves.push_back(Binary16::fromBits(static_cast<uint16_t>(Bits)));
  checkBaseBound<Binary16, 2>(Halves);
  checkBaseBound<Binary16, 16>(Halves);

  std::vector<Binary128> Quads = binary128Corpus(120, 0xf04a0009);
  checkBaseBound<Binary128, 2>(Quads);
  checkBaseBound<Binary128, 16>(Quads);
}

} // namespace
