//===- tests/engine/engine_batch_test.cpp - Batch conversion ----------------===//
//
// Part of libdragon4. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// BatchEngine<T> must produce byte-identical output regardless of how many
// threads run the batch: every value owns a fixed-stride slot, so the
// sharding is invisible in the result.  The counters must account for
// every value exactly once.  The typed engines share one BatchPool core,
// so the determinism argument is identical for every format; this file
// proves it for double, float, and Binary16 (the Half sweep is the whole
// encoding space), and for the type-erased AnyBatch mixing all five.
//
//===----------------------------------------------------------------------===//

#include "dragon4.h"

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

using namespace dragon4;
namespace eng = dragon4::engine;

namespace {

/// Big enough that a multi-thread engine genuinely shards (several chunks
/// per worker), with specials sprinkled through.
std::vector<double> batchCorpus() {
  std::vector<double> Values = randomBitsDoubles(20000, 0xba7c4001);
  std::vector<double> Sub = randomSubnormalDoubles(2000, 0xba7c4002);
  Values.insert(Values.end(), Sub.begin(), Sub.end());
  for (size_t I = 0; I < Values.size(); I += 997) {
    Values[I] = (I % 3 == 0)   ? std::numeric_limits<double>::quiet_NaN()
                : (I % 3 == 1) ? std::numeric_limits<double>::infinity()
                               : -0.0;
  }
  return Values;
}

/// Same shape for binary32 (specials included the same way).
std::vector<float> batchCorpusFloat() {
  std::vector<float> Values = randomBitsFloats(20000, 0xba7c4005);
  std::vector<float> Sub = randomSubnormalFloats(2000, 0xba7c4006);
  Values.insert(Values.end(), Sub.begin(), Sub.end());
  for (size_t I = 0; I < Values.size(); I += 997) {
    Values[I] = (I % 3 == 0)   ? std::numeric_limits<float>::quiet_NaN()
                : (I % 3 == 1) ? std::numeric_limits<float>::infinity()
                               : -0.0f;
  }
  return Values;
}

/// Every binary16 encoding, in order: normals, subnormals, zeros,
/// infinities, and NaNs -- the entire format.
std::vector<Binary16> fullHalfSpace() {
  std::vector<Binary16> Values;
  Values.reserve(1u << 16);
  for (uint32_t Bits = 0; Bits < (1u << 16); ++Bits)
    Values.push_back(Binary16::fromBits(static_cast<uint16_t>(Bits)));
  return Values;
}

TEST(BatchEngine, SingleThreadMatchesStringApi) {
  std::vector<double> Values = batchCorpus();
  eng::BatchEngine<double> Engine(1);
  EXPECT_EQ(Engine.threads(), 1u);
  eng::StringTable Table;
  Engine.convert(Values, Table, PrintOptions{});
  ASSERT_EQ(Table.size(), Values.size());
  for (size_t I = 0; I < Values.size(); ++I)
    ASSERT_EQ(std::string(Table.view(I)), toShortest(Values[I])) << I;
}

TEST(BatchEngine, MultiThreadIdenticalToSingleThread) {
  std::vector<double> Values = batchCorpus();
  eng::BatchEngine<double> Single(1);
  eng::StringTable Expected;
  Single.convert(Values, Expected, PrintOptions{});
  for (unsigned Threads : {2u, 4u}) {
    eng::BatchEngine<double> Engine(Threads);
    EXPECT_EQ(Engine.threads(), Threads);
    eng::StringTable Table;
    Engine.convert(Values, Table, PrintOptions{});
    ASSERT_EQ(Table.size(), Expected.size());
    for (size_t I = 0; I < Values.size(); ++I)
      ASSERT_EQ(Table.view(I), Expected.view(I))
          << I << " with " << Threads << " threads";
  }
}

TEST(BatchEngine, FloatBatchDeterministicAndMatchesStringApi) {
  std::vector<float> Values = batchCorpusFloat();
  eng::BatchEngine<float> Single(1);
  eng::StringTable Expected;
  Single.convert(Values, Expected, PrintOptions{});
  ASSERT_EQ(Expected.size(), Values.size());
  for (size_t I = 0; I < Values.size(); ++I)
    ASSERT_EQ(std::string(Expected.view(I)), toShortest(Values[I])) << I;
  for (unsigned Threads : {2u, 4u}) {
    eng::BatchEngine<float> Engine(Threads);
    eng::StringTable Table;
    Engine.convert(Values, Table, PrintOptions{});
    for (size_t I = 0; I < Values.size(); ++I)
      ASSERT_EQ(Table.view(I), Expected.view(I))
          << I << " with " << Threads << " threads";
  }
  // binary32 is Ryu-certified: the first rung must serve every finite
  // non-zero value of the batch, none may reach the exact loop.
  EXPECT_GT(Single.stats().RyuHits, 0u);
  EXPECT_EQ(Single.stats().RyuHits, Single.stats().Conversions);
  EXPECT_EQ(Single.stats().SlowPathDirect, 0u);
}

TEST(BatchEngine, HalfBatchDeterministicOverWholeFormat) {
  std::vector<Binary16> Values = fullHalfSpace();
  eng::BatchEngine<Binary16> Single(1);
  eng::StringTable Expected;
  Single.convert(Values, Expected, PrintOptions{});
  eng::BatchEngine<Binary16> Engine(4);
  eng::StringTable Table;
  Engine.convert(Values, Table, PrintOptions{});
  ASSERT_EQ(Table.size(), Expected.size());
  for (size_t I = 0; I < Values.size(); ++I)
    ASSERT_EQ(Table.view(I), Expected.view(I)) << "encoding " << I;
  // Ryu's 128-bit powers cover binary16: every finite non-zero value must
  // be served by the first rung, so the exact loop never runs.
  EXPECT_EQ(Single.stats().RyuHits, Single.stats().Conversions);
  EXPECT_EQ(Single.stats().SlowPathDirect, 0u);
  EXPECT_EQ(Single.stats().FormatConversions[int(FormatId::Binary16)],
            Single.stats().Conversions);
}

TEST(AnyBatch, MixedFormatsMatchTypedOutput) {
  // Round-robin across all five formats, specials included.
  std::vector<double> Doubles = randomBitsDoubles(400, 0xba7c4007);
  std::vector<float> Floats = randomBitsFloats(400, 0xba7c4008);
  std::vector<eng::AnyValue> Mixed;
  std::vector<std::string> Expected;
  for (size_t I = 0; I < 400; ++I) {
    switch (I % 5) {
    case 0:
      Mixed.push_back(eng::AnyValue::of(Doubles[I]));
      Expected.push_back(toShortest(Doubles[I]));
      break;
    case 1:
      Mixed.push_back(eng::AnyValue::of(Floats[I]));
      Expected.push_back(toShortest(Floats[I]));
      break;
    case 2: {
      Binary16 H = Binary16::fromBits(static_cast<uint16_t>(I * 163));
      Mixed.push_back(eng::AnyValue::of(H));
      Expected.push_back(toShortest(H));
      break;
    }
    case 3: {
      long double E = static_cast<long double>(Doubles[I]) / 3.0L;
      Mixed.push_back(eng::AnyValue::of(E));
      Expected.push_back(toShortest(E));
      break;
    }
    default: {
      Binary128 Q = Binary128::fromDouble(Floats[I]);
      Mixed.push_back(eng::AnyValue::of(Q));
      Expected.push_back(toShortest(Q));
      break;
    }
    }
  }
  for (unsigned Threads : {1u, 4u}) {
    eng::AnyBatch Any(Threads);
    eng::StringTable Table;
    Any.convert(Mixed, Table, PrintOptions{});
    ASSERT_EQ(Table.size(), Mixed.size());
    ASSERT_EQ(Table.strideBytes(), eng::AnyBatch::slotSize(10));
    for (size_t I = 0; I < Mixed.size(); ++I)
      ASSERT_EQ(std::string(Table.view(I)), Expected[I])
          << I << " with " << Threads << " threads";
    // The per-format dimension sums to the total conversions.
    const eng::EngineStats &Stats = Any.stats();
    uint64_t PerFormat = 0;
    for (uint64_t C : Stats.FormatConversions)
      PerFormat += C;
    EXPECT_EQ(PerFormat, Stats.Conversions);
    for (int F = 0; F < NumFormatIds; ++F)
      EXPECT_GT(Stats.FormatConversions[F], 0u) << formatIdName(FormatId(F));
  }
}

TEST(AnyBatch, RoundTripsEncodingForEveryFormat) {
  EXPECT_EQ(eng::AnyValue::of(1.5).as<double>(), 1.5);
  EXPECT_EQ(eng::AnyValue::of(1.5f).as<float>(), 1.5f);
  EXPECT_EQ(eng::AnyValue::of(1.5L).as<long double>(), 1.5L);
  EXPECT_TRUE(eng::AnyValue::of(Binary16::fromBits(0x3c00))
                  .as<Binary16>() == Binary16::fromBits(0x3c00));
  Binary128 Q = Binary128::fromDouble(0.1);
  EXPECT_TRUE(eng::AnyValue::of(Q).as<Binary128>() == Q);
  // Negative long double keeps its sign through the 80-bit encoding pair.
  EXPECT_EQ(eng::AnyValue::of(-2.75L).as<long double>(), -2.75L);
}

TEST(BatchEngine, StatsCoverEveryValueExactlyOnce) {
  std::vector<double> Values = batchCorpus();
  eng::BatchEngine<double> Engine(4);
  eng::StringTable Table;
  Engine.convert(Values, Table, PrintOptions{});
  const eng::EngineStats &Stats = Engine.stats();
  EXPECT_EQ(Stats.Batches, 1u);
  EXPECT_EQ(Stats.BatchValues, Values.size());
  EXPECT_EQ(Stats.Conversions + Stats.Specials, Values.size());
  EXPECT_GT(Stats.Specials, 0u);
  EXPECT_EQ(Stats.RyuHits + Stats.SlowPathDirect, Stats.Conversions);
  EXPECT_GT(Stats.RyuHits, 0u);
  EXPECT_EQ(Stats.FormatConversions[int(FormatId::Binary64)],
            Stats.Conversions);
  EXPECT_GT(Stats.BatchNanos, 0u);

  // A second batch accumulates.
  Engine.convert(Values, Table, PrintOptions{});
  EXPECT_EQ(Engine.stats().Batches, 2u);
  EXPECT_EQ(Engine.stats().BatchValues, 2 * Values.size());
  // Arena blocks are reported once, not re-sampled per drain: two batches
  // over warm scratches must not exceed one first block per worker.
  EXPECT_LE(Engine.stats().ArenaBlockAllocs, uint64_t(Engine.threads()));

  Engine.resetStats();
  EXPECT_EQ(Engine.stats().Batches, 0u);
}

TEST(BatchEngine, TableReusedAcrossBatchesAndFormats) {
  eng::BatchEngine<double> Engine(4);
  eng::StringTable Table;
  std::vector<double> Big = randomNormalDoubles(5000, 0xba7c4003);
  Engine.convert(Big, Table, PrintOptions{});
  ASSERT_EQ(Table.size(), Big.size());

  // A tiny follow-up batch (below one chunk) reuses the same table.
  std::vector<double> Small = {0.1, -2.5, 1e300};
  Engine.convert(Small, Table, PrintOptions{});
  ASSERT_EQ(Table.size(), Small.size());
  for (size_t I = 0; I < Small.size(); ++I)
    EXPECT_EQ(std::string(Table.view(I)), toShortest(Small[I]));

  // The table is format-agnostic: a float engine re-strides the same one.
  eng::BatchEngine<float> FloatEngine(1);
  std::vector<float> SmallF = {0.25f, -1e30f, 3.5f};
  FloatEngine.convert(SmallF, Table, PrintOptions{});
  ASSERT_EQ(Table.size(), SmallF.size());
  for (size_t I = 0; I < SmallF.size(); ++I)
    EXPECT_EQ(std::string(Table.view(I)), toShortest(SmallF[I]));
}

TEST(BatchEngine, ZeroThreadsPicksHardwareConcurrency) {
  eng::BatchEngine<double> Engine;
  EXPECT_GE(Engine.threads(), 1u);
}

} // namespace
