//===- bench/bench_reader.cpp - Reader costs ----------------------------------===//
//
// Part of libdragon4. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Cost of text -> float, both sides of the split: the exact correctly
/// rounded reader (verification side) and the Eisel-Lemire fast parser
/// (production side), by literal length and magnitude, against strtod.
/// The read-back pair (BM_ReadBackFastParse / BM_ReadBackExactReader)
/// parses the same pre-formatted shortest-form corpus with each
/// implementation -- the derived reader_roundtrip_speedup ratio is the
/// headline number, and parse_readback_gb_per_s converts the fast
/// parser's per-literal cost into decimal-text bandwidth.  The fused
/// round trip (format + parse per value) bounds a full serialize ->
/// deserialize cycle.  The long-halfway pair parses decimal halfway
/// points of 20-770 significant digits, the parser's residue, with each
/// implementation.
///
//===----------------------------------------------------------------------===//

#include "reader/reader.h"

#include "engine/engine.h"
#include "engine/scratch.h"
#include "engine/stats.h"
#include "parse/parse.h"
#include "testgen/halfway_literals.h"
#include "testgen/random_floats.h"

#include "bench_gbench.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <string>
#include <vector>

using namespace dragon4;

namespace {

const char *TestLiterals[] = {
    "3.14159",
    "3.141592653589793",
    "1.7976931348623157e308",
    "4.9406564584124654e-324",
    "0.500000000000000166533453693773481063544750213623046875",
};

/// Shortest-form corpus: uniform-bit-pattern doubles (the fallback-rate
/// domain from the closure tests) rendered by the engine.  Shared by the
/// read-back pair so both implementations parse identical bytes.
const std::vector<std::string> &readBackCorpus() {
  static const std::vector<std::string> Corpus = [] {
    engine::Scratch Scratch;
    char Buf[64];
    std::vector<std::string> Out;
    for (double V : randomBitsDoubles(4096, 0xBE7C)) {
      size_t Len = engine::format(V, Buf, sizeof(Buf), PrintOptions{}, Scratch);
      Out.emplace_back(Buf, Len);
    }
    return Out;
  }();
  return Corpus;
}

/// Binary64 halfway literals with log-uniform significant digit counts in
/// [20, 770]: the halfway point (2m+1) * 5^K / 10^K above a random
/// mantissa, with K picked for the target length (about 16.3 + 0.7K
/// digits), on the tie or one sticky digit above or below it.
const std::vector<std::string> &longHalfwayCorpus() {
  static const std::vector<std::string> Corpus = [] {
    SplitMix64 Rng(0x4A1F);
    std::vector<std::string> Out;
    for (int I = 0; I < 512; ++I) {
      const double Target =
          20.0 * std::pow(770.0 / 20.0, static_cast<double>(Rng.below(1 << 20)) /
                                            (1 << 20));
      const int K = std::clamp(static_cast<int>((Target - 16.3) / 0.699), 6,
                               1075);
      const uint64_t Lower = (uint64_t(1076 - K) << 52) |
                             (Rng.next() & ((uint64_t(1) << 52) - 1));
      DecimalLiteral D = halfwayAbove<double>(Lower);
      if (I % 3 == 1)
        D = stickyAbove(D, D.Digits.size() + 1);
      else if (I % 3 == 2)
        D = stickyBelow(D, D.Digits.size() + 1);
      Out.push_back(spellLiteral(D, LiteralSpelling::Exponent));
    }
    return Out;
  }();
  return Corpus;
}

/// Mean literal length of the read-back corpus, for the GB/s conversion.
double readBackMeanBytes() {
  const auto &Corpus = readBackCorpus();
  size_t Total = 0;
  for (const std::string &Text : Corpus)
    Total += Text.size();
  return static_cast<double>(Total) / static_cast<double>(Corpus.size());
}

void BM_ReadDouble(benchmark::State &State) {
  const char *Text = TestLiterals[State.range(0)];
  for (auto _ : State) {
    auto V = readFloat<double>(Text);
    benchmark::DoNotOptimize(V);
  }
  State.SetLabel(Text);
}
BENCHMARK(BM_ReadDouble)->DenseRange(0, 4);

void BM_ParseDouble(benchmark::State &State) {
  // The fast parser over the same literals as BM_ReadDouble: the
  // per-literal ablation of the production/verification split.
  const char *Text = TestLiterals[State.range(0)];
  for (auto _ : State) {
    auto R = parse::parseFloat<double>(Text);
    benchmark::DoNotOptimize(R);
  }
  State.SetLabel(Text);
}
BENCHMARK(BM_ParseDouble)->DenseRange(0, 4);

void BM_StrtodReference(benchmark::State &State) {
  const char *Text = TestLiterals[State.range(0)];
  for (auto _ : State) {
    double V = std::strtod(Text, nullptr);
    benchmark::DoNotOptimize(V);
  }
  State.SetLabel(Text);
}
BENCHMARK(BM_StrtodReference)->DenseRange(0, 4);

void BM_ReadDoubleFastPath(benchmark::State &State) {
  // A short literal inside the Clinger fast-path domain (<= 53-bit
  // significand, |q| <= 22): one exact IEEE operation.
  for (auto _ : State) {
    auto V = readFloat<double>("3.14159");
    benchmark::DoNotOptimize(V);
  }
}
BENCHMARK(BM_ReadDoubleFastPath);

void BM_ReadDoubleExactOnly(benchmark::State &State) {
  // The same literal forced down the exact path (NearestAway has no fast
  // path) -- the ablation pair for BM_ReadDoubleFastPath.
  for (auto _ : State) {
    auto V = readFloat<double>("3.14159", 10, ReadRounding::NearestAway);
    benchmark::DoNotOptimize(V);
  }
}
BENCHMARK(BM_ReadDoubleExactOnly);

void BM_ReadFloat(benchmark::State &State) {
  for (auto _ : State) {
    auto V = readFloat<float>("3.14159");
    benchmark::DoNotOptimize(V);
  }
}
BENCHMARK(BM_ReadFloat);

void BM_ParseFloat(benchmark::State &State) {
  for (auto _ : State) {
    auto R = parse::parseFloat<float>("3.14159");
    benchmark::DoNotOptimize(R);
  }
}
BENCHMARK(BM_ParseFloat);

void BM_ReadHexDouble(benchmark::State &State) {
  for (auto _ : State) {
    auto V = readFloat<double>("1.921fb54442d18^0", 16);
    benchmark::DoNotOptimize(V);
  }
}
BENCHMARK(BM_ReadHexDouble);

void BM_ReadBackFastParse(benchmark::State &State) {
  // Read-back rate of the fast parser over shortest-form output; one
  // literal per iteration, cycling the corpus.
  const auto &Corpus = readBackCorpus();
  size_t Index = 0;
  for (auto _ : State) {
    auto R = parse::parseFloat<double>(Corpus[Index]);
    benchmark::DoNotOptimize(R);
    if (++Index == Corpus.size())
      Index = 0;
  }
}
BENCHMARK(BM_ReadBackFastParse);

void BM_ReadBackExactReader(benchmark::State &State) {
  // Identical bytes through the exact bignum reader: the denominator of
  // the reader_roundtrip_speedup acceptance ratio.
  const auto &Corpus = readBackCorpus();
  size_t Index = 0;
  for (auto _ : State) {
    auto V = readFloat<double>(Corpus[Index]);
    benchmark::DoNotOptimize(V);
    if (++Index == Corpus.size())
      Index = 0;
  }
}
BENCHMARK(BM_ReadBackExactReader);

void BM_ParseLongHalfway(benchmark::State &State) {
  // The residue: every literal goes to parseFloat's halfway comparison.
  const auto &Corpus = longHalfwayCorpus();
  size_t Index = 0;
  for (auto _ : State) {
    auto R = parse::parseFloat<double>(Corpus[Index]);
    benchmark::DoNotOptimize(R);
    if (++Index == Corpus.size())
      Index = 0;
  }
}
BENCHMARK(BM_ParseLongHalfway);

void BM_ReadLongHalfway(benchmark::State &State) {
  // The same literals through the exact bignum reader.
  const auto &Corpus = longHalfwayCorpus();
  size_t Index = 0;
  for (auto _ : State) {
    auto V = readFloat<double>(Corpus[Index]);
    benchmark::DoNotOptimize(V);
    if (++Index == Corpus.size())
      Index = 0;
  }
}
BENCHMARK(BM_ReadLongHalfway);

void BM_RoundTripFused(benchmark::State &State) {
  // Fused print -> parse: format one double into a stack buffer and parse
  // it straight back, per iteration.  Bounds a serialize/deserialize
  // cycle end to end (allocation-free on both sides once warm).
  static const std::vector<double> Values = randomBitsDoubles(4096, 0xF05E);
  engine::Scratch Scratch;
  char Buf[64];
  size_t Index = 0;
  for (auto _ : State) {
    size_t Len = engine::format(Values[Index], Buf, sizeof(Buf),
                                PrintOptions{}, Scratch);
    auto R = parse::parseFloat<double>(std::string_view(Buf, Len));
    benchmark::DoNotOptimize(R);
    if (++Index == Values.size())
      Index = 0;
  }
}
BENCHMARK(BM_RoundTripFused);

/// Derived metrics: text bandwidth, the fast/exact read-back ratio, and
/// the observed fast-path hit rate over the read-back corpus.
void readerReportHook(bench::BenchReport &Report,
                      const std::map<std::string, double> &MinNs) {
  double MeanBytes = readBackMeanBytes();
  Report.derived("readback_mean_literal_bytes", MeanBytes);

  auto Fast = MinNs.find("BM_ReadBackFastParse");
  auto Exact = MinNs.find("BM_ReadBackExactReader");
  if (Fast != MinNs.end() && Fast->second > 0)
    Report.derived("parse_readback_gb_per_s", MeanBytes / Fast->second);
  if (Exact != MinNs.end() && Exact->second > 0)
    Report.derived("read_readback_gb_per_s", MeanBytes / Exact->second);
  if (Fast != MinNs.end() && Exact != MinNs.end() && Fast->second > 0)
    // The acceptance ratio: fast parser's read-back rate over the exact
    // reader's on identical shortest-form bytes (target >= 10x).
    Report.derived("reader_roundtrip_speedup", Exact->second / Fast->second);

  auto Fused = MinNs.find("BM_RoundTripFused");
  if (Fused != MinNs.end() && Fused->second > 0)
    Report.derived("roundtrip_fused_mvalues_per_s", 1e3 / Fused->second);

  // Fast-path hit rate over the corpus (counted outside the timed loops).
  engine::EngineStats Stats;
  for (const std::string &Text : readBackCorpus())
    parse::parseFloat<double>(Text, &Stats);
  uint64_t Calls = Stats.FastParseHits + Stats.FastParseFallbacks;
  if (Calls)
    Report.derived("parse_fastpath_hit_rate",
                   static_cast<double>(Stats.FastParseHits) /
                       static_cast<double>(Calls));
}

} // namespace

D4_GBENCH_MAIN_HOOK("bench_reader", readerReportHook)
