//===- bench/bench_engine_batch.cpp - Engine vs string API, batch scaling ----===//
//
// Part of libdragon4. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Measures the engine against the convenience API on uniform-random
/// doubles, and batch conversion across 1/2/4 threads:
///
///   * toShortest (std::string per value, on the thread's Scratch)
///   * engine::format (char buffer, warm Scratch, arena-backed limbs)
///   * BatchEngine<double>::convert at 1, 2, and 4 threads
///
/// The generic pipeline's other first-class batch formats ride along:
/// BatchEngine<float> over uniform-random binary32 (batch32_* metrics) and
/// BatchEngine<Binary16> over the whole 65536-encoding half space
/// (batch16_* metrics), both served by the Ryu rung.  A
/// default run emits every metric; --format=binary64|binary32|binary16
/// restricts the run to one suite (its metrics keep their names, so
/// bench_check.py compares the subset and warns about the rest).
///
/// Results go to BENCH_engine.json (or argv[1]) in the dragon4.bench.v1
/// schema that tools/bench_check.py compares against a committed baseline;
/// the engine stats block is printed to stdout for the digit-length
/// histogram and fast-path rates.
///
///   ./build/bench/bench_engine_batch [out.json] [count=200000]
///                                    [--format=binary64|binary32|binary16]
///                                    [--surface=to_chars]
///                                    [--corpus=FILE]
///                                    [--stats-json=FILE] [--trace=FILE]
///                                    [--bench-history=FILE]
///                                    [--spin-digit-loop=N]
///
/// --corpus=FILE replaces the random workloads entirely: the verify-corpus
/// records in FILE (e.g. the exemplar corpus tools/exemplar_dump writes
/// from a live service's tail captures) are decoded per format, tiled up
/// to the requested count, and batch-converted as corpus64_*/corpus32_*/
/// corpus16_* metrics -- "how fast are the inputs production found slow".
///
/// The telemetry flags enable 1-in-1 obs sampling, which costs a clock
/// read per conversion -- numbers from such a run are for exploring the
/// telemetry, not for baseline comparisons.  --spin-digit-loop injects a
/// synthetic N-iteration spin per emitted digit through the digit-loop
/// testhook: the regression the CI self-test plants to prove the
/// bench_check.py trend gate trips.
///
//===----------------------------------------------------------------------===//

#include "bench_common.h"

#include "dragon4.h"
#include "obs/export.h"
#include "support/testhooks.h"
#include "verify/corpus.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

using namespace dragon4;
namespace eng = dragon4::engine;

namespace {

/// Best-of-Reps wall time of one full pass, in ns per value.
template <typename Fn>
double bestNsPerValue(size_t Count, int Reps, Fn &&Run) {
  double Best = 0;
  for (int Rep = 0; Rep < Reps; ++Rep) {
    double Nanos = bench::timeSeconds(Run) * 1e9;
    if (Rep == 0 || Nanos < Best)
      Best = Nanos;
  }
  return Best / static_cast<double>(Count);
}

volatile size_t DceSink; // Defeats dead-code elimination.

/// Repeats \p V until the workload is \p Count values long (stable timing
/// even when the corpus holds only a handful of captures).
template <typename T>
std::vector<T> tileTo(const std::vector<T> &V, size_t Count) {
  std::vector<T> Out;
  Out.reserve(Count);
  while (Out.size() < Count) {
    size_t Take = V.size() < Count - Out.size() ? V.size()
                                                : Count - Out.size();
    Out.insert(Out.end(), V.begin(), V.begin() + Take);
  }
  return Out;
}

/// Times BatchEngine<T>::convert at 1 and 4 threads over \p Values and
/// records the two metrics as <prefix>_1t/_4t ns/value.
template <typename T>
void benchTypedBatch(const std::vector<T> &Values, const char *Label,
                     const char *Prefix, int Reps,
                     bench::BenchReport &Report) {
  const unsigned ThreadCounts[] = {1, 4};
  for (unsigned Threads : ThreadCounts) {
    eng::BatchEngine<T> Engine(Threads);
    eng::StringTable Table;
    Engine.convert(Values, Table, PrintOptions{}); // Warm-up pass.
    double Ns = bestNsPerValue(Values.size(), Reps, [&] {
      Engine.convert(Values, Table, PrintOptions{});
      DceSink = Table.length(Values.size() - 1);
    });
    std::printf("  %s %ut %8.1f ns/value\n", Label, Threads, Ns);
    char Key[64];
    std::snprintf(Key, sizeof(Key), "%s_%ut_ns_per_value", Prefix, Threads);
    Report.metric(Key, Ns);
  }
}

} // namespace

int main(int Argc, char **Argv) {
  const char *OutPath = "BENCH_engine.json";
  size_t Count = 200000;
  std::string StatsJsonPath, TracePath, CorpusPath;
  std::string Format = "all";
  std::string Surface = "all";
  bench::BenchOutput Output;
  unsigned SpinPerDigit = 0;
  int Positional = 0;
  for (int I = 1; I < Argc; ++I) {
    const char *A = Argv[I];
    if (std::strncmp(A, "--stats-json=", 13) == 0) {
      StatsJsonPath = A + 13;
    } else if (std::strncmp(A, "--trace=", 8) == 0) {
      TracePath = A + 8;
    } else if (std::strncmp(A, "--format=", 9) == 0) {
      Format = A + 9;
      if (Format != "all" && Format != "binary64" && Format != "binary32" &&
          Format != "binary16") {
        std::fprintf(stderr,
                     "bench_engine_batch: --format must be binary64, "
                     "binary32, binary16, or all\n");
        return 2;
      }
    } else if (std::strncmp(A, "--corpus=", 9) == 0) {
      CorpusPath = A + 9;
    } else if (std::strncmp(A, "--surface=", 10) == 0) {
      Surface = A + 10;
      if (Surface != "all" && Surface != "to_chars") {
        std::fprintf(stderr,
                     "bench_engine_batch: --surface must be to_chars or "
                     "all\n");
        return 2;
      }
    } else if (std::strncmp(A, "--spin-digit-loop=", 18) == 0) {
      SpinPerDigit =
          static_cast<unsigned>(std::strtoul(A + 18, nullptr, 10));
    } else if (Output.consume(A)) {
      // Shared emitter flags.
    } else if (A[0] == '-') {
      std::fprintf(stderr,
                   "bench_engine_batch: unknown flag %s\nusage: "
                   "bench_engine_batch [out.json] [count] "
                   "[--format=binary64|binary32|binary16] "
                   "[--surface=to_chars] "
                   "[--corpus=FILE] "
                   "[--stats-json=FILE] [--trace=FILE] "
                   "[--bench-json=FILE] [--bench-history=FILE] "
                   "[--spin-digit-loop=N]\n",
                   A);
      return 2;
    } else if (Positional == 0) {
      OutPath = A;
      ++Positional;
    } else {
      Count = std::strtoull(A, nullptr, 10);
      ++Positional;
    }
  }
  // --surface=to_chars is the C-ABI overhead gate: only the binary64
  // single-value pair that matters for the ratio check runs
  // (engine::format and dragon4_to_chars over identical values), so CI
  // gets a quick answer to "is the ABI wrapper still free".
  const bool ToCharsOnly = Surface == "to_chars";
  const bool RunDouble = ToCharsOnly || Format == "all" || Format == "binary64";
  const bool RunFloat =
      !ToCharsOnly && (Format == "all" || Format == "binary32");
  const bool RunHalf =
      !ToCharsOnly && (Format == "all" || Format == "binary16");
  if (Output.JsonPath.empty())
    Output.JsonPath = OutPath;
  constexpr int Reps = 5;

  if (SpinPerDigit) {
    testhooks::DigitLoopSyntheticSpinPerDigit = SpinPerDigit;
    std::printf("NOTE: synthetic digit-loop spin of %u injected -- this "
                "run should FAIL a regression gate\n",
                SpinPerDigit);
  }

  bool Telemetry = !StatsJsonPath.empty() || !TracePath.empty();
  if (Telemetry) {
    obs::config().SampleEvery = 1;
    obs::config().Trace = !TracePath.empty();
    std::printf("NOTE: telemetry sampling on -- timings include obs "
                "overhead; do not use as a baseline\n");
  }

  // Re-detected on every run, not baked into the baseline: the same
  // binary may run on a 64-core bench host one day and a 1-core CI
  // container the next.  When the host has fewer cores than the widest
  // thread count benchmarked, the multi-thread numbers measure the
  // hardware, not the engine, and the emitted thread_scaling_valid flag
  // tells bench_check.py to skip (not silently pass) those comparisons.
  unsigned Cores = std::thread::hardware_concurrency();
  const bool ThreadScalingValid = Cores >= 4;
  std::printf("bench_engine_batch: %zu uniform-random values, format %s, "
              "best of %d, %u cores\n",
              Count, Format.c_str(), Reps, Cores);
  if (!ThreadScalingValid)
    std::printf("  NOTE: %u-core host -- thread scaling is bounded by the "
                "hardware, not the engine; multi-thread metrics are "
                "flagged non-comparable\n",
                Cores);

  // dragon4.bench.v1 via the shared emitter: "metrics" holds the
  // comparable numbers (ns/value, lower is better) that
  // tools/bench_check.py diffs against a committed baseline; "context"
  // describes the run; "derived" is informational.
  bench::BenchReport Report{"bench_engine_batch"};
  Report.context("workload",
                 CorpusPath.empty() ? "randomBitsDoubles" : "corpus");
  Report.context("count", static_cast<uint64_t>(Count));
  Report.context("reps", static_cast<uint64_t>(Reps));
  Report.context("hardware_concurrency", static_cast<uint64_t>(Cores));
  Report.context("thread_scaling_valid", ThreadScalingValid);
  Report.context("obs_sampling", Telemetry);
  Report.context("format", Format.c_str());
  Report.context("surface", Surface.c_str());
  if (SpinPerDigit)
    Report.context("spin_digit_loop", static_cast<uint64_t>(SpinPerDigit));

  if (!CorpusPath.empty()) {
    // Corpus workload: the replayable inputs a sweep or the exemplar
    // pipeline captured, instead of uniform-random bits.
    std::vector<verify::CorpusRecord> Records;
    std::string Err;
    if (!verify::loadCorpus(CorpusPath, Records, &Err)) {
      std::fprintf(stderr, "bench_engine_batch: %s\n", Err.c_str());
      return 2;
    }
    Report.context("corpus", CorpusPath.c_str());
    Report.context("corpus_records", static_cast<uint64_t>(Records.size()));
    std::vector<double> V64;
    std::vector<float> V32;
    std::vector<Binary16> V16;
    size_t Skipped = 0;
    for (const verify::CorpusRecord &R : Records) {
      switch (R.Bits.Format) {
      case verify::FloatFormat::Binary64: {
        uint64_t Bits = R.Bits.Lo;
        double V;
        std::memcpy(&V, &Bits, sizeof(V));
        V64.push_back(V);
        break;
      }
      case verify::FloatFormat::Binary32: {
        uint32_t Bits = static_cast<uint32_t>(R.Bits.Lo);
        float V;
        std::memcpy(&V, &Bits, sizeof(V));
        V32.push_back(V);
        break;
      }
      case verify::FloatFormat::Binary16:
        V16.push_back(
            Binary16::fromBits(static_cast<uint16_t>(R.Bits.Lo)));
        break;
      default:
        ++Skipped; // binary128 has no first-class batch suite here.
        break;
      }
    }
    if (Skipped)
      std::printf("  NOTE: %zu corpus record(s) in formats without a "
                  "batch suite skipped\n",
                  Skipped);
    if (V64.empty() && V32.empty() && V16.empty()) {
      std::fprintf(stderr, "bench_engine_batch: corpus %s holds no "
                           "benchable records\n",
                   CorpusPath.c_str());
      return 2;
    }
    std::printf("  corpus: %zu binary64, %zu binary32, %zu binary16 "
                "record(s), tiled to %zu values each\n",
                V64.size(), V32.size(), V16.size(), Count);
    if (!V64.empty())
      benchTypedBatch(tileTo(V64, Count), "corpus64", "corpus64", Reps,
                      Report);
    if (!V32.empty())
      benchTypedBatch(tileTo(V32, Count), "corpus32", "corpus32", Reps,
                      Report);
    if (!V16.empty())
      benchTypedBatch(tileTo(V16, Count), "corpus16", "corpus16", Reps,
                      Report);
    return bench::emitBenchReport(Report, Output);
  }

  if (RunDouble) {
    std::vector<double> Values = randomBitsDoubles(Count, 42);

    double StringNs = 0;
    if (!ToCharsOnly) {
      // Baseline: the std::string convenience API.
      StringNs = bestNsPerValue(Count, Reps, [&] {
        size_t Total = 0;
        for (double V : Values)
          Total += toShortest(V).size();
        DceSink = Total;
      });
      std::printf("  toShortest        %8.1f ns/value\n", StringNs);
    }

    // The engine's buffer API through one warm Scratch, and the same
    // values through the C ABI (thread-local scratch, encoding bits at
    // the call site) -- the full wrapper: validation, enum mapping, bit
    // decoding.  bench_check.py gates their ratio at +10%, so the pair
    // is measured interleaved, rep by rep, after an untimed warm-up of
    // each: slow drift (frequency ramp, co-tenant noise) then lands on
    // both loops equally instead of flattering whichever runs later.
    eng::Scratch Scratch;
    char Buf[32];
    auto FormatLoop = [&] {
      size_t Total = 0;
      for (double V : Values)
        Total += eng::format(V, Buf, sizeof(Buf), PrintOptions{}, Scratch);
      DceSink = Total;
    };
    auto ToCharsLoop = [&] {
      size_t Total = 0;
      size_t Len = 0;
      for (double V : Values) {
        uint64_t Lo, Hi;
        FormatTraits<double>::encodingBits(V, Lo, Hi);
        dragon4_to_chars(DRAGON4_FORMAT_BINARY64, Lo, Hi, nullptr, Buf,
                         sizeof(Buf), &Len);
        Total += Len;
      }
      DceSink = Total;
    };
    FormatLoop();
    ToCharsLoop();
    // The dedicated gate mode skips every other measurement, so spend
    // the saved time on extra reps: the best-of estimate of a ~5% ratio
    // needs a tighter noise floor than the absolute metrics do.
    const int PairReps = ToCharsOnly ? 2 * Reps : Reps;
    double BufferNs = 0, ToCharsNs = 0;
    for (int Rep = 0; Rep < PairReps; ++Rep) {
      double B = bench::timeSeconds(FormatLoop) * 1e9 / Count;
      double T = bench::timeSeconds(ToCharsLoop) * 1e9 / Count;
      if (Rep == 0 || B < BufferNs)
        BufferNs = B;
      if (Rep == 0 || T < ToCharsNs)
        ToCharsNs = T;
    }
    std::printf("  engine::format    %8.1f ns/value\n", BufferNs);
    std::printf("  dragon4_to_chars  %8.1f ns/value\n", ToCharsNs);
    Report.metric("engine_format_ns_per_value", BufferNs);
    Report.metric("to_chars_ns_per_value", ToCharsNs);
    Report.derived("overhead_to_chars_vs_format", ToCharsNs / BufferNs);
    if (ToCharsOnly)
      return bench::emitBenchReport(Report, Output);

    // Batch conversion at 1/2/4 threads (persistent pools, warm
    // scratches).
    const unsigned ThreadCounts[] = {1, 2, 4};
    double BatchNs[3] = {};
    for (int I = 0; I < 3; ++I) {
      eng::BatchEngine<double> Engine(ThreadCounts[I]);
      eng::StringTable Table;
      Engine.convert(Values, Table, PrintOptions{}); // Warm-up pass.
      BatchNs[I] = bestNsPerValue(Count, Reps, [&] {
        Engine.convert(Values, Table, PrintOptions{});
        DceSink = Table.length(Count - 1);
      });
      std::printf("  batch %u thread%s  %8.1f ns/value\n", ThreadCounts[I],
                  ThreadCounts[I] == 1 ? " " : "s", BatchNs[I]);
      if (ThreadCounts[I] == 4) {
        const obs::Registry *Reg =
            obs::enabled() ? &Engine.registry() : nullptr;
        Engine.stats().print(stdout, Reg);
        if (!StatsJsonPath.empty())
          obs::writeFile(StatsJsonPath,
                         obs::renderStatsJson(
                             obs::makeSnapshot(Engine.stats(), Reg)));
        if (!TracePath.empty()) {
          std::vector<obs::SpanEvent> Spans = Engine.takeSpans();
          obs::writeFile(TracePath, obs::renderChromeTrace(Spans));
          std::printf("wrote %zu span(s) to %s\n", Spans.size(),
                      TracePath.c_str());
        }
      }
    }

    double BufferSpeedup = StringNs / BufferNs;
    double BatchScaling = BatchNs[0] / BatchNs[2];
    std::printf("  buffer vs string  %.2fx\n", BufferSpeedup);
    std::printf("  4t vs 1t batch    %.2fx\n", BatchScaling);

    Report.metric("to_shortest_ns_per_value", StringNs);
    Report.metric("batch_1t_ns_per_value", BatchNs[0]);
    Report.metric("batch_2t_ns_per_value", BatchNs[1]);
    Report.metric("batch_4t_ns_per_value", BatchNs[2]);
    Report.derived("speedup_buffer_vs_string", BufferSpeedup);
    Report.derived("scaling_4t_vs_1t", BatchScaling);
  }

  if (RunFloat) {
    // binary32 through the same generic batch pipeline: Ryu certifies
    // it too, so this is the second first-class fast format.
    std::vector<float> Values32 = randomBitsFloats(Count, 42);
    benchTypedBatch(Values32, "batch32", "batch32", Reps, Report);
  }

  if (RunHalf) {
    // binary16 over its entire encoding space (65536 values per pass,
    // repeated to the requested count): all-exact-path traffic.
    std::vector<Binary16> Values16;
    size_t HalfCount = Count < (1u << 16) ? Count : (1u << 16);
    Values16.reserve(HalfCount);
    for (uint32_t Bits = 0; Bits < HalfCount; ++Bits)
      Values16.push_back(Binary16::fromBits(static_cast<uint16_t>(Bits)));
    benchTypedBatch(Values16, "batch16", "batch16", Reps, Report);
  }

  return bench::emitBenchReport(Report, Output);
}
