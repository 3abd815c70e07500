//===- tools/soak.cpp - Large-scale property soak ------------------------------===//
//
// Part of libdragon4. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A deterministic large-scale property checker, for soak runs beyond what
/// belongs in ctest: millions of values through the core invariants --
/// round-trip identity, minimality, fast-path agreement, fixed/free
/// consistency -- with a seed and a count on the command line, plus a
/// worker-sharded batch stage (BatchEngine<float> and a mixed-format
/// AnyBatch) checked slot-by-slot against the string API.  Exit code
/// 0 means every property held on every value.
///
///   ./build/tools/soak [count=1000000] [seed=1]
///                      [--stats-json=FILE] [--trace=FILE] [--obs-sample=N]
///
/// Every numeric argument is a decimal integer that must make up the whole
/// token, and the count must be at least 1; anything else prints the usage
/// and exits 2.
///
/// The telemetry flags mirror verify_exhaustive: --stats-json writes the
/// dragon4.stats.v1 document, --trace writes Chrome trace_event JSON, and
/// either one turns on 1-in-N conversion sampling (N from --obs-sample,
/// default 1).
///
/// Service mode (the live telemetry demo / smoke target):
///
///   ./build/tools/soak --serve[=PORT] [--serve-duration=SECONDS]
///                      [--serve-tick-ms=N] [--slo=SPEC]... [--profile-hz=N]
///                      [--port-file=FILE]
///
/// --serve replaces the one-shot property sweep with a sustained
/// mixed-format traffic loop (batched conversions across all five formats
/// plus parse round-trips) while a TelemetryService exports /metrics,
/// /stats.json, /healthz and /profile.folded on 127.0.0.1.  Workers are
/// never paused for a scrape: each traffic iteration *publishes* a merged
/// copy of the cumulative counters under a mutex, and the service source
/// reads that copy.  PORT 0 (the default) binds an ephemeral port,
/// printed on stdout and optionally written to --port-file so scripted
/// scrapers (the CI smoke job) can find it.  The loop runs until
/// --serve-duration elapses or SIGINT/SIGTERM arrives; either way the
/// service shuts down cleanly and the exit code still reflects the
/// round-trip checks performed on the traffic.
///
//===----------------------------------------------------------------------===//

#include "dragon4.h"
#include "obs/export.h"
#include "obs/live/slo.h"
#include "svc/telemetry.h"

#include <charconv>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>

using namespace dragon4;

namespace {

struct Failure {
  size_t Count = 0;
  void note(const char *Property, double Value, const std::string &Detail) {
    ++Count;
    if (Count <= 20)
      std::printf("FAIL %s: %.17g (%s)\n", Property, Value, Detail.c_str());
  }
};

/// One value through every cheap invariant.
void checkValue(double V, Failure &Failures, engine::Scratch &Scratch) {
  // 1. Round trip of the shortest form.
  DigitString Short = shortestDigits(V);
  std::string Text = renderScientific(Short, false);
  auto Back = readFloat<double>(Text);
  if (!Back || *Back != V)
    Failures.note("round-trip", V, Text);

  // 2. Grisu baseline agreement (conservative boundaries).
  FreeFormatOptions Conservative;
  Conservative.Boundaries = BoundaryMode::Conservative;
  DigitString Exact = shortestDigits(V, Conservative);
  if (!(shortestDigitsFast(V) == Exact))
    Failures.note("grisu", V, Text);

  // 3. Gay fixed fast path agreement at a pseudo-random digit count.
  int Digits = 1 + static_cast<int>((Short.Digits.size() * 7) % 17);
  if (auto Fast = fastFixedDigits(V, Digits)) {
    if (!(*Fast == straightforwardDigits(V, Digits)))
      Failures.note("gay-fast", V, Text);
  }

  // 4. Free digits prefix a wide fixed conversion (same reader model).
  FixedFormatOptions FixedOptions;
  FixedOptions.Boundaries = BoundaryMode::NearestEven;
  DigitString Wide = fixedDigitsRelative(V, 25, FixedOptions);
  bool PrefixOk =
      Wide.K == Short.K && Wide.Digits.size() >= Short.Digits.size();
  for (size_t I = 0; PrefixOk && I < Short.Digits.size(); ++I)
    PrefixOk = Wide.Digits[I] == Short.Digits[I];
  if (!PrefixOk)
    Failures.note("fixed-prefix", V, Text);

  // 5. printf-compat agreement with the C library on one spec.
  char Spec[16];
  std::snprintf(Spec, sizeof(Spec), "%%.%dg", Digits);
  char Libc[512];
  std::snprintf(Libc, sizeof(Libc), Spec, V);
  if (formatPrintf(V, Spec) != Libc)
    Failures.note("printf-compat", V, Spec);

  // 6. Engine buffer API agreement with toShortest (and with itself: the
  // scratch is reused across every value of the soak).
  char Buf[64];
  size_t Len = engine::format(V, Buf, sizeof(Buf), PrintOptions{}, Scratch);
  if (Len > sizeof(Buf) ||
      std::string_view(Buf, Len) != std::string_view(toShortest(V)))
    Failures.note("engine", V, std::string(Buf, std::min(Len, sizeof(Buf))));
}

//===----------------------------------------------------------------------===//
// Service mode
//===----------------------------------------------------------------------===//

volatile std::sig_atomic_t ServeStop = 0;
void onStopSignal(int) { ServeStop = 1; }

struct ServeOptions {
  uint16_t Port = 0;           ///< 0 = ephemeral.
  uint64_t DurationSeconds = 0; ///< 0 = run until SIGINT/SIGTERM.
  uint64_t TickMillis = 1000;
  uint32_t ProfileHz = 0;
  std::vector<obs::live::SloRule> Slos;
  std::string PortFile;
  uint64_t Seed = 1;
  size_t ChunkSize = 4096;
};

/// The sustained traffic loop behind --serve.  Workers never stop for a
/// scrape: every iteration publishes a merged copy of the cumulative
/// counters under PublishM, and the telemetry source reads that copy.
int runServe(const ServeOptions &Opt) {
  // The service's latency histograms and SLOs come from the sampled
  // metrics; default to sample-everything unless the caller chose a rate.
  if (obs::config().SampleEvery == 0)
    obs::config().SampleEvery = 1;

  std::mutex PublishM;
  engine::EngineStats PublishedStats;
  obs::Registry PublishedReg;
  obs::exemplar::ExemplarReservoir PublishedExemplars;

  svc::TelemetryConfig Cfg;
  Cfg.Port = Opt.Port;
  Cfg.TickNanos = Opt.TickMillis * 1000000ull;
  Cfg.ProfileHz = Opt.ProfileHz;
  Cfg.Slos = Opt.Slos;
  svc::TelemetryService Service(Cfg, [&] {
    std::lock_guard<std::mutex> Lock(PublishM);
    return obs::makeSnapshot(PublishedStats,
                             obs::enabled() ? &PublishedReg : nullptr,
                             obs::enabled() ? &PublishedExemplars : nullptr);
  });
  std::string Err;
  if (!Service.start(&Err)) {
    std::fprintf(stderr, "soak: cannot start telemetry service: %s\n",
                 Err.c_str());
    return 2;
  }
  std::printf("soak: serving on 127.0.0.1:%u\n", Service.port());
  std::fflush(stdout);
  if (!Opt.PortFile.empty()) {
    if (std::FILE *F = std::fopen(Opt.PortFile.c_str(), "w")) {
      std::fprintf(F, "%u\n", Service.port());
      std::fclose(F);
    } else {
      std::fprintf(stderr, "soak: cannot write %s\n", Opt.PortFile.c_str());
      return 2;
    }
  }
  std::signal(SIGINT, onStopSignal);
  std::signal(SIGTERM, onStopSignal);

  // Traffic sources: a typed binary64 pool, a mixed five-format pool, and
  // a parse scratch for round-trips of the rendered text.
  engine::BatchEngine<double> DoublePool(2);
  engine::AnyBatch MixedPool(2);
  engine::Scratch ParseScratch;
  engine::EngineStats ParseStats; ///< Cumulative drains of ParseScratch.
  obs::Registry ParseReg;
  obs::exemplar::ExemplarReservoir ParseExemplars;
  std::vector<obs::SpanEvent> ParseSpans;
  SplitMix64 Rng(Opt.Seed);
  engine::StringTable Table, MixedTable;
  size_t Failures = 0, Iterations = 0;
  uint64_t Converted = 0;
  const uint64_t DeadlineNs =
      Opt.DurationSeconds
          ? obs::nowNanos() + Opt.DurationSeconds * 1000000000ull
          : 0;

  while (!ServeStop && (DeadlineNs == 0 || obs::nowNanos() < DeadlineNs)) {
    std::vector<double> Values = randomBitsDoubles(Opt.ChunkSize, Rng.next());
    DoublePool.convert(Values, Table, PrintOptions{});

    // Round-trip a slice of the rendered text through the scratch-routed
    // parser: live correctness plus path="parse" latency samples.
    for (size_t I = 0; I < Values.size(); I += 16) {
      auto Back = parse::parseFloat<double>(Table.view(I), ParseScratch);
      bool Same = Back.ok() && (Back.Value == Values[I] ||
                                (Back.Value != Back.Value &&
                                 Values[I] != Values[I]));
      if (!Same && ++Failures <= 20)
        std::printf("FAIL serve-round-trip: %.17g (%.*s)\n", Values[I],
                    static_cast<int>(Table.view(I).size()),
                    Table.view(I).data());
    }

    // Mixed traffic: all five formats through the type-erased pool.
    std::vector<engine::AnyValue> Mixed;
    Mixed.reserve(512);
    for (size_t I = 0; I < 512; ++I) {
      double D = Values[I % Values.size()];
      switch (I % 5) {
      case 0:
        Mixed.push_back(engine::AnyValue::of(D));
        break;
      case 1:
        Mixed.push_back(engine::AnyValue::of(static_cast<float>(D)));
        break;
      case 2:
        Mixed.push_back(engine::AnyValue::of(Binary16::fromBits(
            static_cast<uint16_t>(I * 131 + Iterations))));
        break;
      case 3:
        Mixed.push_back(engine::AnyValue::of(
            static_cast<long double>(D) / 3.0L));
        break;
      default:
        Mixed.push_back(engine::AnyValue::of(Binary128::fromDouble(D)));
        break;
      }
    }
    MixedPool.convert(Mixed, MixedTable, PrintOptions{});
    Converted += Values.size() + Mixed.size();

    // Publish.  Safe to read the pool accessors here: no convert() is in
    // flight on this (the only) traffic thread, and the service threads
    // only ever touch the published copies.
    ParseScratch.syncArenaStats();
    ParseStats.merge(ParseScratch.takeStats());
    ParseScratch.obsState().drainInto(ParseReg, ParseSpans, &ParseExemplars);
    {
      std::lock_guard<std::mutex> Lock(PublishM);
      PublishedStats = DoublePool.stats();
      PublishedStats.merge(MixedPool.stats());
      PublishedStats.merge(ParseStats);
      PublishedReg.reset();
      PublishedReg.merge(DoublePool.registry());
      PublishedReg.merge(MixedPool.registry());
      PublishedReg.merge(ParseReg);
      PublishedExemplars.reset();
      PublishedExemplars.merge(DoublePool.exemplars());
      PublishedExemplars.merge(MixedPool.exemplars());
      PublishedExemplars.merge(ParseExemplars);
    }
    ++Iterations;
    // Pace the loop: a telemetry soak demonstrates liveness, it does not
    // need to monopolise the host.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }

  Service.stop();
  std::printf("soak: serve done -- %zu iterations, %llu values, %llu "
              "scrapes, %zu failures\n",
              Iterations, static_cast<unsigned long long>(Converted),
              static_cast<unsigned long long>(Service.scrapesServed()),
              Failures);
  {
    std::lock_guard<std::mutex> Lock(PublishM);
    PublishedStats.print(stdout, obs::enabled() ? &PublishedReg : nullptr);
  }
  return Failures == 0 ? 0 : 1;
}

/// Parses all of \p Text as a decimal integer that fits \p Out.
template <typename T> bool parseNumber(std::string_view Text, T &Out) {
  const char *End = Text.data() + Text.size();
  auto [Ptr, Ec] = std::from_chars(Text.data(), End, Out);
  return Ec == std::errc() && Ptr == End;
}

int usage(const char *Problem, const char *Arg) {
  std::fprintf(stderr,
               "soak: %s %s\nusage: soak [count] [seed] "
               "[--stats-json=FILE] [--trace=FILE] [--obs-sample=N]\n"
               "       soak --serve[=PORT] [--serve-duration=SECONDS] "
               "[--serve-tick-ms=N]\n"
               "            [--slo=SPEC]... [--profile-hz=N] "
               "[--port-file=FILE]\n",
               Problem, Arg);
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  size_t Count = 1000000;
  uint64_t Seed = 1;
  std::string StatsJsonPath, TracePath;
  uint32_t ObsSample = 0;
  bool Serve = false;
  ServeOptions ServeOpt;
  int Positional = 0;
  for (int I = 1; I < Argc; ++I) {
    const char *A = Argv[I];
    if (std::strncmp(A, "--stats-json=", 13) == 0) {
      StatsJsonPath = A + 13;
    } else if (std::strncmp(A, "--trace=", 8) == 0) {
      TracePath = A + 8;
    } else if (std::strncmp(A, "--obs-sample=", 13) == 0) {
      if (!parseNumber(A + 13, ObsSample))
        return usage("bad number in", A);
    } else if (std::strcmp(A, "--serve") == 0) {
      Serve = true;
    } else if (std::strncmp(A, "--serve=", 8) == 0) {
      Serve = true;
      if (!parseNumber(A + 8, ServeOpt.Port))
        return usage("bad port in", A);
    } else if (std::strncmp(A, "--serve-duration=", 17) == 0) {
      if (!parseNumber(A + 17, ServeOpt.DurationSeconds))
        return usage("bad number in", A);
    } else if (std::strncmp(A, "--serve-tick-ms=", 16) == 0) {
      if (!parseNumber(A + 16, ServeOpt.TickMillis))
        return usage("bad number in", A);
      if (ServeOpt.TickMillis == 0)
        ServeOpt.TickMillis = 1;
    } else if (std::strncmp(A, "--slo=", 6) == 0) {
      std::string SloErr;
      auto Rule = obs::live::SloSet::parse(A + 6, &SloErr);
      if (!Rule) {
        std::fprintf(stderr, "soak: bad --slo spec: %s\n", SloErr.c_str());
        return 2;
      }
      ServeOpt.Slos.push_back(*Rule);
    } else if (std::strncmp(A, "--profile-hz=", 13) == 0) {
      if (!parseNumber(A + 13, ServeOpt.ProfileHz))
        return usage("bad number in", A);
    } else if (std::strncmp(A, "--port-file=", 12) == 0) {
      ServeOpt.PortFile = A + 12;
    } else if (A[0] == '-') {
      return usage("unknown flag", A);
    } else if (Positional == 0) {
      if (!parseNumber(A, Count) || Count == 0)
        return usage("count must be a whole number >= 1, got", A);
      ++Positional;
    } else if (Positional == 1) {
      if (!parseNumber(A, Seed))
        return usage("seed must be a whole number, got", A);
      ++Positional;
    } else {
      return usage("unexpected argument", A);
    }
  }

  // Telemetry implies sampling; set the config before the Scratch exists
  // (its flight-recorder capacity is latched at construction).
  if (ObsSample)
    obs::config().SampleEvery = ObsSample;
  else if (!StatsJsonPath.empty() || !TracePath.empty())
    obs::config().SampleEvery = 1;
  obs::config().Trace = !TracePath.empty();

  if (Serve) {
    ServeOpt.Seed = Seed;
    return runServe(ServeOpt);
  }

  std::printf("soak: %zu values, seed %llu\n", Count,
              static_cast<unsigned long long>(Seed));
  Failure Failures;
  SplitMix64 Rng(Seed);
  engine::Scratch Scratch;
  size_t Done = 0;
  auto Run = [&](const std::vector<double> &Values) {
    for (double V : Values) {
      checkValue(V, Failures, Scratch);
      if (++Done % 100000 == 0)
        std::printf("  ... %zu checked, %zu failures\n", Done,
                    Failures.Count);
    }
  };

  // A third each: uniform normals, subnormals, and raw-bit finites.
  Run(randomNormalDoubles(Count / 3, Rng.next()));
  Run(randomSubnormalDoubles(Count / 3, Rng.next()));
  Run(randomBitsDoubles(Count - 2 * (Count / 3), Rng.next()));

  // 7. Generic batch stage: the worker-sharded engine over a non-double
  // format (binary32, typed) and a mixed-format AnyBatch, every slot
  // checked against the string API.  This is the soak's coverage of the
  // BatchPool sharding for formats beyond binary64.
  {
    size_t BatchCount = Count / 4 ? Count / 4 : 1;
    std::vector<float> Floats = randomBitsFloats(BatchCount, Rng.next());
    engine::BatchEngine<float> FloatEngine(4);
    engine::StringTable Table;
    FloatEngine.convert(Floats, Table, PrintOptions{});
    for (size_t I = 0; I < Floats.size(); ++I) {
      if (std::string(Table.view(I)) != toShortest(Floats[I]))
        Failures.note("batch32", Floats[I], std::string(Table.view(I)));
      ++Done;
    }

    std::vector<engine::AnyValue> Mixed;
    std::vector<std::string> Expected;
    size_t MixedCount = BatchCount < 4000 ? BatchCount : 4000;
    std::vector<double> Doubles = randomBitsDoubles(MixedCount, Rng.next());
    for (size_t I = 0; I < MixedCount; ++I) {
      switch (I % 5) {
      case 0:
        Mixed.push_back(engine::AnyValue::of(Doubles[I]));
        Expected.push_back(toShortest(Doubles[I]));
        break;
      case 1:
        Mixed.push_back(engine::AnyValue::of(Floats[I]));
        Expected.push_back(toShortest(Floats[I]));
        break;
      case 2: {
        Binary16 H = Binary16::fromBits(static_cast<uint16_t>(I * 131));
        Mixed.push_back(engine::AnyValue::of(H));
        Expected.push_back(toShortest(H));
        break;
      }
      case 3: {
        long double E = static_cast<long double>(Doubles[I]) / 3.0L;
        Mixed.push_back(engine::AnyValue::of(E));
        Expected.push_back(toShortest(E));
        break;
      }
      default: {
        Binary128 Q = Binary128::fromDouble(Doubles[I]);
        Mixed.push_back(engine::AnyValue::of(Q));
        Expected.push_back(toShortest(Q));
        break;
      }
      }
    }
    engine::AnyBatch Any(4);
    engine::StringTable MixedTable;
    Any.convert(Mixed, MixedTable, PrintOptions{});
    for (size_t I = 0; I < Mixed.size(); ++I) {
      if (std::string(MixedTable.view(I)) != Expected[I])
        Failures.note("any-batch", static_cast<double>(I),
                      std::string(MixedTable.view(I)));
      ++Done;
    }

    std::printf("soak: batch stage -- binary32 sharded stats:\n");
    FloatEngine.stats().print(stdout, nullptr);
    std::printf("soak: batch stage -- mixed-format sharded stats:\n");
    Any.stats().print(stdout, nullptr);
  }

  std::printf("soak: %zu values checked, %zu failures\n", Done,
              Failures.Count);
  Scratch.syncArenaStats();

  obs::Registry Reg;
  std::vector<obs::SpanEvent> Spans;
  Scratch.obsState().drainInto(Reg, Spans);
  const obs::Registry *RegPtr = obs::enabled() ? &Reg : nullptr;
  Scratch.stats().print(stdout, RegPtr);
  if (!StatsJsonPath.empty())
    obs::writeFile(StatsJsonPath,
                   obs::renderStatsJson(obs::makeSnapshot(Scratch.stats(),
                                                          RegPtr)));
  if (!TracePath.empty()) {
    obs::writeFile(TracePath, obs::renderChromeTrace(Spans));
    std::fprintf(stderr, "soak: wrote %zu span(s) to %s\n", Spans.size(),
                 TracePath.c_str());
  }
  return Failures.Count == 0 ? 0 : 1;
}
