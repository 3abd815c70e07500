//===- perfbench/harness/main.cpp - Benchmark harness entry point ------------===//
//
// Part of libdragon4. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// perfbench_harness --workload NAME --seed N --seconds S --trace 0|1
///                   [--trace-out FILE] [--dump-inputs FILE]
///                   [--plant-wrong-digit] [--plant-spin N]
///
/// Prints human-readable note lines, then as its last line one JSON object
/// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
/// with --trace 0, the per-layer ledger with --trace 1.  --dump-inputs
/// writes the generated inputs' byte image and exits.  The --plant-*
/// flags switch on the library's test hooks for the self-test: a flipped
/// Ryu bound comparison (wrong digits) or a per-digit spin (a slowdown).
///
//===----------------------------------------------------------------------===//

#include "bench.h"

#include "obs/obs.h"
#include "support/testhooks.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <string>

using namespace perfbench;

namespace {

int usage(const char *Why) {
  std::fprintf(stderr,
               "perfbench_harness: %s\n"
               "usage: perfbench_harness --workload print_shortest|"
               "print_fixed|parse_roundtrip --seed N "
               "--seconds S --trace 0|1 [--trace-out FILE] "
               "[--dump-inputs FILE] [--plant-wrong-digit] "
               "[--plant-spin N]\n",
               Why);
  return 2;
}

void printJson(const Result &R) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              R.Failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(R.Attempted),
              static_cast<unsigned long long>(R.Failed));
  for (size_t I = 0; I < R.Metrics.size(); ++I) {
    const Metric &M = R.Metrics[I];
    double Value = std::isfinite(M.Value) ? M.Value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                I ? ", " : "", M.Name.c_str(), Value, M.Unit.c_str());
  }
  std::printf("}}\n");
}

} // namespace

int main(int Argc, char **Argv) {
  Options Opts;
  std::string DumpInputs;
  bool HaveWorkload = false, HaveSeed = false, HaveSeconds = false,
       HaveTrace = false;
  for (int I = 1; I < Argc; ++I) {
    std::string Flag = Argv[I];
    auto Value = [&]() -> const char * {
      return I + 1 < Argc ? Argv[++I] : nullptr;
    };
    const char *V = nullptr;
    if (Flag == "--plant-wrong-digit") {
      Opts.PlantWrongDigit = true;
      continue;
    }
    if (!(V = Value()))
      return usage(("missing value for " + Flag).c_str());
    char *End = nullptr;
    if (Flag == "--workload") {
      Opts.Workload = V;
      HaveWorkload = isWorkload(V);
    } else if (Flag == "--seed") {
      Opts.Seed = std::strtoull(V, &End, 10);
      HaveSeed = End && *End == '\0' && End != V;
    } else if (Flag == "--seconds") {
      Opts.Seconds = std::strtod(V, &End);
      HaveSeconds = End && *End == '\0' && Opts.Seconds > 0;
    } else if (Flag == "--trace") {
      HaveTrace = std::strcmp(V, "0") == 0 || std::strcmp(V, "1") == 0;
      Opts.Trace = std::strcmp(V, "1") == 0;
    } else if (Flag == "--trace-out") {
      Opts.TraceOut = V;
    } else if (Flag == "--dump-inputs") {
      DumpInputs = V;
    } else if (Flag == "--plant-spin") {
      Opts.PlantSpin = static_cast<unsigned>(std::strtoul(V, &End, 10));
    } else {
      return usage(("unknown flag " + Flag).c_str());
    }
  }
  if (!HaveWorkload || !HaveSeed)
    return usage("--workload and --seed are required");

  try {
    Inputs In = makeInputs(Opts.Workload, Opts.Seed);
    if (!DumpInputs.empty()) {
      std::string Bytes = In.serialize();
      std::ofstream Out(DumpInputs, std::ios::binary);
      Out.write(Bytes.data(), static_cast<std::streamsize>(Bytes.size()));
      return Out ? 0 : 1;
    }
    if (!HaveSeconds || !HaveTrace)
      return usage("--seconds and --trace are required");

    selectHostReference(Opts.Workload == "print_fixed"
                            ? HostReference::Bignum
                            : HostReference::Conversions);
    dragon4::obs::config().SampleEvery = 0;
    dragon4::testhooks::FlipRyuBoundComparison = Opts.PlantWrongDigit;
    dragon4::testhooks::DigitLoopSyntheticSpinPerDigit = Opts.PlantSpin;

    Result R = Opts.Trace ? runLedger(Opts, In) : runEndToEnd(Opts, In);
    std::printf("workload %s seed %llu trace %d\n", Opts.Workload.c_str(),
                static_cast<unsigned long long>(Opts.Seed),
                Opts.Trace ? 1 : 0);
    for (const std::string &Note : R.Notes)
      std::printf("  %s\n", Note.c_str());
    for (const Metric &M : R.Metrics)
      std::printf("  %-36s %14.6g %s\n", M.Name.c_str(), M.Value,
                  M.Unit.c_str());
    printJson(R);
    return 0;
  } catch (const std::exception &E) {
    std::fprintf(stderr, "perfbench_harness: %s\n", E.what());
    return 1;
  }
}
