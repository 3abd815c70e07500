//===- perfbench/harness/endtoend.cpp - The untraced run ---------------------===//
//
// Part of libdragon4. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The end-to-end run of one workload, tracing off.  Times are
/// reference-scaled (see hostFactor in bench.h):
///
///   setup_s         median of SetupRepeats set-ups, each on a fresh thread
///                   so the per-thread power caches and arenas start cold
///                   (the output buffers are allocated before, untimed);
///   ns_per_value    median over timed passes of pass time / values;
///   request_p50_ns, request_p99_ns
///                   quantiles of every request's latency in the run,
///                   pooled (see LatencyHistogram);
///   peak_rss_mb     the process's peak resident set;
///   failed_ratio    failed / attempted (reported in the JSON's attempted
///                   and failed fields and as a note line; not a metric,
///                   since it is 0 on a correct build).
///
/// With a planted spin (the self-test's slowdown), a note also gives the
/// plant's size measured without host scaling: the wall time of passes
/// with the spin over passes without it, run alternately.
///
//===----------------------------------------------------------------------===//

#include "bench.h"
#include "surfaces.h"

#include "support/testhooks.h"

#include <exception>
#include <thread>

using namespace perfbench;

namespace {

constexpr int SetupRepeats = 21;
constexpr int PlantRounds = 100;

/// Median over PlantRounds of (pass with the spin) / (pass without) - 1.
double plantedSlowdown(Surface &Surf, unsigned Spin) {
  unsigned &Hook = dragon4::testhooks::DigitLoopSyntheticSpinPerDigit;
  std::vector<double> Ratios;
  for (int Round = 0; Round < PlantRounds; ++Round) {
    double Ns[2];
    for (int K = 0; K < 2; ++K) {
      const int On = (Round + K) % 2;
      Hook = On ? Spin : 0;
      const int64_t T0 = nowNs();
      Surf.pass(nullptr);
      Ns[On] = static_cast<double>(nowNs() - T0);
    }
    Ratios.push_back(Ns[1] / Ns[0]);
  }
  Hook = Spin;
  return median(std::move(Ratios)) - 1;
}

} // namespace

Result perfbench::runEndToEnd(const Options &Opts, const Inputs &In) {
  std::unique_ptr<Surface> Surf = makeSurface(In);
  LatencyHistogram Lat(Surf->requests());
  Result R;
  std::vector<double> SetupSeconds, PassNs, RawNs, Factors;
  uint64_t BadReference = 0;
  std::exception_ptr Error;

  for (int Rep = 0; Rep < SetupRepeats; ++Rep) {
    const bool Measure = Rep == SetupRepeats - 1;
    std::thread Worker([&] {
      try {
        std::vector<double> SetupFactors;
        for (int K = 0; K < 5; ++K)
          SetupFactors.push_back(hostFactor());
        const double SetupFactor = median(std::move(SetupFactors));
        int64_t T0 = nowNs();
        Surf->setUp();
        SetupSeconds.push_back(static_cast<double>(nowNs() - T0) * 1e-9 /
                               SetupFactor);
        if (Measure) {
          BadReference = Surf->validate();
          const int64_t Deadline =
              nowNs() + static_cast<int64_t>(Opts.Seconds * 1e9);
          do {
            const double Factor = hostFactor();
            int64_t Start = nowNs();
            Surf->pass(&Lat);
            RawNs.push_back(static_cast<double>(nowNs() - Start) /
                            static_cast<double>(Surf->values()));
            Lat.record(Factor);
            PassNs.push_back(RawNs.back() / Factor);
            Factors.push_back(Factor);
            R.Failed += Surf->failures();
            R.Attempted += Surf->values();
          } while (nowNs() < Deadline);
          if (Opts.PlantSpin)
            R.Notes.push_back(strprintf(
                "planted slowdown %.4f (wall, passes with and without the "
                "spin alternated)",
                plantedSlowdown(*Surf, Opts.PlantSpin)));
        }
        Surf->tearDown();
      } catch (...) {
        Error = std::current_exception();
      }
    });
    Worker.join();
    if (Error)
      std::rethrow_exception(Error);
  }

  R.add("setup_s", median(SetupSeconds), "s");
  R.add("ns_per_value", median(PassNs), "ns");
  R.add("request_p50_ns", Lat.quantile(0.50), "ns");
  R.add("request_p99_ns", Lat.quantile(0.99), "ns");
  R.add("peak_rss_mb", peakRssMiB(), "MiB");

  R.Notes.push_back(strprintf(
      "failed_ratio %.6g (%llu failed of %llu attempted; %llu reference "
      "outputs fail the oracle)",
      R.Attempted ? static_cast<double>(R.Failed) /
                        static_cast<double>(R.Attempted)
                  : 0.0,
      static_cast<unsigned long long>(R.Failed),
      static_cast<unsigned long long>(R.Attempted),
      static_cast<unsigned long long>(BadReference)));
  for (const std::string &Example : Surf->Examples)
    R.Notes.push_back("oracle failure: " + Example);
  R.Notes.push_back(strprintf(
      "request samples %llu (about %llu beyond p99), timed passes %zu",
      static_cast<unsigned long long>(Lat.samples()),
      static_cast<unsigned long long>(Lat.samples() / 100), PassNs.size()));
  R.Notes.push_back(strprintf(
      "unscaled wall ns_per_value %.4f; host factor median %.3f",
      median(RawNs), median(Factors)));
  return R;
}
