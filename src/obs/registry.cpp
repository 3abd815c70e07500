//===- obs/registry.cpp - Counter/gauge/histogram registry ------------------===//
//
// Part of libdragon4. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "obs/registry.h"

#include "engine/stats.h"
#include "obs/exemplar/exemplar.h"
#include "prof/perf.h"
#include "support/checks.h"

using namespace dragon4;
using namespace dragon4::obs;

double Log2Histogram::percentile(double P) const {
  if (Count_ == 0)
    return 0;
  if (P <= 0)
    return static_cast<double>(min());
  if (P >= 100)
    return static_cast<double>(Max_);

  // Rank of the target sample, 1-based: ceil(P/100 * Count), at least 1.
  double Exact = P / 100.0 * static_cast<double>(Count_);
  uint64_t Rank = static_cast<uint64_t>(Exact);
  if (static_cast<double>(Rank) < Exact)
    ++Rank;
  if (Rank == 0)
    Rank = 1;

  uint64_t Cumulative = 0;
  for (int I = 0; I < NumBuckets; ++I) {
    if (Buckets[I] == 0)
      continue;
    if (Cumulative + Buckets[I] < Rank) {
      Cumulative += Buckets[I];
      continue;
    }
    // Interpolate within [lo, hi] by the rank's position in the bucket,
    // then clamp to the observed range (tightens the extreme buckets).
    double Lo = static_cast<double>(bucketLow(I));
    double Hi = static_cast<double>(bucketHigh(I));
    double Frac = Buckets[I] > 1
                      ? static_cast<double>(Rank - Cumulative - 1) /
                            static_cast<double>(Buckets[I] - 1)
                      : 0.0;
    double Value = Lo + Frac * (Hi - Lo);
    double MinD = static_cast<double>(min());
    double MaxD = static_cast<double>(Max_);
    if (Value < MinD)
      Value = MinD;
    if (Value > MaxD)
      Value = MaxD;
    return Value;
  }
  return static_cast<double>(Max_); // Unreachable when counts are coherent.
}

void Registry::merge(const Registry &RHS) {
  for (size_t I = 0; I < static_cast<size_t>(Counter::Count); ++I)
    Counters[I] += RHS.Counters[I];
  for (size_t I = 0; I < static_cast<size_t>(Gauge::Count); ++I)
    if (RHS.Gauges[I] > Gauges[I])
      Gauges[I] = RHS.Gauges[I];
  for (size_t I = 0; I < static_cast<size_t>(Hist::Count); ++I)
    Hists[I].merge(RHS.Hists[I]);
  for (int F = 0; F < NumFormatIds; ++F)
    for (int P = 0; P < NumPathClasses; ++P)
      PathLatency[F][P].merge(RHS.PathLatency[F][P]);
  for (size_t I = 0; I < prof::NumPhases; ++I)
    Phases[I].merge(RHS.Phases[I]);
  for (size_t P = 0; P <= prof::NumPhases; ++P)
    for (size_t C = 0; C < prof::NumPhases; ++C)
      PhaseParentTicks[P][C] += RHS.PhaseParentTicks[P][C];
}

const char *dragon4::obs::counterName(Counter C) {
  switch (C) {
  case Counter::SampledConversions:
    return "dragon4_obs_sampled_conversions_total";
  case Counter::FixupTaken:
    return "dragon4_scale_fixup_taken_total";
  case Counter::FixupSkipped:
    return "dragon4_scale_fixup_skipped_total";
  case Counter::ScaleIterative:
    return "dragon4_scale_branch_iterative_total";
  case Counter::ScaleFloatLog:
    return "dragon4_scale_branch_floatlog_total";
  case Counter::ScaleEstimate:
    return "dragon4_scale_branch_estimate_total";
  case Counter::DivModOps:
    return "dragon4_bigint_divmod_ops_total";
  case Counter::MulOps:
    return "dragon4_bigint_mul_ops_total";
  case Counter::FlightRecords:
    return "dragon4_flight_records_total";
  case Counter::Count:
    break;
  }
  unreachable("bad counter id");
}

const char *dragon4::obs::pathClassName(PathClass P) {
  switch (P) {
  case PathClass::Ryu:
    return "ryu";
  case PathClass::Dragon4:
    return "dragon4";
  case PathClass::Parse:
    return "parse";
  case PathClass::Count:
    break;
  }
  unreachable("bad path class");
}

const char *dragon4::obs::gaugeName(Gauge G) {
  switch (G) {
  case Gauge::FlightDepth:
    return "dragon4_flight_depth";
  case Gauge::Count:
    break;
  }
  unreachable("bad gauge id");
}

const char *dragon4::obs::histName(Hist H) {
  switch (H) {
  case Hist::LatencyNs:
    return "dragon4_conversion_latency_ns";
  case Hist::DigitsEmitted:
    return "dragon4_digits_emitted";
  case Hist::DivModLimbs:
    return "dragon4_bigint_divmod_limbs";
  case Hist::MulLimbs:
    return "dragon4_bigint_mul_limbs";
  case Hist::Count:
    break;
  }
  unreachable("bad histogram id");
}

SnapshotHistogram dragon4::obs::summarize(
    std::string Name, const Log2Histogram &H,
    std::vector<std::pair<std::string, std::string>> Labels) {
  SnapshotHistogram Out;
  Out.Name = std::move(Name);
  Out.Labels = std::move(Labels);
  Out.Count = H.count();
  Out.Sum = H.sum();
  Out.Min = H.min();
  Out.Max = H.max();
  Out.P50 = H.percentile(50);
  Out.P90 = H.percentile(90);
  Out.P95 = H.percentile(95);
  Out.P99 = H.percentile(99);
  for (int I = 0; I < Log2Histogram::NumBuckets; ++I)
    if (H.bucketCount(I))
      Out.Buckets.emplace_back(Log2Histogram::bucketHigh(I), H.bucketCount(I));
  return Out;
}

namespace {

/// The slow-path digit-length array is linear-bucketed and exact; flatten
/// it with exact percentiles (rank walk over unit-wide buckets).
SnapshotHistogram summarizeDigitLengths(const engine::EngineStats &Stats) {
  SnapshotHistogram Out;
  Out.Name = "dragon4_slow_digit_length";
  for (int I = 0; I < engine::EngineStats::DigitBuckets; ++I) {
    uint64_t N = Stats.SlowDigitLength[I];
    if (N == 0)
      continue;
    Out.Buckets.emplace_back(static_cast<uint64_t>(I), N);
    Out.Count += N;
    Out.Sum += N * static_cast<uint64_t>(I);
    Out.Max = static_cast<uint64_t>(I);
    if (Out.Buckets.size() == 1)
      Out.Min = static_cast<uint64_t>(I);
  }
  auto Percentile = [&](double P) -> double {
    if (Out.Count == 0)
      return 0;
    double Exact = P / 100.0 * static_cast<double>(Out.Count);
    uint64_t Rank = static_cast<uint64_t>(Exact);
    if (static_cast<double>(Rank) < Exact)
      ++Rank;
    if (Rank == 0)
      Rank = 1;
    uint64_t Cumulative = 0;
    for (const auto &[Digits, N] : Out.Buckets) {
      Cumulative += N;
      if (Cumulative >= Rank)
        return static_cast<double>(Digits);
    }
    return static_cast<double>(Out.Max);
  };
  Out.P50 = Percentile(50);
  Out.P90 = Percentile(90);
  Out.P95 = Percentile(95);
  Out.P99 = Percentile(99);
  return Out;
}

} // namespace

Snapshot dragon4::obs::makeSnapshot(const engine::EngineStats &Stats,
                                    const Registry *Reg,
                                    const exemplar::ExemplarReservoir *Ex) {
  Snapshot Snap;

  // Exact counters (maintained unconditionally by the engine).
  Snap.addCounter("dragon4_conversions_total", Stats.Conversions);
  Snap.addCounter("dragon4_specials_total", Stats.Specials);
  Snap.addCounter("dragon4_ryu_hits_total", Stats.RyuHits);
  Snap.addCounter("dragon4_slowpath_direct_total", Stats.SlowPathDirect);
  Snap.addCounter("dragon4_truncated_total", Stats.Truncated);
  // Per-format conversion counts (only formats actually seen, so the
  // double-only exports stay unchanged byte for byte).
  for (int I = 0; I < NumFormatIds; ++I)
    if (Stats.FormatConversions[I])
      Snap.addCounter(std::string("dragon4_format_") +
                          formatIdName(static_cast<FormatId>(I)) +
                          "_conversions_total",
                      Stats.FormatConversions[I]);
  Snap.addCounter("dragon4_arena_block_allocs_total", Stats.ArenaBlockAllocs);
  Snap.addCounter("dragon4_batches_total", Stats.Batches);
  Snap.addCounter("dragon4_batch_values_total", Stats.BatchValues);
  Snap.addCounter("dragon4_batch_nanos_total", Stats.BatchNanos);
  Snap.addCounter("dragon4_verify_checked_total", Stats.VerifyChecked);
  Snap.addCounter("dragon4_verify_mismatches_total", Stats.VerifyMismatches);
  Snap.addCounter("dragon4_fastparse_hits_total", Stats.FastParseHits);
  Snap.addCounter("dragon4_fastparse_fallback_exact_total",
                  Stats.FastParseFallbacks);
  Snap.addCounter("dragon4_fastparse_rejected_total", Stats.FastParseRejected);

  Snap.addGauge("dragon4_arena_high_water_bytes", Stats.ArenaHighWaterBytes);

  // Derived rates nobody should have to eyeball out of raw nanoseconds.
  if (Stats.Conversions > 0 && Stats.RyuHits > 0)
    Snap.addDerived("ryu_hit_rate",
                    static_cast<double>(Stats.RyuHits) /
                        static_cast<double>(Stats.Conversions));
  if (Stats.FastParseHits + Stats.FastParseFallbacks > 0)
    Snap.addDerived("fastparse_fallback_rate",
                    static_cast<double>(Stats.FastParseFallbacks) /
                        static_cast<double>(Stats.FastParseHits +
                                            Stats.FastParseFallbacks));
  if (Stats.BatchNanos > 0 && Stats.BatchValues > 0) {
    Snap.addDerived("batch_values_per_second",
                    static_cast<double>(Stats.BatchValues) * 1e9 /
                        static_cast<double>(Stats.BatchNanos));
    Snap.addDerived("batch_mean_ns_per_value",
                    static_cast<double>(Stats.BatchNanos) /
                        static_cast<double>(Stats.BatchValues));
  }

  Snap.Histograms.push_back(summarizeDigitLengths(Stats));

  if (Reg) {
    for (size_t I = 0; I < static_cast<size_t>(Counter::Count); ++I) {
      Counter C = static_cast<Counter>(I);
      Snap.addCounter(counterName(C), Reg->get(C));
    }
    for (size_t I = 0; I < static_cast<size_t>(Gauge::Count); ++I) {
      Gauge G = static_cast<Gauge>(I);
      Snap.addGauge(gaugeName(G), Reg->get(G));
    }
    Snap.addGauge("dragon4_obs_sample_every", config().SampleEvery);
    uint64_t Fixups = Reg->get(Counter::FixupTaken);
    uint64_t NoFixups = Reg->get(Counter::FixupSkipped);
    if (Fixups + NoFixups > 0)
      Snap.addDerived("scale_fixup_rate",
                      static_cast<double>(Fixups) /
                          static_cast<double>(Fixups + NoFixups));
    for (size_t I = 0; I < static_cast<size_t>(Hist::Count); ++I) {
      Hist H = static_cast<Hist>(I);
      Snap.Histograms.push_back(summarize(histName(H), Reg->hist(H)));
    }

    // Per-format × per-path sampled latency grid: one labeled series per
    // non-empty cell, all under the dragon4_latency_ns family (emitted
    // consecutively so the Prometheus exporter groups them).
    for (int F = 0; F < NumFormatIds; ++F)
      for (int P = 0; P < NumPathClasses; ++P) {
        const Log2Histogram &Cell =
            Reg->pathLatency(static_cast<FormatId>(F), static_cast<PathClass>(P));
        if (Cell.count() == 0)
          continue;
        Snap.Histograms.push_back(summarize(
            "dragon4_latency_ns", Cell,
            {{"format", formatIdName(static_cast<FormatId>(F))},
             {"path", pathClassName(static_cast<PathClass>(P))}}));
      }

    // Phase attribution (src/prof/): per-phase self-tick totals and
    // distributions, plus which counter backend the ticks came from, so
    // every exporter carries the cost model without knowing about it.
    Snap.addGauge("dragon4_prof_backend_perf_event",
                  prof::backendIsPerf() ? 1 : 0);
    const uint64_t ProfiledValues = Reg->phase(prof::Phase::Total).Spans;
    for (size_t I = 0; I < prof::NumPhases; ++I) {
      prof::Phase P = static_cast<prof::Phase>(I);
      const PhaseStats &S = Reg->phase(P);
      if (S.Spans == 0 && S.SelfTicksTotal == 0)
        continue;
      std::string Base = std::string("dragon4_phase_") + prof::phaseName(P);
      Snap.addCounter(Base + "_spans_total", S.Spans);
      Snap.addCounter(Base + "_self_ticks_total", S.SelfTicksTotal);
      if (S.Instructions)
        Snap.addCounter(Base + "_instructions_total", S.Instructions);
      if (S.BranchMisses)
        Snap.addCounter(Base + "_branch_misses_total", S.BranchMisses);
      if (S.CacheMisses)
        Snap.addCounter(Base + "_cache_misses_total", S.CacheMisses);
      if (ProfiledValues) {
        Snap.addDerived("phase_" + std::string(prof::phaseName(P)) +
                            "_ticks_per_value",
                        static_cast<double>(S.SelfTicksTotal) /
                            static_cast<double>(ProfiledValues));
      }
      if (S.SelfTicks.count())
        Snap.Histograms.push_back(summarize(Base + "_self_ticks",
                                            S.SelfTicks));
    }
  }

  // Exemplar annotations ride after the latency grid exists so they can
  // attach to the series they explain.
  if (Ex)
    exemplar::attachExemplars(Snap, *Ex);
  return Snap;
}
