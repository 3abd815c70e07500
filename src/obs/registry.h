//===- obs/registry.h - Counter/gauge/histogram registry ---------*- C++ -*-===//
//
// Part of libdragon4. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The metric registry: named counters, gauges, and log2-bucketed
/// histograms with percentile summaries.  Like EngineStats, a Registry is
/// plain data with no atomics -- each engine::Scratch owns one shard and
/// the batch layer merges shards after the workers have joined, so merge
/// order varies with scheduling but totals never do (merge is commutative
/// and associative; the tests prove it).
///
/// Metric identity is a compile-time enum rather than a string map: hot
/// paths record by array index, and the name table is only consulted by
/// the exporters.  The exported names (dragon4_..._total etc.) are the
/// stable machine-readable surface; see docs/observability.md for the
/// catalog.
///
/// Snapshot is the read side: a merged view over the exact EngineStats
/// counters and a Registry's sampled metrics, with every metric carrying
/// its exported name.  All exporters and the human printer consume
/// Snapshots, so text output and machine output can never disagree.
///
//===----------------------------------------------------------------------===//

#ifndef DRAGON4_OBS_REGISTRY_H
#define DRAGON4_OBS_REGISTRY_H

#include "fp/format_id.h"
#include "obs/obs.h"
#include "prof/phases.h"

#include <bit>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace dragon4::engine {
struct EngineStats;
}

namespace dragon4::obs::exemplar {
class ExemplarReservoir;
}

namespace dragon4::obs {

/// Power-of-two-bucketed histogram of uint64 samples.  Bucket 0 holds the
/// value 0; bucket i (1 <= i <= 64) holds [2^(i-1), 2^i).  Also tracks
/// exact count, sum, min, and max, so means are exact and percentile
/// estimates are clamped to the observed range.
class Log2Histogram {
public:
  static constexpr int NumBuckets = 65;

  void record(uint64_t Value) {
    ++Buckets[bucketIndex(Value)];
    ++Count_;
    Sum_ += Value;
    if (Value < Min_ || Count_ == 1)
      Min_ = Value;
    if (Value > Max_)
      Max_ = Value;
  }

  void merge(const Log2Histogram &RHS) {
    if (RHS.Count_ == 0)
      return;
    for (int I = 0; I < NumBuckets; ++I)
      Buckets[I] += RHS.Buckets[I];
    if (Count_ == 0 || RHS.Min_ < Min_)
      Min_ = RHS.Min_;
    if (RHS.Max_ > Max_)
      Max_ = RHS.Max_;
    Count_ += RHS.Count_;
    Sum_ += RHS.Sum_;
  }

  void reset() { *this = Log2Histogram(); }

  uint64_t count() const { return Count_; }
  uint64_t sum() const { return Sum_; }
  uint64_t min() const { return Count_ ? Min_ : 0; }
  uint64_t max() const { return Max_; }
  uint64_t bucketCount(int Index) const { return Buckets[Index]; }

  /// Bucket of \p Value: 0 for 0, otherwise bit_width (1..64).
  static int bucketIndex(uint64_t Value) {
    return Value == 0 ? 0 : std::bit_width(Value);
  }

  /// Inclusive lower bound of bucket \p Index.
  static uint64_t bucketLow(int Index) {
    return Index <= 1 ? 0 : uint64_t(1) << (Index - 1);
  }

  /// Inclusive upper bound of bucket \p Index.
  static uint64_t bucketHigh(int Index) {
    if (Index == 0)
      return 0;
    if (Index >= 64)
      return UINT64_MAX;
    return (uint64_t(1) << Index) - 1;
  }

  /// Estimated value at percentile \p P (0..100): walks the cumulative
  /// bucket counts to the bucket containing rank ceil(P/100 * Count) and
  /// interpolates linearly inside it, clamped to the observed min/max.
  /// Exact whenever a bucket holds a single distinct value.
  double percentile(double P) const;

private:
  uint64_t Buckets[NumBuckets] = {};
  uint64_t Count_ = 0;
  uint64_t Sum_ = 0;
  uint64_t Min_ = 0;
  uint64_t Max_ = 0;
};

/// Sampled counters.  Every enumerator has an exported name in
/// counterName(); keep the two in sync.
enum class Counter : uint8_t {
  SampledConversions,  ///< Conversions that won the 1-in-N sampling draw.
  FixupTaken,          ///< Scale estimate was k-1; fixup bumped it.
  FixupSkipped,        ///< Scale estimate was exactly k.
  ScaleIterative,      ///< scale() ran the Figure 1 iterative search.
  ScaleFloatLog,       ///< scale() ran the Figure 2 float-log estimate.
  ScaleEstimate,       ///< scale() ran the Figure 3 two-flop estimator.
  DivModOps,           ///< BigInt divMod calls observed under tracing.
  MulOps,              ///< BigInt full multiplications observed.
  FlightRecords,       ///< Conversion records pushed into flight recorders.
  Count
};

/// Sampled gauges (merge takes the max).
enum class Gauge : uint8_t {
  FlightDepth, ///< Deepest flight-recorder occupancy observed.
  Count
};

/// Sampled histograms.
enum class Hist : uint8_t {
  LatencyNs,     ///< Wall-clock ns of sampled conversions.
  DigitsEmitted, ///< Significant digits emitted per traced conversion.
  DivModLimbs,   ///< Numerator limb count of each traced BigInt divMod.
  MulLimbs,      ///< Larger operand limb count of each traced BigInt mul.
  Count
};

const char *counterName(Counter C);
const char *gaugeName(Gauge G);
const char *histName(Hist H);

/// Latency attribution classes for the per-format × per-path latency grid.
/// Coarser than obs::Path on purpose: these are the three *cost tiers* a
/// value can land in (the SLO surface), not the full trace taxonomy --
/// Ryu and the exact BigInt loop are the two print rungs, and parse is
/// the read direction.
enum class PathClass : uint8_t {
  Ryu,     ///< Ryu rung produced the digits.
  Dragon4, ///< Exact BigInt loop ran (shortest or fixed-format).
  Parse,   ///< Text -> float (Eisel-Lemire reader, incl. exact fallback).
  Count
};

inline constexpr int NumPathClasses = static_cast<int>(PathClass::Count);

/// Exported label value for \p P ("ryu", "dragon4", "parse").
const char *pathClassName(PathClass P);

/// Per-phase cost attribution, fed by the prof/ PhaseCollector.  "Ticks"
/// are whatever the active counter backend measures: CPU cycles under
/// perf_event, nanoseconds under the steady-clock fallback (the backend is
/// stamped into every export alongside these).  Self ticks exclude nested
/// child spans; gross ticks include them, so for the enclosing Total phase
/// gross - self is exactly the attributed (covered) cost.
struct PhaseStats {
  uint64_t Spans = 0;            ///< Completed spans of this phase.
  uint64_t SelfTicksTotal = 0;   ///< Sum of per-span self ticks.
  uint64_t GrossTicksTotal = 0;  ///< Sum of per-span gross ticks.
  uint64_t Instructions = 0;     ///< Self-attributed instructions retired.
  uint64_t BranchMisses = 0;     ///< Self-attributed branch misses.
  uint64_t CacheMisses = 0;      ///< Self-attributed cache misses.
  Log2Histogram SelfTicks;       ///< Distribution of per-span self ticks.

  void merge(const PhaseStats &RHS) {
    Spans += RHS.Spans;
    SelfTicksTotal += RHS.SelfTicksTotal;
    GrossTicksTotal += RHS.GrossTicksTotal;
    Instructions += RHS.Instructions;
    BranchMisses += RHS.BranchMisses;
    CacheMisses += RHS.CacheMisses;
    SelfTicks.merge(RHS.SelfTicks);
  }
};

/// One shard of sampled metrics.  Plain data; single-writer.
class Registry {
public:
  void add(Counter C, uint64_t Delta = 1) {
    Counters[static_cast<size_t>(C)] += Delta;
  }
  uint64_t get(Counter C) const { return Counters[static_cast<size_t>(C)]; }

  void setMax(Gauge G, uint64_t Value) {
    uint64_t &Slot = Gauges[static_cast<size_t>(G)];
    if (Value > Slot)
      Slot = Value;
  }
  uint64_t get(Gauge G) const { return Gauges[static_cast<size_t>(G)]; }

  void record(Hist H, uint64_t Value) {
    Hists[static_cast<size_t>(H)].record(Value);
  }
  const Log2Histogram &hist(Hist H) const {
    return Hists[static_cast<size_t>(H)];
  }

  /// Records one sampled conversion's wall-clock ns into the per-format ×
  /// per-path latency grid (the dragon4_latency_ns{format=,path=} family).
  void recordPathLatency(FormatId Fmt, PathClass P, uint64_t Nanos) {
    PathLatency[static_cast<size_t>(Fmt)][static_cast<size_t>(P)].record(Nanos);
  }
  const Log2Histogram &pathLatency(FormatId Fmt, PathClass P) const {
    return PathLatency[static_cast<size_t>(Fmt)][static_cast<size_t>(P)];
  }

  /// Archives one completed phase span: self/gross tick totals, the
  /// self-tick histogram, and the parent-attribution cell that folded-stack
  /// output is reconstructed from.  \p ParentIndex is the enclosing phase
  /// (as size_t) or prof::PhaseRootIndex for a root span.
  void recordPhaseSpan(prof::Phase P, size_t ParentIndex, uint64_t SelfTicks,
                       uint64_t GrossTicks, uint64_t Instructions,
                       uint64_t BranchMisses, uint64_t CacheMisses) {
    PhaseStats &S = Phases[static_cast<size_t>(P)];
    ++S.Spans;
    S.SelfTicksTotal += SelfTicks;
    S.GrossTicksTotal += GrossTicks;
    S.Instructions += Instructions;
    S.BranchMisses += BranchMisses;
    S.CacheMisses += CacheMisses;
    S.SelfTicks.record(SelfTicks);
    PhaseParentTicks[ParentIndex][static_cast<size_t>(P)] += SelfTicks;
  }

  /// Charges \p Ticks of counter-read cost to the Overhead pseudo-phase
  /// under \p ParentIndex (no per-event histogram: overhead is a total).
  void addPhaseOverhead(size_t ParentIndex, uint64_t Ticks) {
    PhaseStats &S = Phases[static_cast<size_t>(prof::Phase::Overhead)];
    S.SelfTicksTotal += Ticks;
    S.GrossTicksTotal += Ticks;
    PhaseParentTicks[ParentIndex]
                    [static_cast<size_t>(prof::Phase::Overhead)] += Ticks;
  }

  const PhaseStats &phase(prof::Phase P) const {
    return Phases[static_cast<size_t>(P)];
  }

  /// Self ticks of phase \p Child recorded while directly nested under
  /// \p ParentIndex (a phase index, or prof::PhaseRootIndex).
  uint64_t phaseParentTicks(size_t ParentIndex, prof::Phase Child) const {
    return PhaseParentTicks[ParentIndex][static_cast<size_t>(Child)];
  }

  /// Adds \p RHS into this shard: counters and histogram buckets add,
  /// gauges take the max.  Commutative and associative.
  void merge(const Registry &RHS);

  void reset() { *this = Registry(); }

private:
  uint64_t Counters[static_cast<size_t>(Counter::Count)] = {};
  uint64_t Gauges[static_cast<size_t>(Gauge::Count)] = {};
  Log2Histogram Hists[static_cast<size_t>(Hist::Count)];
  Log2Histogram PathLatency[NumFormatIds][NumPathClasses];
  PhaseStats Phases[prof::NumPhases];
  /// [parent][child] self ticks; row prof::PhaseRootIndex is "no parent".
  uint64_t PhaseParentTicks[prof::NumPhases + 1][prof::NumPhases] = {};
};

/// A histogram flattened for export: explicit inclusive upper bounds per
/// non-empty bucket plus a precomputed summary.
struct SnapshotHistogram {
  std::string Name;
  /// (key, value) label pairs, raw (unescaped) values; same Name +
  /// different Labels = one Prometheus family with several series.
  std::vector<std::pair<std::string, std::string>> Labels;
  uint64_t Count = 0;
  uint64_t Sum = 0;
  uint64_t Min = 0;
  uint64_t Max = 0;
  double P50 = 0;
  double P90 = 0;
  double P95 = 0;
  double P99 = 0;
  /// (inclusive upper bound, non-cumulative count), ascending, non-empty
  /// buckets only.
  std::vector<std::pair<uint64_t, uint64_t>> Buckets;

  /// OpenMetrics exemplar for this series (at most one; the Prometheus
  /// exporter attaches it to the +Inf bucket line).  Omitted from every
  /// rendering when HasExemplar is false.
  bool HasExemplar = false;
  std::vector<std::pair<std::string, std::string>> ExemplarLabels;
  double ExemplarValue = 0;
  double ExemplarTimestamp = 0; ///< Seconds on the monotonic obs clock.
};

/// One captured worst-case input, flattened to strings for export (see
/// obs/exemplar/exemplar.h for the live reservoir form).
struct SnapshotExemplar {
  std::string Kind;   ///< "worst" (per-cell max) or "recent" (tail ring).
  std::string Format; ///< formatIdName value.
  std::string Path;   ///< pathClassName value, or "-".
  std::string Bits;   ///< Hex encoding, replayable.
  std::string Options; ///< Compact print options ("-" for parse captures).
  uint64_t LatencyNanos = 0;
  uint32_t DigitsEmitted = 0;
  int32_t FinalK = 0;
  uint64_t TimestampNanos = 0;
};

/// The merged, named view every exporter consumes.
struct Snapshot {
  std::vector<std::pair<std::string, uint64_t>> Counters;
  std::vector<std::pair<std::string, uint64_t>> Gauges;
  std::vector<std::pair<std::string, double>> Derived; ///< Ratios, rates.
  std::vector<SnapshotHistogram> Histograms;
  std::vector<SnapshotExemplar> Exemplars; ///< /exemplars.json payload.

  void addCounter(std::string Name, uint64_t Value) {
    Counters.emplace_back(std::move(Name), Value);
  }
  void addGauge(std::string Name, uint64_t Value) {
    Gauges.emplace_back(std::move(Name), Value);
  }
  void addDerived(std::string Name, double Value) {
    Derived.emplace_back(std::move(Name), Value);
  }
};

/// Flattens \p H under \p Name (and optional \p Labels) with percentile
/// summaries.
SnapshotHistogram
summarize(std::string Name, const Log2Histogram &H,
          std::vector<std::pair<std::string, std::string>> Labels = {});

/// Builds the full named view: the exact EngineStats counters (including
/// the slow-path digit-length histogram, with exact percentiles) plus, when
/// \p Reg is non-null, the sampled registry metrics, plus, when \p Ex is
/// non-null, the exemplar annotations and workload-characterization
/// families (obs/exemplar/).  This is the single source every exporter and
/// EngineStats::print renders from.
Snapshot makeSnapshot(const engine::EngineStats &Stats,
                      const Registry *Reg = nullptr,
                      const exemplar::ExemplarReservoir *Ex = nullptr);

} // namespace dragon4::obs

#endif // DRAGON4_OBS_REGISTRY_H
