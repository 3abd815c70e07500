//===- obs/trace.h - Structured trace points and flight recorder -*- C++ -*-===//
//
// Part of libdragon4. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Structured tracing of one conversion.  While a conversion is sampled, a
/// thread-local ConversionTrace pointer is installed (ActiveTraceScope) and
/// the core algorithm's trace points write into it:
///
///   * scaling: which scale branch ran, the estimator's value, whether the
///     fixup fired, and the final k -- the paper's Section 5 claim
///     (estimate is always k or k-1) as observable data;
///   * the digit loop: digits emitted, increment applied;
///   * BigInt: divMod/mul call counts and operand limb sizes (the inner-
///     loop cost drivers of Tables 2 and 3);
///
/// The completed trace becomes a ConversionRecord in the owning thread's
/// FlightRecorder -- a fixed-size ring whose last-N records are dumped when
/// something goes wrong (verify oracle mismatch, truncation), so every
/// failure report carries the recent conversion history that led up to it.
///
/// Everything here is per-thread and allocation-free after construction;
/// with DRAGON4_OBS off, the trace points compile away entirely.
///
//===----------------------------------------------------------------------===//

#ifndef DRAGON4_OBS_TRACE_H
#define DRAGON4_OBS_TRACE_H

#include "obs/exemplar/exemplar.h"
#include "obs/registry.h"
#include "prof/phase.h"

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace dragon4::obs {

/// Which conversion path a record describes.
enum class Path : uint8_t {
  Unknown,      ///< Trace never classified (e.g. captured outside engine).
  Ryu,          ///< Ryu produced the result (the first rung).
  SlowDirect,   ///< Ryu ineligible (options or format); exact loop ran.
  Special,      ///< NaN / infinity / zero rendering.
  Fixed,        ///< Fixed-format conversion.
  VerifyCheck,  ///< A verification-harness oracle bundle over one encoding.
};

/// Which scaling strategy a traced conversion ran.
enum class ScaleBranch : uint8_t { None, Iterative, FloatLog, Estimate };

const char *pathName(Path P);
const char *scaleBranchName(ScaleBranch B);

/// Latency class a record of path \p P is charged to in the per-format ×
/// per-path grid, or PathClass::Count when it has none (specials, verify
/// oracle bundles, unclassified captures).
PathClass pathClassFor(Path P);

/// Scratchpad one traced conversion writes into.  Reset before each use;
/// the fields mirror ConversionRecord (which is the archived form).
struct ConversionTrace {
  /// Optional live sink for per-op histograms (operand limb sizes); the
  /// engine points this at its Scratch's registry shard.
  Registry *Reg = nullptr;

  int32_t EstimatedK = 0; ///< Estimator output (valid when branch != None).
  int32_t FinalK = 0;     ///< Scale factor the conversion settled on.
  ScaleBranch Branch = ScaleBranch::None;
  int8_t FixupTaken = -1; ///< 1 fixup fired, 0 estimate exact, -1 n/a.
  bool Incremented = false; ///< Digit loop bumped its final digit.
  uint8_t OptionsBase = 0;  ///< PrintOptions::Base (0 = none recorded).
  uint8_t OptionsMode = 0;  ///< Packed boundary/tie knobs (exemplar.h).
  uint32_t DigitsEmitted = 0;
  uint32_t DivModOps = 0;
  uint32_t MulOps = 0;
  uint32_t MaxDivModLimbs = 0;
  uint32_t MaxMulLimbs = 0;

  void reset() {
    Registry *Keep = Reg;
    *this = ConversionTrace();
    Reg = Keep;
  }

  /// BigInt divMod hook: \p NumLimbs is the numerator's limb count.
  void noteDivMod(uint32_t NumLimbs) {
    ++DivModOps;
    if (NumLimbs > MaxDivModLimbs)
      MaxDivModLimbs = NumLimbs;
    if (Reg)
      Reg->record(Hist::DivModLimbs, NumLimbs);
  }

  /// BigInt multiplication hook: \p Limbs is the larger operand's count.
  void noteMul(uint32_t Limbs) {
    ++MulOps;
    if (Limbs > MaxMulLimbs)
      MaxMulLimbs = Limbs;
    if (Reg)
      Reg->record(Hist::MulLimbs, Limbs);
  }

  /// Options hook: the engine stamps the active PrintOptions so exemplar
  /// captures can name the exact configuration that was slow.
  void noteOptions(unsigned Base, uint8_t Mode) {
    OptionsBase = static_cast<uint8_t>(Base);
    OptionsMode = Mode;
  }

  /// Scaling hook, one call per conversion from whichever branch ran.
  void noteScale(ScaleBranch B, int32_t Estimated, int32_t Final,
                 int8_t Fixup) {
    Branch = B;
    EstimatedK = Estimated;
    FinalK = Final;
    FixupTaken = Fixup;
  }
};

#if DRAGON4_OBS_ENABLED
/// The thread's active trace, or null when no conversion is being traced.
/// Exposed as a raw thread_local so hot-path checks inline to one load.
/// constinit + inline: constant-initialized in every TU, so the compiler
/// addresses the TLS slot directly instead of through an init-on-first-use
/// wrapper (which is also what keeps the load cheap on hot paths).
inline constinit thread_local ConversionTrace *ActiveTraceTls = nullptr;

inline ConversionTrace *activeTrace() { return ActiveTraceTls; }
#else
inline ConversionTrace *activeTrace() { return nullptr; }
#endif

/// RAII installer for the thread's active trace (null detaches it).
class ActiveTraceScope {
public:
#if DRAGON4_OBS_ENABLED
  explicit ActiveTraceScope(ConversionTrace *T) : Prev(ActiveTraceTls) {
    ActiveTraceTls = T;
  }
  ~ActiveTraceScope() { ActiveTraceTls = Prev; }

private:
  ConversionTrace *Prev;
#else
  explicit ActiveTraceScope(ConversionTrace *) {}
#endif
  ActiveTraceScope(const ActiveTraceScope &) = delete;
  ActiveTraceScope &operator=(const ActiveTraceScope &) = delete;
};

/// One archived conversion, fixed-size POD (the flight recorder is a ring
/// of these and pushing one allocates nothing).
struct ConversionRecord {
  uint64_t Seq = 0;     ///< Monotone per-recorder sequence number.
  uint64_t BitsHi = 0;  ///< Encoding (high half; binary128 only).
  uint64_t BitsLo = 0;  ///< Encoding (zero-extended) of the value.
  uint64_t LatencyNanos = 0;
  int32_t EstimatedK = 0;
  int32_t FinalK = 0;
  uint32_t DigitsEmitted = 0;
  uint32_t DivModOps = 0;
  uint32_t MulOps = 0;
  uint32_t MaxDivModLimbs = 0;
  uint32_t MaxMulLimbs = 0;
  Path PathTaken = Path::Unknown;
  ScaleBranch Branch = ScaleBranch::None;
  int8_t FixupTaken = -1;
  bool Incremented = false;
  bool Truncated = false;
  bool Mismatch = false; ///< A verify oracle disagreed on this conversion.

  /// Copies the trace fields (the identity/outcome fields stay put).
  void fromTrace(const ConversionTrace &T) {
    EstimatedK = T.EstimatedK;
    FinalK = T.FinalK;
    DigitsEmitted = T.DigitsEmitted;
    DivModOps = T.DivModOps;
    MulOps = T.MulOps;
    MaxDivModLimbs = T.MaxDivModLimbs;
    MaxMulLimbs = T.MaxMulLimbs;
    Branch = T.Branch;
    FixupTaken = T.FixupTaken;
    Incremented = T.Incremented;
  }

  /// One-line human rendering (the flight-dump format).
  std::string toLine() const;
};

/// Fixed-capacity ring of the thread's most recent conversion records.
class FlightRecorder {
public:
  explicit FlightRecorder(size_t Capacity = 64) : Ring(Capacity) {}

  size_t capacity() const { return Ring.size(); }
  size_t size() const { return Filled; }
  uint64_t pushed() const { return Seq; }

  /// Archives \p Record (stamping its sequence number), overwriting the
  /// oldest entry once the ring is full.
  void push(ConversionRecord Record) {
    if (Ring.empty())
      return;
    Record.Seq = Seq++;
    Ring[Head] = Record;
    Head = (Head + 1) % Ring.size();
    if (Filled < Ring.size())
      ++Filled;
  }

  /// Record \p Age steps back from the newest (0 = newest).
  const ConversionRecord &recent(size_t Age) const {
    return Ring[(Head + Ring.size() - 1 - Age % Ring.size()) % Ring.size()];
  }

  /// Multi-line dump, oldest first, at most \p MaxRecords lines (0 = all).
  std::string dumpText(size_t MaxRecords = 0) const;
  void dump(std::FILE *Out, size_t MaxRecords = 0) const;

  void clear() {
    Head = 0;
    Filled = 0;
  }

private:
  std::vector<ConversionRecord> Ring;
  size_t Head = 0;   ///< Next write position.
  size_t Filled = 0; ///< Valid records (<= capacity).
  uint64_t Seq = 0;  ///< Total records ever pushed.
};

/// One Chrome trace_event span ("X" phase): a named duration on a thread
/// track.  Names are static strings; Arg is span-specific (value count for
/// batches, encoding bits for conversions).
struct SpanEvent {
  const char *Name = "";
  uint64_t StartNanos = 0;
  uint64_t DurNanos = 0;
  uint32_t Tid = 0;
  uint64_t Arg = 0;
};

/// Per-thread observability state, one per engine::Scratch: a registry
/// shard, the flight recorder, a span buffer, the sampling tick, and the
/// scratchpad trace.  Single-writer, merged after workers join.
class ObsState {
public:
  ObsState()
      : Recorder(config().FlightCapacity),
        Exemplars(config().ExemplarRingCapacity) {
    Current.Reg = &Reg;
    Phases.bind(&Reg);
  }

  Registry Reg;
  FlightRecorder Recorder;
  /// Tail-latency exemplar reservoir (obs/exemplar/): worst sampled inputs
  /// per {format, path} plus workload-characterization histograms.
  exemplar::ExemplarReservoir Exemplars;
  /// Phase-attribution collector (src/prof/), archiving into this shard's
  /// Reg.  Installed by the engine (PhaseScope) for sampled conversions.
  prof::PhaseCollector Phases;
  std::vector<SpanEvent> Spans;
  ConversionTrace Current;
  uint32_t ThreadIndex = 0; ///< Worker index for span track assignment.

  /// Mismatch-flagged records kept outside the ring (post-mortem report
  /// survives ring recycling); bounded by config().MismatchKeepLimit.
  /// Cold path: only ever touched when an oracle disagreed.
  std::vector<ConversionRecord> MismatchKept;

  /// Sampling decision: true for one conversion in every
  /// config().SampleEvery on this thread (false when sampling is off).
  bool tick() {
    uint32_t Every = config().SampleEvery;
    if (Every == 0)
      return false;
    return SampleTick++ % Every == 0;
  }

  /// Archives a completed trace into the registry shard and the flight
  /// recorder; also charges LatencyNanos to the \p Fmt × pathClassFor(P)
  /// latency grid and emits a conversion span when tracing is on.
  void finishConversion(const ConversionTrace &T, Path P, FormatId Fmt,
                        uint64_t BitsLo, uint64_t BitsHi, uint64_t StartNanos,
                        uint64_t LatencyNanos, bool Truncated, bool Mismatch,
                        const char *SpanName = "conversion");

  /// Merges this shard's registry into \p Out and moves the span buffer to
  /// the back of \p Spans, leaving this state empty (the flight recorder
  /// keeps its history: it is context, not a metric).  When \p ExOut is
  /// non-null the exemplar reservoir drains into it the same way; callers
  /// that pass null keep exemplars in the shard for later inspection.
  void drainInto(Registry &Out, std::vector<SpanEvent> &Spans,
                 exemplar::ExemplarReservoir *ExOut = nullptr);

private:
  uint64_t SampleTick = 0;
  uint32_t MismatchDumps = 0; ///< Stderr context dumps emitted so far.
};

} // namespace dragon4::obs

#endif // DRAGON4_OBS_TRACE_H
