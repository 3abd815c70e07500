//===- obs/trace.cpp - Structured trace points and flight recorder ----------===//
//
// Part of libdragon4. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "obs/trace.h"

#include "prof/clock.h"

#include <cinttypes>

using namespace dragon4;
using namespace dragon4::obs;

Config &dragon4::obs::config() {
  static Config Global;
  return Global;
}

bool dragon4::obs::enabled() {
  return DRAGON4_OBS_ENABLED && config().SampleEvery != 0;
}

uint64_t dragon4::obs::nowNanos() {
  // One clock for the whole tree: obs spans, batch timing, and the prof
  // fallback backend all read prof::nowNanos(), so timestamps compose.
  return prof::nowNanos();
}

const char *dragon4::obs::pathName(Path P) {
  switch (P) {
  case Path::Unknown:
    return "unknown";
  case Path::Ryu:
    return "ryu";
  case Path::SlowDirect:
    return "slow-direct";
  case Path::Special:
    return "special";
  case Path::Fixed:
    return "fixed";
  case Path::VerifyCheck:
    return "verify-check";
  }
  return "?";
}

PathClass dragon4::obs::pathClassFor(Path P) {
  switch (P) {
  case Path::Ryu:
    return PathClass::Ryu;
  case Path::SlowDirect:
  case Path::Fixed:
    return PathClass::Dragon4;
  case Path::Unknown:
  case Path::Special:
  case Path::VerifyCheck:
    break;
  }
  return PathClass::Count;
}

const char *dragon4::obs::scaleBranchName(ScaleBranch B) {
  switch (B) {
  case ScaleBranch::None:
    return "none";
  case ScaleBranch::Iterative:
    return "iterative";
  case ScaleBranch::FloatLog:
    return "floatlog";
  case ScaleBranch::Estimate:
    return "estimate";
  }
  return "?";
}

std::string ConversionRecord::toLine() const {
  char Buf[256];
  char Bits[40];
  if (BitsHi)
    std::snprintf(Bits, sizeof(Bits), "0x%016" PRIx64 "%016" PRIx64, BitsHi,
                  BitsLo);
  else
    std::snprintf(Bits, sizeof(Bits), "0x%" PRIx64, BitsLo);
  std::snprintf(
      Buf, sizeof(Buf),
      "[%" PRIu64 "] bits=%s path=%s branch=%s est=%d k=%d fixup=%s "
      "digits=%u%s divmod=%u(max %u limbs) mul=%u(max %u limbs) "
      "lat=%" PRIu64 "ns%s%s",
      Seq, Bits, pathName(PathTaken), scaleBranchName(Branch), EstimatedK,
      FinalK,
      FixupTaken < 0 ? "n/a" : (FixupTaken ? "taken" : "no"), DigitsEmitted,
      Incremented ? "+inc" : "", DivModOps, MaxDivModLimbs, MulOps,
      MaxMulLimbs, LatencyNanos, Truncated ? " TRUNCATED" : "",
      Mismatch ? " MISMATCH" : "");
  return Buf;
}

std::string FlightRecorder::dumpText(size_t MaxRecords) const {
  size_t N = Filled;
  if (MaxRecords && MaxRecords < N)
    N = MaxRecords;
  std::string Out;
  for (size_t I = N; I-- > 0;) { // recent(N-1) is the oldest of the window.
    Out += recent(I).toLine();
    Out += '\n';
  }
  return Out;
}

void FlightRecorder::dump(std::FILE *Out, size_t MaxRecords) const {
  std::string Text = dumpText(MaxRecords);
  std::fwrite(Text.data(), 1, Text.size(), Out);
}

void ObsState::finishConversion(const ConversionTrace &T, Path P,
                                FormatId Fmt, uint64_t BitsLo, uint64_t BitsHi,
                                uint64_t StartNanos, uint64_t LatencyNanos,
                                bool Truncated, bool Mismatch,
                                const char *SpanName) {
  Reg.add(Counter::SampledConversions);
  Reg.record(Hist::LatencyNs, LatencyNanos);
  if (PathClass PC = pathClassFor(P); PC != PathClass::Count)
    Reg.recordPathLatency(Fmt, PC, LatencyNanos);
  if (T.DigitsEmitted)
    Reg.record(Hist::DigitsEmitted, T.DigitsEmitted);
  if (T.Branch != ScaleBranch::None) {
    switch (T.Branch) {
    case ScaleBranch::Iterative:
      Reg.add(Counter::ScaleIterative);
      break;
    case ScaleBranch::FloatLog:
      Reg.add(Counter::ScaleFloatLog);
      break;
    case ScaleBranch::Estimate:
      Reg.add(Counter::ScaleEstimate);
      break;
    case ScaleBranch::None:
      break;
    }
    if (T.FixupTaken == 1)
      Reg.add(Counter::FixupTaken);
    else if (T.FixupTaken == 0)
      Reg.add(Counter::FixupSkipped);
  }
  Reg.add(Counter::DivModOps, T.DivModOps);
  Reg.add(Counter::MulOps, T.MulOps);

  // Tail-exemplar offer: every sampled conversion feeds the workload
  // histograms; only records near a cell's latency high-water mark are
  // captured (the reservoir applies the policy).
  {
    exemplar::ExemplarRecord Ex;
    Ex.BitsLo = BitsLo;
    Ex.BitsHi = BitsHi;
    Ex.LatencyNanos = LatencyNanos;
    Ex.TimestampNanos = StartNanos + LatencyNanos;
    Ex.FinalK = T.FinalK;
    Ex.DigitsEmitted = T.DigitsEmitted;
    Ex.Fmt = Fmt;
    Ex.PathC = pathClassFor(P);
    Ex.OptionsBase = T.OptionsBase;
    Ex.OptionsMode = T.OptionsMode;
    Exemplars.consider(Ex, config().ExemplarMarginBuckets);
  }

  ConversionRecord Record;
  Record.fromTrace(T);
  Record.PathTaken = P;
  Record.BitsLo = BitsLo;
  Record.BitsHi = BitsHi;
  Record.LatencyNanos = LatencyNanos;
  Record.Truncated = Truncated;
  Record.Mismatch = Mismatch;
  Recorder.push(Record);
  Reg.add(Counter::FlightRecords);
  Reg.setMax(Gauge::FlightDepth, Recorder.size());

  if (config().Trace)
    Spans.push_back(
        SpanEvent{SpanName, StartNanos, LatencyNanos, ThreadIndex, BitsLo});

  if (Truncated && config().DumpOnTruncate) {
    std::fprintf(stderr,
                 "dragon4 obs: truncated conversion; flight recorder "
                 "(newest last):\n%s",
                 Recorder.dumpText().c_str());
  }

  if (Mismatch) {
    if (MismatchKept.size() < config().MismatchKeepLimit) {
      // Keep the stamped copy (the ring assigned the sequence number).
      MismatchKept.push_back(Recorder.capacity() ? Recorder.recent(0)
                                                 : Record);
    }
    if (config().DumpOnMismatch && MismatchDumps < config().MismatchDumpLimit) {
      ++MismatchDumps;
      std::fprintf(stderr,
                   "dragon4 obs: verify mismatch; flight recorder "
                   "(newest last):\n%s",
                   Recorder.dumpText().c_str());
    }
  }
}

void ObsState::drainInto(Registry &Out, std::vector<SpanEvent> &Spans_,
                         exemplar::ExemplarReservoir *ExOut) {
  Out.merge(Reg);
  Reg.reset();
  if (ExOut) {
    ExOut->merge(Exemplars);
    Exemplars.reset();
  }
  if (!Spans.empty()) {
    Spans_.insert(Spans_.end(), Spans.begin(), Spans.end());
    Spans.clear();
  }
}
