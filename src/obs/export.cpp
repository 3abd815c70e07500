//===- obs/export.cpp - Telemetry exporters ---------------------------------===//
//
// Part of libdragon4. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "obs/export.h"

#include <cinttypes>
#include <cmath>
#include <cstdarg>
#include <cstring>

using namespace dragon4;
using namespace dragon4::obs;

namespace {

void appendF(std::string &Out, const char *Fmt, ...) {
  char Buf[256];
  va_list Args;
  va_start(Args, Fmt);
  int N = std::vsnprintf(Buf, sizeof(Buf), Fmt, Args);
  va_end(Args);
  if (N > 0)
    Out.append(Buf, static_cast<size_t>(N) < sizeof(Buf) ? static_cast<size_t>(N)
                                                         : sizeof(Buf) - 1);
}

/// JSON number rendering for doubles: shortest round-trip is overkill here,
/// but the output must stay a valid JSON token (no inf/nan, no bare '.').
void appendJsonDouble(std::string &Out, double V) {
  if (!std::isfinite(V)) {
    Out += "null";
    return;
  }
  appendF(Out, "%.17g", V);
}

/// Metric names are [a-z0-9_] by construction, but escape defensively so a
/// future name can never corrupt the document.
void appendJsonString(std::string &Out, const char *S) {
  Out += '"';
  for (; *S; ++S) {
    char C = *S;
    if (C == '"' || C == '\\') {
      Out += '\\';
      Out += C;
    } else if (static_cast<unsigned char>(C) < 0x20) {
      appendF(Out, "\\u%04x", C);
    } else {
      Out += C;
    }
  }
  Out += '"';
}

void appendHistogramJson(std::string &Out, const SnapshotHistogram &H,
                         const char *Indent) {
  Out += Indent;
  Out += "{\n";
  appendF(Out, "%s  \"name\": ", Indent);
  appendJsonString(Out, H.Name.c_str());
  if (!H.Labels.empty()) {
    appendF(Out, ",\n%s  \"labels\": {", Indent);
    bool FirstLabel = true;
    for (const auto &[Key, Value] : H.Labels) {
      if (!FirstLabel)
        Out += ", ";
      FirstLabel = false;
      appendJsonString(Out, Key.c_str());
      Out += ": ";
      appendJsonString(Out, Value.c_str());
    }
    Out += '}';
  }
  appendF(Out, ",\n%s  \"count\": %" PRIu64 ",\n", Indent, H.Count);
  appendF(Out, "%s  \"sum\": %" PRIu64 ",\n", Indent, H.Sum);
  appendF(Out, "%s  \"min\": %" PRIu64 ",\n", Indent, H.Min);
  appendF(Out, "%s  \"max\": %" PRIu64 ",\n", Indent, H.Max);
  appendF(Out, "%s  \"p50\": ", Indent);
  appendJsonDouble(Out, H.P50);
  appendF(Out, ",\n%s  \"p90\": ", Indent);
  appendJsonDouble(Out, H.P90);
  appendF(Out, ",\n%s  \"p95\": ", Indent);
  appendJsonDouble(Out, H.P95);
  appendF(Out, ",\n%s  \"p99\": ", Indent);
  appendJsonDouble(Out, H.P99);
  appendF(Out, ",\n%s  \"buckets\": [", Indent);
  bool First = true;
  for (const auto &[Le, N] : H.Buckets) {
    if (!First)
      Out += ", ";
    First = false;
    appendF(Out, "{\"le\": %" PRIu64 ", \"count\": %" PRIu64 "}", Le, N);
  }
  Out += "]\n";
  Out += Indent;
  Out += '}';
}

} // namespace

std::string dragon4::obs::renderStatsJson(const Snapshot &Snap) {
  std::string Out;
  Out += "{\n";
  appendF(Out, "  \"schema\": \"%s\",\n", StatsSchemaVersion);

  Out += "  \"counters\": {\n";
  for (size_t I = 0; I < Snap.Counters.size(); ++I) {
    Out += "    ";
    appendJsonString(Out, Snap.Counters[I].first.c_str());
    appendF(Out, ": %" PRIu64 "%s\n", Snap.Counters[I].second,
            I + 1 < Snap.Counters.size() ? "," : "");
  }
  Out += "  },\n";

  Out += "  \"gauges\": {\n";
  for (size_t I = 0; I < Snap.Gauges.size(); ++I) {
    Out += "    ";
    appendJsonString(Out, Snap.Gauges[I].first.c_str());
    appendF(Out, ": %" PRIu64 "%s\n", Snap.Gauges[I].second,
            I + 1 < Snap.Gauges.size() ? "," : "");
  }
  Out += "  },\n";

  Out += "  \"derived\": {\n";
  for (size_t I = 0; I < Snap.Derived.size(); ++I) {
    Out += "    ";
    appendJsonString(Out, Snap.Derived[I].first.c_str());
    Out += ": ";
    appendJsonDouble(Out, Snap.Derived[I].second);
    Out += I + 1 < Snap.Derived.size() ? ",\n" : "\n";
  }
  Out += "  },\n";

  Out += "  \"histograms\": [\n";
  for (size_t I = 0; I < Snap.Histograms.size(); ++I) {
    appendHistogramJson(Out, Snap.Histograms[I], "    ");
    Out += I + 1 < Snap.Histograms.size() ? ",\n" : "\n";
  }
  Out += "  ]\n";
  Out += "}\n";
  return Out;
}

std::string dragon4::obs::promEscapeLabelValue(std::string_view Value) {
  std::string Out;
  Out.reserve(Value.size());
  for (char C : Value) {
    if (C == '\\' || C == '"') {
      Out += '\\';
      Out += C;
    } else if (C == '\n') {
      Out += "\\n";
    } else {
      Out += C;
    }
  }
  return Out;
}

std::string dragon4::obs::promSeries(
    std::string_view Name,
    const std::vector<std::pair<std::string, std::string>> &Labels) {
  std::string Out(Name);
  if (Labels.empty())
    return Out;
  Out += '{';
  bool First = true;
  for (const auto &[Key, Value] : Labels) {
    if (!First)
      Out += ',';
    First = false;
    Out += Key;
    Out += "=\"";
    Out += promEscapeLabelValue(Value);
    Out += '"';
  }
  Out += '}';
  return Out;
}

namespace {

/// Metric family of a series name: everything before the label braces.
std::string_view promFamily(std::string_view Series) {
  size_t Brace = Series.find('{');
  return Brace == std::string_view::npos ? Series : Series.substr(0, Brace);
}

/// One-line HELP text per family.  The well-known families get real prose;
/// anything else (per-phase counters, per-format counters) falls back to a
/// generic pointer at the catalog.
const char *promFamilyHelp(std::string_view Family) {
  if (Family == "dragon4_conversions_total")
    return "Finite values converted to shortest decimal form.";
  if (Family == "dragon4_ryu_hits_total")
    return "Conversions resolved by the Ryu rung.";
  if (Family == "dragon4_slowpath_direct_total")
    return "Conversions that ran the exact BigInt loop.";
  if (Family == "dragon4_batch_values_total")
    return "Values converted through the batch engine.";
  if (Family == "dragon4_latency_ns")
    return "Sampled conversion latency by format and path, nanoseconds.";
  if (Family == "dragon4_digit_count")
    return "Digits emitted per sampled conversion, by format.";
  if (Family == "dragon4_decimal_exponent_mag")
    return "Decimal-exponent magnitude |k| per sampled conversion, by "
           "format.";
  if (Family == "dragon4_exemplars_considered_total")
    return "Sampled conversions offered to the tail-exemplar reservoir.";
  if (Family == "dragon4_exemplars_captured_total")
    return "Conversions captured as tail-latency exemplars.";
  if (Family == "dragon4_path_mix_drift")
    return "Total-variation distance of the latency-path mix vs the "
           "previous window.";
  if (Family == "dragon4_conversion_latency_ns")
    return "Sampled conversion latency, all paths, nanoseconds.";
  if (Family == "dragon4_slo_breached")
    return "1 while the named latency SLO is in breach over the window.";
  if (Family == "dragon4_slo_breaches_total")
    return "Window evaluations in which the named SLO was in breach.";
  if (Family == "dragon4_arena_high_water_bytes")
    return "Deepest limb-arena occupancy observed in any worker.";
  return "dragon4 metric; see docs/observability.md for the catalog.";
}

/// Emits the HELP/TYPE header when \p Family starts a new block.  Families
/// must arrive contiguously (Snapshot construction guarantees it; the
/// parse-back test enforces it) so each family's header appears exactly
/// once, before its first sample.
void promFamilyHeader(std::string &Out, std::string &LastFamily,
                      std::string_view Family, const char *Type) {
  if (Family == LastFamily)
    return;
  LastFamily.assign(Family);
  appendF(Out, "# HELP %.*s %s\n", static_cast<int>(Family.size()),
          Family.data(), promFamilyHelp(Family));
  appendF(Out, "# TYPE %.*s %s\n", static_cast<int>(Family.size()),
          Family.data(), Type);
}

} // namespace

std::string dragon4::obs::renderPrometheus(const Snapshot &Snap) {
  std::string Out;
  std::string LastFamily;
  for (const auto &[Name, Value] : Snap.Counters) {
    promFamilyHeader(Out, LastFamily, promFamily(Name), "counter");
    appendF(Out, "%s %" PRIu64 "\n", Name.c_str(), Value);
  }
  for (const auto &[Name, Value] : Snap.Gauges) {
    promFamilyHeader(Out, LastFamily, promFamily(Name), "gauge");
    appendF(Out, "%s %" PRIu64 "\n", Name.c_str(), Value);
  }
  for (const auto &[Name, Value] : Snap.Derived) {
    promFamilyHeader(Out, LastFamily, promFamily(Name), "gauge");
    appendF(Out, "%s ", Name.c_str());
    if (std::isfinite(Value))
      appendF(Out, "%.17g\n", Value);
    else
      Out += "NaN\n";
  }
  for (const auto &H : Snap.Histograms) {
    promFamilyHeader(Out, LastFamily, H.Name, "histogram");
    // Labels render identically on every series of the histogram; le is
    // appended after them on bucket lines.
    std::string Labels;
    for (const auto &[Key, Value] : H.Labels) {
      Labels += Labels.empty() ? "" : ",";
      Labels += Key;
      Labels += "=\"";
      Labels += promEscapeLabelValue(Value);
      Labels += '"';
    }
    const char *Sep = Labels.empty() ? "" : ",";
    uint64_t Cumulative = 0;
    for (const auto &[Le, N] : H.Buckets) {
      Cumulative += N;
      appendF(Out, "%s_bucket{%s%sle=\"%" PRIu64 "\"} %" PRIu64 "\n",
              H.Name.c_str(), Labels.c_str(), Sep, Le, Cumulative);
    }
    appendF(Out, "%s_bucket{%s%sle=\"+Inf\"} %" PRIu64, H.Name.c_str(),
            Labels.c_str(), Sep, H.Count);
    // OpenMetrics exemplar annotation: at most one per series, on the
    // +Inf bucket line (which always exists), omitted when nothing was
    // captured for this series.
    if (H.HasExemplar) {
      Out += " # {";
      bool FirstEx = true;
      for (const auto &[Key, Value] : H.ExemplarLabels) {
        if (!FirstEx)
          Out += ',';
        FirstEx = false;
        Out += Key;
        Out += "=\"";
        Out += promEscapeLabelValue(Value);
        Out += '"';
      }
      appendF(Out, "} %.17g %.9f", H.ExemplarValue, H.ExemplarTimestamp);
    }
    Out += '\n';
    if (Labels.empty()) {
      appendF(Out, "%s_sum %" PRIu64 "\n", H.Name.c_str(), H.Sum);
      appendF(Out, "%s_count %" PRIu64 "\n", H.Name.c_str(), H.Count);
    } else {
      appendF(Out, "%s_sum{%s} %" PRIu64 "\n", H.Name.c_str(), Labels.c_str(),
              H.Sum);
      appendF(Out, "%s_count{%s} %" PRIu64 "\n", H.Name.c_str(),
              Labels.c_str(), H.Count);
    }
  }
  return Out;
}

std::string dragon4::obs::renderExemplarsJson(const Snapshot &Snap) {
  std::string Out;
  Out += "{\n";
  appendF(Out, "  \"schema\": \"%s\",\n", ExemplarsSchemaVersion);
  appendF(Out, "  \"record_count\": %zu,\n", Snap.Exemplars.size());
  Out += "  \"records\": [\n";
  for (size_t I = 0; I < Snap.Exemplars.size(); ++I) {
    const SnapshotExemplar &E = Snap.Exemplars[I];
    Out += "    {\"kind\": ";
    appendJsonString(Out, E.Kind.c_str());
    Out += ", \"format\": ";
    appendJsonString(Out, E.Format.c_str());
    Out += ", \"path\": ";
    appendJsonString(Out, E.Path.c_str());
    Out += ", \"bits\": ";
    appendJsonString(Out, E.Bits.c_str());
    Out += ", \"options\": ";
    appendJsonString(Out, E.Options.c_str());
    appendF(Out,
            ", \"latency_ns\": %" PRIu64 ", \"digits\": %u, \"k\": %d, "
            "\"timestamp_ns\": %" PRIu64 "}%s\n",
            E.LatencyNanos, E.DigitsEmitted, E.FinalK, E.TimestampNanos,
            I + 1 < Snap.Exemplars.size() ? "," : "");
  }
  Out += "  ]\n";
  Out += "}\n";
  return Out;
}

std::string dragon4::obs::renderChromeTrace(std::span<const SpanEvent> Spans) {
  // Timestamps are microseconds since the earliest span so the viewport
  // opens at t=0 rather than at hours-of-uptime.
  uint64_t Base = UINT64_MAX;
  for (const SpanEvent &S : Spans)
    if (S.StartNanos < Base)
      Base = S.StartNanos;
  if (Base == UINT64_MAX)
    Base = 0;

  std::string Out;
  Out += "{\"traceEvents\": [\n";
  for (size_t I = 0; I < Spans.size(); ++I) {
    const SpanEvent &S = Spans[I];
    double Ts = static_cast<double>(S.StartNanos - Base) / 1000.0;
    double Dur = static_cast<double>(S.DurNanos) / 1000.0;
    Out += "  {\"ph\": \"X\", \"name\": ";
    appendJsonString(Out, S.Name);
    appendF(Out, ", \"pid\": 1, \"tid\": %u, \"ts\": %.3f, \"dur\": %.3f, "
                 "\"args\": {\"arg\": %" PRIu64 "}}%s\n",
            S.Tid, Ts, Dur, S.Arg, I + 1 < Spans.size() ? "," : "");
  }
  Out += "], \"displayTimeUnit\": \"ns\"}\n";
  return Out;
}

std::string dragon4::obs::renderHuman(const Snapshot &Snap) {
  std::string Out;
  for (const auto &[Name, Value] : Snap.Counters)
    if (Value)
      appendF(Out, "  %-44s %" PRIu64 "\n", Name.c_str(), Value);
  for (const auto &[Name, Value] : Snap.Gauges)
    if (Value)
      appendF(Out, "  %-44s %" PRIu64 "\n", Name.c_str(), Value);
  for (const auto &[Name, Value] : Snap.Derived)
    appendF(Out, "  %-44s %.4g\n", Name.c_str(), Value);
  for (const auto &H : Snap.Histograms) {
    if (H.Count == 0)
      continue;
    appendF(Out,
            "  %-44s count=%" PRIu64 " mean=%.2f p50=%.0f p90=%.0f "
            "p99=%.0f max=%" PRIu64 "\n",
            promSeries(H.Name, H.Labels).c_str(), H.Count,
            static_cast<double>(H.Sum) / static_cast<double>(H.Count), H.P50,
            H.P90, H.P99, H.Max);
  }
  return Out;
}

void dragon4::obs::writeStatsJson(std::FILE *Out, const Snapshot &Snap) {
  std::string S = renderStatsJson(Snap);
  std::fwrite(S.data(), 1, S.size(), Out);
}

void dragon4::obs::writePrometheus(std::FILE *Out, const Snapshot &Snap) {
  std::string S = renderPrometheus(Snap);
  std::fwrite(S.data(), 1, S.size(), Out);
}

void dragon4::obs::writeChromeTrace(std::FILE *Out,
                                    std::span<const SpanEvent> Spans) {
  std::string S = renderChromeTrace(Spans);
  std::fwrite(S.data(), 1, S.size(), Out);
}

void dragon4::obs::printHuman(std::FILE *Out, const Snapshot &Snap) {
  std::string S = renderHuman(Snap);
  std::fwrite(S.data(), 1, S.size(), Out);
}

bool dragon4::obs::writeFile(const std::string &Path, const std::string &Text) {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F) {
    std::fprintf(stderr, "dragon4 obs: cannot open '%s' for writing\n",
                 Path.c_str());
    return false;
  }
  size_t Written = std::fwrite(Text.data(), 1, Text.size(), F);
  bool Ok = Written == Text.size() && std::fclose(F) == 0;
  if (!Ok)
    std::fprintf(stderr, "dragon4 obs: short write to '%s'\n", Path.c_str());
  return Ok;
}
