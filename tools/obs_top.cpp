//===- tools/obs_top.cpp - Live telemetry dashboard ----------------------------===//
//
// Part of libdragon4. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A top(1)-style terminal dashboard over a running telemetry service
/// (tools/soak --serve, or anything else embedding svc::TelemetryService).
/// It polls /stats.json on an interval, derives scrape-to-scrape rates
/// client-side, and redraws in place with plain ANSI (clear + home) -- no
/// curses, no dependencies beyond the repo's own HTTP client and JSON
/// reader.
///
///   ./build/tools/obs_top [--host=127.0.0.1] [--port=9464]
///                         [--interval-ms=1000] [--once] [--no-ansi]
///
/// --once fetches and prints a single frame without clearing the screen
/// (what the docs transcript and the smoke test use); --no-ansi keeps the
/// loop but prints frames sequentially, for dumb terminals and typescript
/// capture.  Exit: 0 on a clean Ctrl-C, 2 when the first fetch fails
/// (nothing is listening).  A scrape that fails *after* the first success
/// (connection refused mid-refresh, truncated body) does not exit: the
/// last good frame is kept on screen under a STALE banner and polling
/// continues until the service comes back or the user interrupts.
///
/// When the service exposes /exemplars.json (obs-enabled builds), a tail
/// pane lists the worst captured inputs per {format, path} with their raw
/// bit patterns -- the replayable identities of the latency outliers.
///
//===----------------------------------------------------------------------===//

#include "support/json_mini.h"
#include "svc/http.h"

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

using dragon4::support::JsonValue;
using dragon4::support::parseJson;

namespace {

volatile std::sig_atomic_t Interrupted = 0;
void onInterrupt(int) { Interrupted = 1; }

/// The counters one frame cares about, pulled out of the JSON document so
/// the delta math works on a plain struct.
struct Frame {
  bool Valid = false;
  double Conversions = 0;
  double Specials = 0;
  double RyuHits = 0;
  double SlowPathDirect = 0;
  double BatchValues = 0;
  double BatchNanos = 0;
  double ParseHits = 0;
  double ParseFallbacks = 0;
  double ParseRejected = 0;
  double ArenaHighWater = 0;
  double WindowResets = 0;
  double WindowSamples = 0;
  /// window_* derived values straight from the service (already rated).
  double WindowConvPerSec = -1;
  double WindowMeanNs = -1;
  /// Latency percentiles per labeled cell: (format, path, p50, p99).
  struct LatencyRow {
    std::string Format, Path;
    double P50 = 0, P95 = 0, P99 = 0;
    double Count = 0;
  };
  std::vector<LatencyRow> Latency;
  /// SLO rows: (name, breached, observed, threshold).
  struct SloRow {
    std::string Name;
    bool Breached = false;
    double Observed = 0, Threshold = 0;
  };
  std::vector<SloRow> Slos;
  /// Worst captured inputs from /exemplars.json (tail pane), worst first.
  struct ExemplarRow {
    std::string Format, Path, Bits, Options;
    double LatencyNs = 0, Digits = 0, K = 0;
  };
  std::vector<ExemplarRow> Exemplars;
};

double counterOf(const JsonValue &Doc, const char *Section, const char *Key) {
  const JsonValue *S = Doc.find(Section);
  return S ? S->numberOr(Key, 0) : 0;
}

Frame decode(const std::string &Body) {
  Frame F;
  auto Doc = parseJson(Body);
  if (!Doc || !Doc->isObject())
    return F;
  F.Valid = true;
  F.Conversions = counterOf(*Doc, "counters", "dragon4_conversions_total");
  F.Specials = counterOf(*Doc, "counters", "dragon4_specials_total");
  F.RyuHits = counterOf(*Doc, "counters", "dragon4_ryu_hits_total");
  F.SlowPathDirect =
      counterOf(*Doc, "counters", "dragon4_slowpath_direct_total");
  F.BatchValues = counterOf(*Doc, "counters", "dragon4_batch_values_total");
  F.BatchNanos = counterOf(*Doc, "counters", "dragon4_batch_nanos_total");
  F.ParseHits = counterOf(*Doc, "counters", "dragon4_fastparse_hits_total");
  F.ParseFallbacks =
      counterOf(*Doc, "counters", "dragon4_fastparse_fallback_exact_total");
  F.ParseRejected =
      counterOf(*Doc, "counters", "dragon4_fastparse_rejected_total");
  F.ArenaHighWater =
      counterOf(*Doc, "gauges", "dragon4_arena_high_water_bytes");
  F.WindowResets = counterOf(*Doc, "gauges", "dragon4_window_resets");
  F.WindowSamples = counterOf(*Doc, "gauges", "dragon4_window_samples");
  if (const JsonValue *D = Doc->find("derived")) {
    F.WindowConvPerSec = D->numberOr("window_conversions_per_second", -1);
    F.WindowMeanNs = D->numberOr("window_batch_mean_ns_per_value", -1);
    // SLO rows live in gauges + derived under slo="NAME" series names.
    if (const JsonValue *G = Doc->find("gauges")) {
      for (const auto &[Key, Value] : G->object()) {
        constexpr std::string_view Prefix = "dragon4_slo_breached{slo=\"";
        if (Key.size() <= Prefix.size() || Key.compare(0, Prefix.size(),
                                                       Prefix) != 0)
          continue;
        Frame::SloRow Row;
        Row.Name = Key.substr(Prefix.size(),
                              Key.size() - Prefix.size() - 2); // strip "}
        Row.Breached = Value.isNumber() && Value.number() != 0;
        std::string Tail = "{slo=\"" + Row.Name + "\"}";
        Row.Observed = D->numberOr("slo_observed" + Tail, 0);
        Row.Threshold = D->numberOr("slo_threshold" + Tail, 0);
        F.Slos.push_back(std::move(Row));
      }
    }
  }
  if (const JsonValue *Hists = Doc->find("histograms");
      Hists && Hists->isArray()) {
    for (const JsonValue &H : Hists->array()) {
      const JsonValue *Name = H.find("name");
      if (!Name || !Name->isString() ||
          Name->string() != "dragon4_latency_ns")
        continue;
      const JsonValue *Labels = H.find("labels");
      if (!Labels || !Labels->isObject())
        continue;
      Frame::LatencyRow Row;
      if (const JsonValue *V = Labels->find("format"); V && V->isString())
        Row.Format = V->string();
      if (const JsonValue *V = Labels->find("path"); V && V->isString())
        Row.Path = V->string();
      Row.P50 = H.numberOr("p50", 0);
      Row.P95 = H.numberOr("p95", 0);
      Row.P99 = H.numberOr("p99", 0);
      Row.Count = H.numberOr("count", 0);
      F.Latency.push_back(std::move(Row));
    }
  }
  std::sort(F.Latency.begin(), F.Latency.end(),
            [](const Frame::LatencyRow &A, const Frame::LatencyRow &B) {
              return A.Format != B.Format ? A.Format < B.Format
                                          : A.Path < B.Path;
            });
  return F;
}

/// Best-effort decode of /exemplars.json: the "worst" records (the stable
/// per-cell maxima), sorted by latency descending, capped for the pane.
std::vector<Frame::ExemplarRow> decodeExemplars(const std::string &Body) {
  std::vector<Frame::ExemplarRow> Out;
  auto Doc = parseJson(Body);
  if (!Doc || !Doc->isObject())
    return Out;
  const JsonValue *Records = Doc->find("records");
  if (!Records || !Records->isArray())
    return Out;
  for (const JsonValue &R : Records->array()) {
    const JsonValue *Kind = R.find("kind");
    if (!Kind || !Kind->isString() || Kind->string() != "worst")
      continue;
    Frame::ExemplarRow Row;
    if (const JsonValue *V = R.find("format"); V && V->isString())
      Row.Format = V->string();
    if (const JsonValue *V = R.find("path"); V && V->isString())
      Row.Path = V->string();
    if (const JsonValue *V = R.find("bits"); V && V->isString())
      Row.Bits = V->string();
    if (const JsonValue *V = R.find("options"); V && V->isString())
      Row.Options = V->string();
    Row.LatencyNs = R.numberOr("latency_ns", 0);
    Row.Digits = R.numberOr("digits", 0);
    Row.K = R.numberOr("k", 0);
    Out.push_back(std::move(Row));
  }
  std::sort(Out.begin(), Out.end(),
            [](const Frame::ExemplarRow &A, const Frame::ExemplarRow &B) {
              return A.LatencyNs > B.LatencyNs;
            });
  if (Out.size() > 8)
    Out.resize(8);
  return Out;
}

/// Renders 12345678 as "12.3M" so the columns stay narrow.
std::string human(double V) {
  char Buf[32];
  if (V < 0)
    return "-";
  if (V >= 1e9)
    std::snprintf(Buf, sizeof(Buf), "%.2fG", V / 1e9);
  else if (V >= 1e6)
    std::snprintf(Buf, sizeof(Buf), "%.2fM", V / 1e6);
  else if (V >= 1e4)
    std::snprintf(Buf, sizeof(Buf), "%.1fk", V / 1e3);
  else
    std::snprintf(Buf, sizeof(Buf), "%.0f", V);
  return Buf;
}

std::string pct(double Part, double Whole) {
  char Buf[16];
  if (Whole <= 0)
    return "-";
  std::snprintf(Buf, sizeof(Buf), "%.1f%%", 100.0 * Part / Whole);
  return Buf;
}

/// \p StaleSeconds > 0 renders the stale-data banner: the frame shown is
/// the last good one, not a fresh scrape.
void render(const Frame &F, const Frame &Prev, double DtSeconds,
            const std::string &Where, double StaleSeconds = 0,
            const std::string &StaleWhy = {}) {
  // Scrape-to-scrape rates (client side, independent of the service's own
  // window so a stalled ticker is visible as diverging numbers).
  auto RateOf = [&](double Now, double Before) {
    return DtSeconds > 0 && Prev.Valid && Now >= Before
               ? (Now - Before) / DtSeconds
               : -1.0;
  };
  double ConvRate = RateOf(F.Conversions, Prev.Conversions);

  std::printf("dragon4 obs_top -- %s\n", Where.c_str());
  if (StaleSeconds > 0)
    std::printf("** STALE DATA -- last scrape failed (%s); showing frame "
                "from %.0fs ago, retrying **\n",
                StaleWhy.c_str(), StaleSeconds);
  std::printf("conversions %-9s (%s/s scrape, %s/s window)   specials %s\n",
              human(F.Conversions).c_str(), human(ConvRate).c_str(),
              human(F.WindowConvPerSec).c_str(), human(F.Specials).c_str());
  std::printf("paths: ryu %s (%s)  dragon4 %s (%s)\n",
              human(F.RyuHits).c_str(), pct(F.RyuHits, F.Conversions).c_str(),
              human(F.SlowPathDirect).c_str(),
              pct(F.SlowPathDirect, F.Conversions).c_str());
  double MeanNs = F.BatchValues > 0 ? F.BatchNanos / F.BatchValues : -1;
  std::printf("batch: %s values, %.0f ns/value cumulative, %s ns/value "
              "window\n",
              human(F.BatchValues).c_str(), MeanNs,
              F.WindowMeanNs >= 0 ? human(F.WindowMeanNs).c_str() : "-");
  std::printf("parse: %s fast, %s exact-fallback, %s rejected\n",
              human(F.ParseHits).c_str(), human(F.ParseFallbacks).c_str(),
              human(F.ParseRejected).c_str());
  std::printf("arena high water %s bytes   window: %s ticks, %s resets\n",
              human(F.ArenaHighWater).c_str(), human(F.WindowSamples).c_str(),
              human(F.WindowResets).c_str());
  if (!F.Latency.empty()) {
    std::printf("\n%-10s %-8s %10s %10s %10s %10s\n", "format", "path",
                "samples", "p50 ns", "p95 ns", "p99 ns");
    for (const Frame::LatencyRow &Row : F.Latency)
      std::printf("%-10s %-8s %10s %10.0f %10.0f %10.0f\n",
                  Row.Format.c_str(), Row.Path.c_str(),
                  human(Row.Count).c_str(), Row.P50, Row.P95, Row.P99);
  }
  if (!F.Slos.empty()) {
    std::printf("\nslo status:\n");
    for (const Frame::SloRow &Row : F.Slos)
      std::printf("  %-16s %s  observed %.0f ns / max %.0f ns\n",
                  Row.Name.c_str(), Row.Breached ? "BREACHED" : "ok",
                  Row.Observed, Row.Threshold);
  }
  if (!F.Exemplars.empty()) {
    std::printf("\nworst captured inputs (tail exemplars):\n");
    std::printf("%-10s %-8s %-34s %8s %7s %6s  %s\n", "format", "path",
                "bits", "lat ns", "digits", "k", "options");
    for (const Frame::ExemplarRow &Row : F.Exemplars)
      std::printf("%-10s %-8s %-34s %8s %7.0f %6.0f  %s\n",
                  Row.Format.c_str(), Row.Path.c_str(), Row.Bits.c_str(),
                  human(Row.LatencyNs).c_str(), Row.Digits, Row.K,
                  Row.Options.c_str());
  }
}

} // namespace

int main(int Argc, char **Argv) {
  std::string Host = "127.0.0.1";
  uint16_t Port = 9464;
  uint64_t IntervalMs = 1000;
  bool Once = false, Ansi = true;
  for (int I = 1; I < Argc; ++I) {
    const char *A = Argv[I];
    if (std::strncmp(A, "--host=", 7) == 0) {
      Host = A + 7;
    } else if (std::strncmp(A, "--port=", 7) == 0) {
      Port = static_cast<uint16_t>(std::strtoul(A + 7, nullptr, 10));
    } else if (std::strncmp(A, "--interval-ms=", 14) == 0) {
      IntervalMs = std::strtoull(A + 14, nullptr, 10);
      if (IntervalMs == 0)
        IntervalMs = 100;
    } else if (std::strcmp(A, "--once") == 0) {
      Once = true;
    } else if (std::strcmp(A, "--no-ansi") == 0) {
      Ansi = false;
    } else {
      std::fprintf(stderr,
                   "obs_top: unknown flag %s\nusage: obs_top "
                   "[--host=H] [--port=P] [--interval-ms=N] [--once] "
                   "[--no-ansi]\n",
                   A);
      return 2;
    }
  }

  std::signal(SIGINT, onInterrupt);
  std::signal(SIGTERM, onInterrupt);
  std::string Where = Host + ":" + std::to_string(Port);

  Frame Prev;
  Frame LastGood;
  auto PrevTime = std::chrono::steady_clock::now();
  auto LastGoodTime = PrevTime;
  bool EverFetched = false;
  while (!Interrupted) {
    std::string Body;
    std::string FailWhy;
    int Status = dragon4::svc::httpGet(Host, Port, "/stats.json", Body);
    Frame F;
    if (Status != 200) {
      FailWhy = "GET /stats.json returned " + std::to_string(Status);
    } else {
      F = decode(Body);
      if (!F.Valid)
        FailWhy = "malformed /stats.json payload";
    }
    auto Now = std::chrono::steady_clock::now();
    if (!F.Valid) {
      // Mid-refresh failure: the service restarting, a truncated body, a
      // connection refused.  Keep the last good frame on screen under a
      // stale banner and keep polling; only a cold start with nothing
      // listening is fatal.
      if (!EverFetched) {
        std::fprintf(stderr, "obs_top: http://%s unreachable (%s)\n",
                     Where.c_str(), FailWhy.c_str());
        return 2;
      }
      double StaleFor =
          std::chrono::duration<double>(Now - LastGoodTime).count();
      if (Ansi && !Once)
        std::printf("\x1b[2J\x1b[H");
      render(LastGood, Prev, 0, Where, StaleFor, FailWhy);
      std::fflush(stdout);
      for (uint64_t Slept = 0; Slept < IntervalMs && !Interrupted;
           Slept += 50)
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
      continue;
    }
    // Exemplars are best-effort decoration: absent on obs-off builds and
    // older services, and never worth failing the refresh over.
    std::string ExBody;
    if (dragon4::svc::httpGet(Host, Port, "/exemplars.json", ExBody) == 200)
      F.Exemplars = decodeExemplars(ExBody);
    double Dt = std::chrono::duration<double>(Now - PrevTime).count();
    if (Ansi && !Once)
      std::printf("\x1b[2J\x1b[H"); // Clear + home: redraw in place.
    render(F, Prev, Dt, Where);
    std::fflush(stdout);
    if (Once)
      return 0;
    EverFetched = true;
    Prev = F;
    LastGood = F;
    PrevTime = Now;
    LastGoodTime = Now;
    for (uint64_t Slept = 0; Slept < IntervalMs && !Interrupted; Slept += 50)
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  return 0;
}
