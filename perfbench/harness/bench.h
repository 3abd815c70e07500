//===- perfbench/harness/bench.h - Benchmark harness declarations -*- C++ -*-===//
//
// Part of libdragon4. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared pieces of the libdragon4 benchmark harness: the generated inputs
/// of the three workloads, the oracles that judge every output, timing and
/// statistics helpers, and the result record the entry point prints.
///
/// The harness only calls the library's public functions from the outside;
/// it adds no instrumentation to the library.  See perfbench/README.md for
/// the workloads, metrics and bounds.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_HARNESS_BENCH_H
#define PERFBENCH_HARNESS_BENCH_H

#include "abi/dragon4_to_chars.h"

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

/// Values per request in the single-thread workloads.
inline constexpr size_t RowSize = 16;

/// Steady-clock nanoseconds.
inline int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// snprintf into a std::string (note lines).
template <typename... Args>
std::string strprintf(const char *Format, Args... Values) {
  char Buffer[512];
  std::snprintf(Buffer, sizeof(Buffer), Format, Values...);
  return Buffer;
}

/// Median of \p Values (0 for an empty list).
double median(std::vector<double> Values);

/// Linear-interpolated quantile \p Q (0..1) of ascending \p Sorted.
double quantileSorted(std::span<const double> Sorted, double Q);

/// SplitMix64, kept local so the inputs of a seed never depend on the
/// library under test.
class Rng {
public:
  explicit Rng(uint64_t Seed) : State(Seed) {}
  uint64_t next() {
    State += 0x9E3779B97F4A7C15ull;
    uint64_t Z = State;
    Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ull;
    Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBull;
    return Z ^ (Z >> 31);
  }
  uint64_t below(uint64_t Bound) { return next() % Bound; }
  /// Uniform in [0, 1).
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

private:
  uint64_t State;
};

/// One value to print, by raw encoding (the C ABI's addressing), plus the
/// fraction digits for fixed output.
struct PrintItem {
  dragon4_format Format = DRAGON4_FORMAT_BINARY64;
  uint64_t Lo = 0;
  uint64_t Hi = 0;
  int Fraction = 0;
};

/// One literal to parse.  Text lives in Inputs::Text at [Offset, Offset +
/// Length) followed by a NUL (for strtod).  Q and W are the generator's
/// decimal exponent and significand when the significand fits 19 digits
/// (the Eisel-Lemire population).
struct ParseItem {
  dragon4_format Format = DRAGON4_FORMAT_BINARY64;
  uint32_t Offset = 0;
  uint32_t Length = 0;
  bool Midpoint = false;
  bool HasQW = false;
  int64_t Q = 0;
  uint64_t W = 0;
};

/// Everything a workload feeds the library, generated from the seed before
/// any timing starts.
struct Inputs {
  std::string Workload;
  std::vector<PrintItem> Print;   ///< print_shortest, print_fixed.
  std::string Text;               ///< parse_roundtrip literal store.
  std::vector<ParseItem> Parse;   ///< parse_roundtrip.
  std::vector<double> Schryer;    ///< Schryer subset for reference probes.

  std::string_view literal(const ParseItem &Item) const {
    return {Text.data() + Item.Offset, Item.Length};
  }
  /// Canonical byte image of the inputs (the determinism test compares it).
  std::string serialize() const;
};

bool isWorkload(std::string_view Name);
Inputs makeInputs(std::string_view Workload, uint64_t Seed);

// --- oracles (oracle.cpp) -------------------------------------------------

/// Shortest output: reads back to the same bits and has no more significant
/// digits than std::to_chars.
bool checkShortest(const PrintItem &Item, std::string_view Out);
/// Fixed output: equals snprintf("%.*f") except at exact decimal ties
/// (where it must round half up); with '#' marks, reads back to the value.
bool checkFixed(const PrintItem &Item, std::string_view Out);
/// Parse result: bit-equal to std::from_chars.
bool checkParse(const ParseItem &Item, std::string_view Text, uint64_t Lo);

// --- results ----------------------------------------------------------------

struct Metric {
  std::string Name;
  double Value = 0;
  std::string Unit;
};

struct Result {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<Metric> Metrics;
  std::vector<std::string> Notes; ///< Human-readable lines printed first.

  void add(std::string Name, double Value, std::string Unit) {
    Metrics.push_back({std::move(Name), Value, std::move(Unit)});
  }
};

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string TraceOut;        ///< Chrome trace_event file of a traced run.
  bool PlantWrongDigit = false; ///< Self-test: flip a Ryu comparison.
  unsigned PlantSpin = 0;       ///< Self-test: spin iterations per digit.
};

/// The untraced run: the six end-to-end metrics.
Result runEndToEnd(const Options &Opts, const Inputs &In);
/// The traced run: the per-layer ledger.
Result runLedger(const Options &Opts, const Inputs &In);

// --- timing -----------------------------------------------------------------

/// Host references: fixed kernels of host code (the same on every seed and
/// commit, and no library code).  Co-tenants on a shared host slow this
/// machine down by up to ~1.5x for seconds at a time, and the slowdown
/// hits a kernel and the library alike when they do the same kind of work,
/// so every timed pass is paired with one reference run and reported in
/// reference-scaled nanoseconds: wall ns / hostFactor().
///
///   Conversions  std::to_chars, std::from_chars and snprintf("%.17f") over
///                2048 fixed doubles (print_shortest, parse_roundtrip);
///   Bignum       a schoolbook multi-precision digit loop (print_fixed,
///                whose time is the exact loop on BigInts).
///
/// The nominal costs are the kernels' costs on a quiet host (2.1 GHz Xeon
/// KVM guest, GCC 12, glibc 2.36); scaled times read as wall times there.
enum class HostReference { Conversions, Bignum };
inline constexpr double ConversionsNominalNs = 920e3;
inline constexpr double BignumNominalNs = 120e3;

/// Chooses the kernel hostFactor() runs (once, before any timing).
void selectHostReference(HostReference Kind);

/// Runs the selected kernel once; returns its cost now over its nominal
/// cost.
double hostFactor();

/// Runs \p Pass until \p Seconds have elapsed (at least 5 times), each
/// pass after one host-reference run, and returns the median of the
/// reference-scaled nanoseconds per pass divided by \p Units.
double medianNsPer(double Seconds, size_t Units,
                   const std::function<void()> &Pass);

/// Per-round timings of passes run in rotation (each round starts with the
/// next pass, so none always runs first or last).
struct Rounds {
  std::vector<double> Factor;          ///< Host factor measured per round.
  std::vector<std::vector<double>> Ns; ///< Raw wall ns, [pass][round].

  /// Median over rounds of pass \p P's reference-scaled ns per unit.
  double scaledNsPer(size_t P, size_t Units) const;
  /// Median over rounds of Ns[A] / Ns[B] (same-round ratio, unscaled).
  double ratio(size_t A, size_t B) const;
  /// Median over rounds of (Ns[A] - Ns[B]) scaled, per unit.
  double scaledDeltaPer(size_t A, size_t B, size_t Units) const;
};

Rounds interleave(double Seconds,
                  const std::vector<std::function<void()>> &Passes);

/// Peak resident set of this process in MiB.
double peakRssMiB();

} // namespace perfbench

#endif // PERFBENCH_HARNESS_BENCH_H
