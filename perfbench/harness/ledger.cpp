//===- perfbench/harness/ledger.cpp - The traced per-layer run ---------------===//
//
// Part of libdragon4. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The traced run of one workload.  For every request the harness calls
/// the layers' public functions itself, in stage order over the request's
/// values -- fp decompose, fastpath (Ryu) or core (the exact loop) digit
/// generation, the format render core, and for reads parse or the reader
/// fallback -- with one span per stage per request, so there are a few
/// clock reads per request rather than per call.  Spans of a request share
/// its id; they stay in memory and are written as Chrome trace_event JSON
/// at exit.  The staged outputs must equal the end-to-end outputs byte for
/// byte (bit for bit for parses); every mismatch is a failure.
///
/// Around the staged pipeline, probes time whole surfaces from outside
/// (engine::format, RecordStream::push, BatchEngine at 1 and N workers, the
/// C ABI against what it wraps, obs sampling on versus off, the host
/// baselines), and one census pass on a fresh Scratch reads the counters by
/// name from the dragon4.stats.v1 snapshot.
///
/// Every per-layer metric is emitted on every workload; a metric whose
/// layer is not on the workload's path reads 0 and is listed in a note.
///
//===----------------------------------------------------------------------===//

#include "bench.h"
#include "surfaces.h"

#include "baselines/steele_white.h"
#include "bigint/limb_arena.h"
#include "core/fixed_format.h"
#include "core/free_format.h"
#include "engine/batch.h"
#include "engine/engine.h"
#include "engine/stream.h"
#include "fastpath/ryu.h"
#include "format/render_core.h"
#include "fp/format_traits.h"
#include "obs/obs.h"
#include "obs/registry.h"
#include "parse/eisel_lemire.h"
#include "parse/parse.h"
#include "reader/reader.h"

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <optional>
#include <span>
#include <thread>

using namespace perfbench;
using namespace dragon4;

namespace {

/// The staged layers must sum to the engine's own time within this share
/// (engine.layer_sum_ratio in [1 - margin, 1 + margin]).
constexpr double LayerSumMargin = 0.15;

/// Requests whose spans are kept for the trace file.
constexpr size_t MaxTracedRequests = 4096;

// --- metric catalog -------------------------------------------------------

struct CatalogEntry {
  const char *Name;
  const char *Unit;
};

constexpr CatalogEntry Catalog[] = {
    {"fp.decompose.ns", "ns"},
    {"fastpath.ryu.ns", "ns"},
    {"fastpath.ryu.hit_ratio", "ratio"},
    {"fastpath.grisu.calls", "count"},
    {"core.digit_loop.ns", "ns"},
    {"core.digit_loop.schryer_ns", "ns"},
    {"core.slow_path.calls", "count"},
    {"core.fixed.ns", "ns"},
    {"core.fixed.digits", "digits"},
    {"bigint.arena_high_water_bytes", "bytes"},
    {"format.render.ns", "ns"},
    {"format.render_fixed.ns", "ns"},
    {"format.bytes_per_value", "bytes"},
    {"engine.format.ns", "ns"},
    {"engine.format_fixed.ns", "ns"},
    {"engine.stream.ns", "ns"},
    {"engine.layer_sum_ratio", "ratio"},
    {"engine.batch.ns_1t", "ns"},
    {"engine.batch.scaling", "ratio"},
    {"engine.batch.idle_share", "ratio"},
    {"abi.to_chars.overhead_ratio", "ratio"},
    {"abi.to_chars_fixed.overhead_ratio", "ratio"},
    {"abi.from_chars.overhead_ratio", "ratio"},
    {"parse.parse_float.ns", "ns"},
    {"parse.eisel_lemire.ns", "ns"},
    {"parse.scan.ns", "ns"},
    {"parse.fast.hit_ratio", "ratio"},
    {"parse.gb_per_s", "GB/s"},
    {"reader.read_float.ns", "ns"},
    {"obs.sampled.ns", "ns"},
    {"trace.overhead_ratio", "ratio"},
    {"baselines.std_to_chars.ns", "ns"},
    {"baselines.snprintf.ns", "ns"},
    {"baselines.std_from_chars.ns", "ns"},
    {"baselines.strtod.ns", "ns"},
    {"baselines.steele_white.ns", "ns"},
};

class Ledger {
public:
  void set(const char *Name, double Value) { Values[Name] = Value; }
  void emit(Result &R) const {
    std::string Inactive;
    for (const CatalogEntry &E : Catalog) {
      auto It = Values.find(E.Name);
      R.add(E.Name, It == Values.end() ? 0.0 : It->second, E.Unit);
      if (It == Values.end())
        Inactive += std::string(Inactive.empty() ? "" : " ") + E.Name;
    }
    R.Notes.push_back("not on this workload's path (reported as 0): " +
                      Inactive);
  }

private:
  std::map<std::string, double> Values;
};

// --- spans ------------------------------------------------------------------

enum Layer : uint8_t { Request, Fp, Fastpath, Core, Format, Parse, Reader };
constexpr const char *LayerNames[] = {"request", "fp",    "fastpath", "core",
                                      "format",  "parse", "reader"};
constexpr int NumLayers = 7;

struct Span {
  uint32_t Id;
  Layer Kind;
  int64_t Start;
  int64_t Duration;
};

/// In-memory span store, written out once at exit.
class SpanLog {
public:
  SpanLog() { Spans.reserve(MaxTracedRequests * 5); }

  void add(uint32_t Id, Layer Kind, int64_t Start, int64_t End) {
    if (Id < MaxTracedRequests)
      Spans.push_back({Id, Kind, Start, End - Start});
  }

  /// Writes Chrome trace_event JSON; each layer's self time (its spans
  /// minus the parts their child spans cover) goes in "otherData".
  void write(const std::string &Path) const {
    if (Path.empty() || Spans.empty())
      return;
    int64_t SelfNs[NumLayers] = {};
    for (const Span &S : Spans)
      SelfNs[S.Kind] += S.Duration;
    // Stage spans have no children; a request's children are its stages.
    for (int L = 1; L < NumLayers; ++L)
      SelfNs[Request] -= SelfNs[L];
    std::ofstream Out(Path);
    if (!Out)
      return;
    const int64_t Origin = Spans.front().Start;
    Out << "{\"traceEvents\":[";
    for (size_t I = 0; I < Spans.size(); ++I) {
      const Span &S = Spans[I];
      char Line[256];
      std::snprintf(Line, sizeof(Line),
                    "%s{\"name\":\"%s\",\"cat\":\"layer\",\"ph\":\"X\","
                    "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":1,"
                    "\"args\":{\"request\":%u}}",
                    I ? ",\n" : "\n", LayerNames[S.Kind],
                    static_cast<double>(S.Start - Origin) / 1000.0,
                    static_cast<double>(S.Duration) / 1000.0, S.Id);
      Out << Line;
    }
    Out << "\n],\"displayTimeUnit\":\"ns\",\"otherData\":{\"self_ns\":{";
    for (int L = 0; L < NumLayers; ++L)
      Out << (L ? "," : "") << '"' << LayerNames[L] << "\":" << SelfNs[L];
    Out << "}}}\n";
  }

private:
  std::vector<Span> Spans;
};

/// Median cost of one steady-clock read, subtracted from every stage span.
double clockReadNs() {
  std::vector<double> Gaps;
  Gaps.reserve(20001);
  for (int I = 0; I < 20001; ++I) {
    int64_t A = nowNs();
    int64_t B = nowNs();
    Gaps.push_back(static_cast<double>(B - A));
  }
  return median(std::move(Gaps));
}

// --- typed dispatch over the C ABI's format tags ----------------------------

template <typename T> T decode(const PrintItem &Item) {
  return FormatTraits<T>::fromEncoding(Item.Lo, Item.Hi);
}

template <typename Fn> decltype(auto) dispatch(dragon4_format F, Fn &&Body) {
  switch (F) {
  case DRAGON4_FORMAT_BINARY16:
    return Body(Binary16());
  case DRAGON4_FORMAT_BINARY32:
    return Body(float());
  case DRAGON4_FORMAT_EXTENDED80:
    return Body((long double)0);
  default:
    return Body(double());
  }
}

size_t engineFormat(const PrintItem &Item, char *Buffer, size_t Capacity,
                    engine::Scratch &S) {
  return dispatch(Item.Format, [&](auto Tag) {
    using T = decltype(Tag);
    return engine::format(decode<T>(Item), Buffer, Capacity, S);
  });
}

size_t engineFormatFixed(const PrintItem &Item, char *Buffer, size_t Capacity,
                         engine::Scratch &S) {
  return dispatch(Item.Format, [&](auto Tag) {
    using T = decltype(Tag);
    return engine::formatFixed(decode<T>(Item), Item.Fraction, Buffer,
                               Capacity, PrintOptions{}, S);
  });
}

std::optional<double> snapshotValue(const obs::Snapshot &Snap,
                                    std::string_view Name) {
  for (const auto &[Key, Value] : Snap.Counters)
    if (Key == Name)
      return static_cast<double>(Value);
  for (const auto &[Key, Value] : Snap.Gauges)
    if (Key == Name)
      return static_cast<double>(Value);
  for (const auto &[Key, Value] : Snap.Derived)
    if (Key == Name)
      return Value;
  return std::nullopt;
}

/// Reads counters by name from one census Scratch's snapshot; absent names
/// are noted rather than assumed zero.
class Census {
public:
  explicit Census(const engine::Scratch &S)
      : Snap(obs::makeSnapshot(S.stats())) {}

  std::optional<double> get(std::string_view Name) {
    std::optional<double> V = snapshotValue(Snap, Name);
    if (!V)
      Absent += std::string(Absent.empty() ? "" : " ") + std::string(Name);
    return V;
  }
  /// Sum of the named counters that exist (nullopt when none does).
  std::optional<double> sum(std::initializer_list<std::string_view> Names) {
    std::optional<double> Total;
    for (std::string_view Name : Names)
      if (std::optional<double> V = get(Name))
        Total = Total.value_or(0) + *V;
    return Total;
  }
  void note(Result &R) const {
    if (!Absent.empty())
      R.Notes.push_back("counters absent from the dragon4.stats.v1 "
                        "snapshot: " +
                        Absent);
  }

private:
  obs::Snapshot Snap;
  std::string Absent;
};

// --- the staged print pipeline -----------------------------------------------

struct ValueState {
  Decomposed D;
  FpClass Class = FpClass::Zero;
  bool Negative = false;
  bool NeedCore = false;
  int K = 0;
  int Marks = 0;
  std::vector<uint8_t> Digits;
};

/// Per-pass layer totals of the staged pipeline (ns after clock-read
/// compensation; RequestNs uncompensated).
struct StageTotals {
  double Ns[NumLayers] = {};
  uint64_t RyuCalls = 0;
  uint64_t CoreCalls = 0;
  uint64_t Bytes = 0;
  uint64_t Digits = 0;
  uint64_t Mismatches = 0;
};

class StagedPrinter {
public:
  StagedPrinter(bool Fixed, double ClockNs) : Fixed(Fixed), ClockNs(ClockNs) {}

  /// One request: stages over Items[0, Count), outputs compared with the
  /// end-to-end reference \p Ref (indexed from \p First).
  void request(const PrintItem *Items, size_t Count, uint32_t Id,
               const Surface &Ref, size_t First, SpanLog &Log,
               StageTotals &Tot) {
    if (States.size() < Count) {
      States.resize(Count);
      Chars.resize(Count * Slot);
      Lengths.resize(Count);
    }
    const int64_t T0 = nowNs();
    for (size_t I = 0; I < Count; ++I)
      dispatch(Items[I].Format, [&](auto Tag) {
        using T = decltype(Tag);
        stageDecompose<T>(Items[I], States[I]);
      });
    const int64_t T1 = nowNs();
    uint64_t Ryu = 0;
    if (!Fixed)
      for (size_t I = 0; I < Count; ++I)
        Ryu += stageRyu(Items[I], States[I]);
    const int64_t T2 = nowNs();
    uint64_t Exact = 0;
    for (size_t I = 0; I < Count; ++I) {
      ValueState &S = States[I];
      if (Fixed ? !finite(S) : !S.NeedCore)
        continue;
      ++Exact;
      dispatch(Items[I].Format, [&](auto Tag) {
        using T = decltype(Tag);
        if (Fixed)
          stageFixed<T>(Items[I], S);
        else
          stageLoop<T>(S);
      });
    }
    const int64_t T3 = nowNs();
    for (size_t I = 0; I < Count; ++I)
      Lengths[I] = stageRender(Items[I], States[I], Chars.data() + I * Slot);
    const int64_t T4 = nowNs();

    Log.add(Id, Request, T0, T4);
    Log.add(Id, Fp, T0, T1);
    if (Ryu)
      Log.add(Id, Fastpath, T1, T2);
    if (Exact)
      Log.add(Id, Core, T2, T3);
    Log.add(Id, Format, T3, T4);
    Tot.Ns[Request] += static_cast<double>(T4 - T0);
    Tot.Ns[Fp] += compensated(T1 - T0);
    Tot.Ns[Fastpath] += compensated(T2 - T1);
    Tot.Ns[Core] += compensated(T3 - T2);
    Tot.Ns[Format] += compensated(T4 - T3);
    Tot.RyuCalls += Ryu;
    Tot.CoreCalls += Exact;
    for (size_t I = 0; I < Count; ++I) {
      std::string_view Text(Chars.data() + I * Slot,
                            std::min<size_t>(Lengths[I], Slot));
      Tot.Bytes += Lengths[I];
      Tot.Digits += States[I].Digits.size();
      Tot.Mismatches += Text != Ref.reference(First + I);
    }
  }

private:
  static constexpr size_t Slot = 64;

  double compensated(int64_t Ns) const {
    return std::max(0.0, static_cast<double>(Ns) - ClockNs);
  }

  static bool finite(const ValueState &S) {
    return S.Class == FpClass::Normal || S.Class == FpClass::Subnormal;
  }

  template <typename T>
  static void stageDecompose(const PrintItem &Item, ValueState &S) {
    T V = decode<T>(Item);
    S.Class = classify(V);
    S.Negative = signBit(V);
    S.NeedCore = false;
    S.Marks = 0;
    if (finite(S))
      S.D = decompose(V);
  }

  /// Ryu for the narrow formats; everything else (and any defensive Ryu
  /// reject) goes to the exact loop.  Returns whether Ryu was called.
  static bool stageRyu(const PrintItem &Item, ValueState &S) {
    if (!finite(S))
      return false;
    int Precision = 0, MinExponent = 0;
    switch (Item.Format) {
    case DRAGON4_FORMAT_BINARY16:
      Precision = IeeeTraits<Binary16>::Precision;
      MinExponent = IeeeTraits<Binary16>::MinExponent;
      break;
    case DRAGON4_FORMAT_BINARY32:
      Precision = IeeeTraits<float>::Precision;
      MinExponent = IeeeTraits<float>::MinExponent;
      break;
    case DRAGON4_FORMAT_BINARY64:
      Precision = IeeeTraits<double>::Precision;
      MinExponent = IeeeTraits<double>::MinExponent;
      break;
    default:
      S.NeedCore = true;
      return false;
    }
    bool AcceptBounds = false;
    if (!ryuEligible(10, BoundaryMode::NearestEven, (S.D.F & 1) == 0,
                     AcceptBounds) ||
        !ryuShortestInto(S.D.F, S.D.E, Precision, MinExponent, AcceptBounds,
                         TieBreak::RoundUp, S.Digits, S.K))
      S.NeedCore = true;
    return true;
  }

  template <typename T> void stageLoop(ValueState &S) {
    {
      LimbArenaScope Scope(&Arena);
      S.K = freeFormatDigitsInto(S.D.F, S.D.E, IeeeTraits<T>::Precision,
                                 IeeeTraits<T>::MinExponent,
                                 FreeFormatOptions{}, Loop);
      S.Digits.assign(Loop.Digits.begin(), Loop.Digits.end());
      forgetArenaState();
    }
    Arena.reset();
  }

  template <typename T> void stageFixed(const PrintItem &Item, ValueState &S) {
    FixedFormatOptions Options;
    Options.Boundaries = PrintOptions{}.Boundaries;
    Options.Ties = PrintOptions{}.Ties;
    {
      LimbArenaScope Scope(&Arena);
      fixedDigitsAbsoluteInto(decode<T>(Item), -Item.Fraction, Options, Loop,
                              FixedOut);
      S.Digits.assign(FixedOut.Digits.begin(), FixedOut.Digits.end());
      S.K = FixedOut.K;
      S.Marks = FixedOut.TrailingMarks;
      forgetArenaState();
    }
    Arena.reset();
  }

  /// Arena-backed loop state must not outlive the arena's rewind.
  void forgetArenaState() {
    Loop.R = BigInt();
    Loop.MPlus = BigInt();
    Loop.S = BigInt();
  }

  /// The render core into a BufferSink; specials as engine::format writes
  /// them.  Returns the required length.
  size_t stageRender(const PrintItem &Item, const ValueState &S,
                     char *Buffer) const {
    BufferSink Out(Buffer, Slot);
    switch (S.Class) {
    case FpClass::NaN:
      Out.literal("nan");
      break;
    case FpClass::Infinity:
      Out.literal(S.Negative ? "-inf" : "inf");
      break;
    case FpClass::Zero:
      if (S.Negative)
        Out.put('-');
      Out.put('0');
      if (Fixed && Item.Fraction > 0) {
        Out.put('.');
        Out.fill(static_cast<size_t>(Item.Fraction), '0');
      }
      break;
    case FpClass::Normal:
    case FpClass::Subnormal:
      if (Fixed)
        render_detail::renderPositionalInto(Out, S.Digits, S.K, S.Marks,
                                            S.Negative, RenderOptions{});
      else
        render_detail::renderAutoInto(Out, S.Digits, S.K, 0, S.Negative,
                                      RenderOptions{});
      break;
    }
    return Out.required();
  }

  bool Fixed;
  double ClockNs;
  std::vector<ValueState> States;
  std::vector<char> Chars;
  std::vector<size_t> Lengths;
  LimbArena Arena;
  DigitLoopResult Loop;
  DigitString FixedOut;
};

/// One staged pass over \p Items in requests of \p RequestSize.
StageTotals stagedPrintPass(StagedPrinter &Printer,
                            const std::vector<PrintItem> &Items,
                            size_t RequestSize, const Surface &Ref,
                            SpanLog &Log, uint32_t &Id) {
  StageTotals Tot;
  for (size_t First = 0; First < Items.size(); First += RequestSize)
    Printer.request(Items.data() + First,
                    std::min(RequestSize, Items.size() - First), Id++, Ref,
                    First, Log, Tot);
  return Tot;
}

// --- shared probe pieces -------------------------------------------------------

template <typename T> volatile T Sink;

/// Median over rounds of \p Of(round) (rounds without data skipped).
template <typename Fn> double overRounds(size_t Count, Fn &&Of) {
  std::vector<double> Values;
  for (size_t R = 0; R < Count; ++R)
    if (std::optional<double> V = Of(R))
      Values.push_back(*V);
  return median(std::move(Values));
}

/// The interleaved print ledger: each round runs the staged pipeline, the
/// untraced end-to-end pass, a single-thread engine pass and the same
/// values through the C ABI on a stack buffer, rotating their order.
/// Layer costs, the layer sum and the overhead ratios all come from passes
/// of the same round, so host drift cancels.
struct PrintRounds {
  Rounds Times;
  std::vector<StageTotals> Staged;
  double N = 0;

  double layerNs(Layer Which) const {
    return overRounds(Staged.size(), [&](size_t R) -> std::optional<double> {
      return Staged[R].Ns[Which] / N / Times.Factor[R];
    });
  }
};

PrintRounds printRounds(const std::vector<PrintItem> &Items,
                        size_t RequestSize, bool Fixed, Surface &Surf,
                        const std::function<void()> &EnginePass,
                        const std::function<void()> &AbiPass,
                        double Seconds, double ClockNs, SpanLog &Log,
                        Result &R) {
  StagedPrinter Printer(Fixed, ClockNs);
  PrintRounds Out;
  Out.N = static_cast<double>(Items.size());
  uint32_t Id = 0;
  std::vector<std::function<void()>> Passes = {
      [&] {
        Out.Staged.push_back(
            stagedPrintPass(Printer, Items, RequestSize, Surf, Log, Id));
      },
      [&] {
        Surf.pass(nullptr);
        R.Failed += Surf.failures();
        R.Attempted += Surf.values();
      },
      EnginePass, AbiPass};
  Out.Times = interleave(Seconds, Passes);
  for (const StageTotals &T : Out.Staged) {
    R.Attempted += Items.size();
    R.Failed += T.Mismatches;
  }
  return Out;
}

/// Metrics every print ledger shares; pass 2 of the rounds is the engine.
void printLayerMetrics(Ledger &L, const PrintRounds &P, bool Fixed,
                       Result &R) {
  const auto &S = P.Staged;
  L.set("fp.decompose.ns", P.layerNs(Fp));
  L.set(Fixed ? "format.render_fixed.ns" : "format.render.ns",
        P.layerNs(Format));
  L.set("format.bytes_per_value", overRounds(S.size(), [&](size_t I) {
          return std::optional<double>(static_cast<double>(S[I].Bytes) / P.N);
        }));
  auto PerCall = [&](Layer Which, auto Calls) {
    return overRounds(S.size(), [&](size_t I) -> std::optional<double> {
      uint64_t C = Calls(S[I]);
      if (!C)
        return std::nullopt;
      return S[I].Ns[Which] / static_cast<double>(C) / P.Times.Factor[I];
    });
  };
  auto Ryu = [](const StageTotals &T) { return T.RyuCalls; };
  auto Exact = [](const StageTotals &T) { return T.CoreCalls; };
  if (Fixed) {
    L.set("core.fixed.ns", PerCall(Core, Exact));
    L.set("core.fixed.digits", overRounds(S.size(), [&](size_t I) {
            return std::optional<double>(static_cast<double>(S[I].Digits) /
                                         P.N);
          }));
  } else {
    if (double Ns = PerCall(Fastpath, Ryu))
      L.set("fastpath.ryu.ns", Ns);
    if (double Ns = PerCall(Core, Exact))
      L.set("core.digit_loop.ns", Ns);
  }
  const double EngineNs = P.Times.scaledNsPer(2, static_cast<size_t>(P.N));
  L.set(Fixed ? "engine.format_fixed.ns" : "engine.format.ns", EngineNs);
  const double Ratio = overRounds(S.size(), [&](size_t I) {
    double Sum = S[I].Ns[Fp] + S[I].Ns[Fastpath] + S[I].Ns[Core] +
                 S[I].Ns[Format];
    return std::optional<double>(Sum / P.Times.Ns[2][I]);
  });
  L.set("engine.layer_sum_ratio", Ratio);
  R.Notes.push_back(strprintf(
      "layer sum / %s = %.3f (stated margin +-%.0f%%): %s",
      Fixed ? "engine.format_fixed.ns" : "engine.format.ns", Ratio,
      LayerSumMargin * 100,
      std::abs(Ratio - 1) <= LayerSumMargin ? "within" : "FLAG: outside"));
  L.set("trace.overhead_ratio", overRounds(S.size(), [&](size_t I) {
          return std::optional<double>(S[I].Ns[Request] / P.Times.Ns[1][I]);
        }));
}

void printBaselines(Ledger &L, const std::vector<PrintItem> &Items,
                    bool Fixed, double Seconds) {
  std::vector<PrintItem> Host;
  for (const PrintItem &Item : Items)
    if (Item.Format != DRAGON4_FORMAT_BINARY16)
      Host.push_back(Item);
  char Buffer[128];
  L.set("baselines.std_to_chars.ns",
        medianNsPer(Seconds / 2, Host.size(), [&] {
          for (const PrintItem &Item : Host)
            dispatch(Item.Format, [&](auto Tag) {
              using T = decltype(Tag);
              if constexpr (!std::is_same_v<T, Binary16>) {
                auto End =
                    Fixed ? std::to_chars(Buffer, Buffer + sizeof(Buffer),
                                          decode<T>(Item),
                                          std::chars_format::fixed,
                                          Item.Fraction)
                          : std::to_chars(Buffer, Buffer + sizeof(Buffer),
                                          decode<T>(Item));
                Sink<char> = *(End.ptr - 1);
              }
            });
        }));
  L.set("baselines.snprintf.ns", medianNsPer(Seconds / 2, Host.size(), [&] {
          for (const PrintItem &Item : Host) {
            int N = 0;
            if (Item.Format == DRAGON4_FORMAT_EXTENDED80)
              N = std::snprintf(Buffer, sizeof(Buffer),
                                Fixed ? "%.*Lf" : "%.*Lg",
                                Fixed ? Item.Fraction : 21,
                                decode<long double>(Item));
            else if (Item.Format == DRAGON4_FORMAT_BINARY32)
              N = std::snprintf(Buffer, sizeof(Buffer),
                                Fixed ? "%.*f" : "%.*g",
                                Fixed ? Item.Fraction : 9,
                                static_cast<double>(decode<float>(Item)));
            else
              N = std::snprintf(Buffer, sizeof(Buffer),
                                Fixed ? "%.*f" : "%.*g",
                                Fixed ? Item.Fraction : 17,
                                decode<double>(Item));
            Sink<int> = N;
          }
        }));
}

/// One engine pass on a fresh Scratch, then the counters by name.
void printCensus(Ledger &L, const std::vector<PrintItem> &Items, bool Fixed,
                 Result &R) {
  engine::Scratch S;
  char Buffer[64];
  for (const PrintItem &Item : Items)
    Fixed ? engineFormatFixed(Item, Buffer, sizeof(Buffer), S)
          : engineFormat(Item, Buffer, sizeof(Buffer), S);
  Census C(S);
  if (!Fixed) {
    std::optional<double> Hits = C.get("dragon4_ryu_hits_total");
    std::optional<double> Fallbacks = C.get("dragon4_ryu_fallback_total");
    if (Hits && *Hits + Fallbacks.value_or(0) > 0)
      L.set("fastpath.ryu.hit_ratio",
            *Hits / (*Hits + Fallbacks.value_or(0)));
    // Grisu rung entries; once the rung is deleted its counters vanish
    // and the metric reads 0, which is what it measures.
    L.set("fastpath.grisu.calls",
          C.sum({"dragon4_fastpath_hits_total",
                 "dragon4_fastpath_fails_total"})
              .value_or(0));
  }
  if (auto Slow = C.sum({"dragon4_slowpath_direct_total",
                         "dragon4_fastpath_fails_total"}))
    L.set("core.slow_path.calls", *Slow);
  if (auto Arena = C.get("dragon4_arena_high_water_bytes"))
    L.set("bigint.arena_high_water_bytes", *Arena);
  C.note(R);
}

std::function<void()> enginePass(const std::vector<PrintItem> &Items,
                                 bool Fixed, engine::Scratch &S) {
  return [&Items, Fixed, &S] {
    char Buffer[64];
    for (const PrintItem &Item : Items)
      Sink<size_t> = Fixed ? engineFormatFixed(Item, Buffer, sizeof(Buffer), S)
                           : engineFormat(Item, Buffer, sizeof(Buffer), S);
  };
}

std::function<void()> abiPass(const std::vector<PrintItem> &Items, bool Fixed,
                              dragon4_scratch *Abi) {
  return [&Items, Fixed, Abi] {
    char Buffer[64];
    for (const PrintItem &Item : Items) {
      size_t Length = 0;
      if (Fixed)
        dragon4_to_chars_fixed_scratch(Abi, Item.Format, Item.Lo, Item.Hi,
                                       Item.Fraction, nullptr, Buffer,
                                       sizeof(Buffer), &Length);
      else
        dragon4_to_chars_scratch(Abi, Item.Format, Item.Lo, Item.Hi, nullptr,
                                 Buffer, sizeof(Buffer), &Length);
      Sink<size_t> = Length;
    }
  };
}

/// The batch layer on the binary64 values: BatchEngine<double> with one
/// worker and with the hardware concurrency (at most 4), batches of 4096,
/// interleaved.  Scaling is 1-worker time over N-worker time; idle share
/// 1 - scaling / N is what dispatch, join and imbalance cost.
void batchLayer(Ledger &L, const std::vector<PrintItem> &Items,
                double Seconds, Result &R) {
  constexpr size_t BatchSize = 4096;
  std::vector<double> Values;
  for (const PrintItem &Item : Items)
    if (Item.Format == DRAGON4_FORMAT_BINARY64)
      Values.push_back(std::bit_cast<double>(Item.Lo));
  Values.resize(Values.size() / BatchSize * BatchSize);
  const unsigned Threads =
      std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
  engine::BatchEngine<double> One(1), Many(Threads);
  std::vector<engine::StringTable> Tables(Values.size() / BatchSize);
  auto PassOn = [&](engine::BatchEngine<double> &Engine) {
    for (size_t B = 0; B < Tables.size(); ++B)
      Engine.convert(std::span<const double>(Values.data() + B * BatchSize,
                                             BatchSize),
                     Tables[B]);
  };
  Rounds Times =
      interleave(Seconds, {[&] { PassOn(One); }, [&] { PassOn(Many); }});
  // Oracle: the N-worker tables equal single-thread engine::format.
  engine::Scratch S;
  char Buffer[64];
  for (size_t I = 0; I < Values.size(); ++I) {
    size_t Length = engine::format(Values[I], Buffer, sizeof(Buffer), S);
    R.Failed += Tables[I / BatchSize].view(I % BatchSize) !=
                std::string_view(Buffer, Length);
  }
  R.Attempted += Values.size();
  const double Scaling = Times.ratio(0, 1);
  L.set("engine.batch.ns_1t", Times.scaledNsPer(0, Values.size()));
  L.set("engine.batch.scaling", Scaling);
  L.set("engine.batch.idle_share", 1.0 - Scaling / Threads);
  R.Notes.push_back(strprintf("batch layer: %zu binary64 values in batches "
                              "of %zu, 1 vs %u workers",
                              Values.size(), BatchSize, Threads));
}

void schryerReference(Ledger &L, const std::vector<double> &Values,
                      double Seconds) {
  LimbArena Arena;
  DigitLoopResult Loop;
  L.set("core.digit_loop.schryer_ns",
        medianNsPer(Seconds / 2, Values.size(), [&] {
          for (double V : Values) {
            {
              LimbArenaScope Scope(&Arena);
              Decomposed D = decompose(V);
              Sink<int> = freeFormatDigitsInto(
                  D.F, D.E, IeeeTraits<double>::Precision,
                  IeeeTraits<double>::MinExponent, FreeFormatOptions{}, Loop);
              Loop.R = BigInt();
              Loop.MPlus = BigInt();
              Loop.S = BigInt();
            }
            Arena.reset();
          }
        }));
  L.set("baselines.steele_white.ns",
        medianNsPer(Seconds / 2, Values.size(), [&] {
          for (double V : Values)
            Sink<int> = steeleWhiteDigits(V).K;
        }));
}

// --- per-workload ledgers ----------------------------------------------------------

void ledgerShortest(const Options &Opts, const Inputs &In, Ledger &L,
                    SpanLog &Log, double ClockNs, Result &R) {
  const double Sec = Opts.Seconds;
  std::unique_ptr<Surface> Surf = makeSurface(In);
  Surf->setUp();
  R.Failed += Surf->validate();
  engine::Scratch S;
  dragon4_scratch *Abi = dragon4_scratch_create();
  const std::function<void()> Engine = enginePass(In.Print, false, S);
  PrintRounds P = printRounds(In.Print, RowSize, /*Fixed=*/false, *Surf,
                              Engine, abiPass(In.Print, false, Abi),
                              Sec * 0.5, ClockNs, Log, R);
  printLayerMetrics(L, P, /*Fixed=*/false, R);
  L.set("abi.to_chars.overhead_ratio", P.Times.ratio(3, 2));
  dragon4_scratch_destroy(Abi);
  printCensus(L, In.Print, /*Fixed=*/false, R);

  engine::RecordStream Stream(S);
  L.set("engine.stream.ns", medianNsPer(Sec * 0.05, In.Print.size(), [&] {
          Stream.clear();
          for (const PrintItem &Item : In.Print)
            dispatch(Item.Format, [&](auto Tag) {
              using T = decltype(Tag);
              Sink<size_t> = Stream.push(decode<T>(Item));
            });
        }));

  // Sampling on (every conversion) versus off, same Scratch, interleaved.
  Rounds Obs = interleave(Sec * 0.1, {[&] {
                                        obs::config().SampleEvery = 1;
                                        Engine();
                                        obs::config().SampleEvery = 0;
                                      },
                                      Engine});
  L.set("obs.sampled.ns", Obs.scaledDeltaPer(0, 1, In.Print.size()));

  batchLayer(L, In.Print, Sec * 0.1, R);
  schryerReference(L, In.Schryer, Sec * 0.1);
  printBaselines(L, In.Print, /*Fixed=*/false, Sec * 0.1);
  Surf->tearDown();
}

void ledgerFixed(const Options &Opts, const Inputs &In, Ledger &L,
                 SpanLog &Log, double ClockNs, Result &R) {
  const double Sec = Opts.Seconds;
  std::unique_ptr<Surface> Surf = makeSurface(In);
  Surf->setUp();
  R.Failed += Surf->validate();
  engine::Scratch S;
  dragon4_scratch *Abi = dragon4_scratch_create();
  PrintRounds P = printRounds(In.Print, RowSize, /*Fixed=*/true, *Surf,
                              enginePass(In.Print, true, S),
                              abiPass(In.Print, true, Abi), Sec * 0.8,
                              ClockNs, Log, R);
  printLayerMetrics(L, P, /*Fixed=*/true, R);
  L.set("abi.to_chars_fixed.overhead_ratio", P.Times.ratio(3, 2));
  dragon4_scratch_destroy(Abi);
  printCensus(L, In.Print, /*Fixed=*/true, R);
  printBaselines(L, In.Print, /*Fixed=*/true, Sec * 0.15);
  Surf->tearDown();
}

template <typename Fn> void forLiteral(const ParseItem &Item, Fn &&Body) {
  if (Item.Format == DRAGON4_FORMAT_BINARY32)
    Body(float());
  else
    Body(double());
}

void ledgerParse(const Options &Opts, const Inputs &In, Ledger &L,
                 SpanLog &Log, Result &R) {
  const double Sec = Opts.Seconds;
  std::unique_ptr<Surface> Surf = makeSurface(In);
  Surf->setUp();
  R.Failed += Surf->validate();

  // The Eisel-Lemire population: literals whose significand fits 19
  // digits.  parse_float, eisel_lemire and the baselines share it.
  std::vector<const ParseItem *> Fast, Mid;
  size_t FastBytes = 0;
  for (const ParseItem &Item : In.Parse) {
    if (Item.Midpoint)
      Mid.push_back(&Item);
    else if (Item.HasQW) {
      Fast.push_back(&Item);
      FastBytes += Item.Length;
    }
  }

  // Staged: per row, a parse span over the fast-path literals and a
  // reader span over the midpoints (parseFloat's exact fallback).
  std::vector<double> RequestNs;
  uint32_t Id = 0;
  auto Staged = [&] {
    double Total = 0;
    for (size_t Row = 0; Row < In.Parse.size(); Row += RowSize, ++Id) {
      const size_t End = std::min(Row + RowSize, In.Parse.size());
      uint64_t Bits[RowSize] = {};
      bool Midpoints = false;
      const int64_t T0 = nowNs();
      for (size_t I = Row; I < End; ++I) {
        if (In.Parse[I].Midpoint) {
          Midpoints = true;
          continue;
        }
        forLiteral(In.Parse[I], [&](auto Tag) {
          using T = decltype(Tag);
          uint64_t Hi = 0;
          FormatTraits<T>::encodingBits(
              parse::parseFloat<T>(In.literal(In.Parse[I]), nullptr).Value,
              Bits[I - Row], Hi);
        });
      }
      const int64_t T1 = nowNs();
      for (size_t I = Row; Midpoints && I < End; ++I)
        if (In.Parse[I].Midpoint)
          Bits[I - Row] = std::bit_cast<uint64_t>(
              parse::parseFloat<double>(In.literal(In.Parse[I]), nullptr)
                  .Value);
      const int64_t T2 = nowNs();
      Log.add(Id, Request, T0, T2);
      Log.add(Id, Parse, T0, T1);
      if (Midpoints)
        Log.add(Id, Reader, T1, T2);
      Total += static_cast<double>(T2 - T0);
      for (size_t I = Row; I < End; ++I) {
        uint64_t Expected = 0;
        std::memcpy(&Expected, Surf->reference(I).data(), sizeof(Expected));
        R.Failed += Bits[I - Row] != Expected;
      }
      R.Attempted += End - Row;
    }
    RequestNs.push_back(Total);
  };
  auto Untraced = [&] {
    Surf->pass(nullptr);
    R.Failed += Surf->failures();
    R.Attempted += Surf->values();
  };
  auto ParsePass = [&] {
    for (const ParseItem *Item : Fast)
      forLiteral(*Item, [&](auto Tag) {
        using T = decltype(Tag);
        Sink<size_t> =
            parse::parseFloat<T>(In.literal(*Item), nullptr).Consumed;
      });
  };
  auto AbiPass = [&] {
    for (const ParseItem *Item : Fast) {
      uint64_t Lo = 0, Hi = 0;
      dragon4_from_chars(Item->Format, In.Text.data() + Item->Offset,
                         Item->Length, &Lo, &Hi, nullptr);
      Sink<uint64_t> = Lo;
    }
  };
  Rounds P = interleave(Sec * 0.55, {Staged, Untraced, ParsePass, AbiPass});
  L.set("trace.overhead_ratio", overRounds(RequestNs.size(), [&](size_t I) {
          return std::optional<double>(RequestNs[I] / P.Ns[1][I]);
        }));
  const double ParseNs = P.scaledNsPer(2, Fast.size());
  L.set("parse.parse_float.ns", ParseNs);
  L.set("abi.from_chars.overhead_ratio", P.ratio(3, 2));
  L.set("parse.gb_per_s", static_cast<double>(FastBytes) /
                              (ParseNs * static_cast<double>(Fast.size())));
  const double ElNs = medianNsPer(Sec * 0.1, Fast.size(), [&] {
    for (const ParseItem *Item : Fast)
      forLiteral(*Item, [&](auto Tag) {
        using T = decltype(Tag);
        Sink<uint64_t> = parse::eiselLemire<T>(Item->Q, Item->W).Mantissa;
      });
  });
  L.set("parse.eisel_lemire.ns", ElNs);
  L.set("parse.scan.ns", ParseNs - ElNs);
  L.set("reader.read_float.ns", medianNsPer(Sec * 0.1, Mid.size(), [&] {
          for (const ParseItem *Item : Mid)
            Sink<double> = readFloat<double>(In.literal(*Item)).value_or(0);
        }));

  {
    engine::Scratch Fresh;
    for (const ParseItem &Item : In.Parse)
      forLiteral(Item, [&](auto Tag) {
        using T = decltype(Tag);
        parse::parseFloat<T>(In.literal(Item), Fresh);
      });
    Census C(Fresh);
    std::optional<double> Hits = C.get("dragon4_fastparse_hits_total");
    std::optional<double> Attempts =
        C.sum({"dragon4_fastparse_hits_total",
               "dragon4_fastparse_fallback_exact_total",
               "dragon4_fastparse_rejected_total"});
    if (Hits && Attempts && *Attempts > 0)
      L.set("parse.fast.hit_ratio", *Hits / *Attempts);
    if (auto Arena = C.get("dragon4_arena_high_water_bytes"))
      L.set("bigint.arena_high_water_bytes", *Arena);
    C.note(R);
  }

  L.set("baselines.std_from_chars.ns",
        medianNsPer(Sec * 0.05, Fast.size(), [&] {
          for (const ParseItem *Item : Fast)
            forLiteral(*Item, [&](auto Tag) {
              using T = decltype(Tag);
              T V{};
              const char *Begin = In.Text.data() + Item->Offset;
              std::from_chars(Begin, Begin + Item->Length, V);
              Sink<T> = V;
            });
        }));
  L.set("baselines.strtod.ns", medianNsPer(Sec * 0.05, Fast.size(), [&] {
          for (const ParseItem *Item : Fast) {
            const char *Begin = In.Text.data() + Item->Offset;
            if (Item->Format == DRAGON4_FORMAT_BINARY32)
              Sink<float> = std::strtof(Begin, nullptr);
            else
              Sink<double> = std::strtod(Begin, nullptr);
          }
        }));
  Surf->tearDown();
}

} // namespace

Result perfbench::runLedger(const Options &Opts, const Inputs &In) {
  Result R;
  Ledger L;
  SpanLog Log;
  const double ClockNs = clockReadNs();
  if (In.Workload == "print_shortest")
    ledgerShortest(Opts, In, L, Log, ClockNs, R);
  else if (In.Workload == "print_fixed")
    ledgerFixed(Opts, In, L, Log, ClockNs, R);
  else
    ledgerParse(Opts, In, L, Log, R);
  L.emit(R);
  R.Notes.push_back(strprintf(
      "clock read %.1f ns (subtracted from each stage span); trace file: %s",
      ClockNs, Opts.TraceOut.empty() ? "(none)" : Opts.TraceOut.c_str()));
  Log.write(Opts.TraceOut);
  return R;
}
