//===- engine/engine.cpp - Zero-allocation conversion engine ----------------===//
//
// Part of libdragon4. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The single-value engine layer, one template over all five formats and
/// every output sink.  The conversion core is untouched: this file routes
/// it through reusable storage (Scratch's arena and digit buffers) and
/// renders the resulting digits through the render_core templates.
/// formatInto (shortest) and formatFixedInto (fixed) are the two
/// writer-generic bodies; format()/formatFixed() (BufferSink), the
/// StringTable batch path (format() per slot), RecordStream::push
/// (StreamSink), and the string API's toShortest/toFixed (StringSink) are
/// their instantiations.  toPrecision/toExponential live here too, so the
/// PrintOptions mapping and the special-value rendering exist once.
///
//===----------------------------------------------------------------------===//

#include "engine/engine.h"

#include "core/fixed_format.h"
#include "core/free_format.h"
#include "fastpath/ryu.h"
#include "format/render_core.h"
#include "obs/trace.h"
#include "prof/phase.h"
#include "support/checks.h"

#include <span>
#include <type_traits>

using namespace dragon4;
using namespace dragon4::engine;

namespace dragon4::engine {

/// Engine-internal accessor for Scratch's private storage (befriended by
/// Scratch; keeps the reusable buffers out of the public surface).
struct ScratchAccess {
  static EngineStats &stats(Scratch &S) { return S.Stats; }
  static std::vector<uint8_t> &ryuDigits(Scratch &S) { return S.RyuDigits; }
  static DigitLoopResult &loop(Scratch &S) { return S.Loop; }
  static DigitString &fixedDigits(Scratch &S) { return S.FixedDigits; }
};

} // namespace dragon4::engine

namespace {

RenderOptions renderOptionsFrom(const PrintOptions &Options) {
  RenderOptions Render;
  Render.Base = Options.Base;
  Render.ExponentMarker = Options.ExponentMarker;
  Render.MarkChar = Options.Marks == MarkStyle::Hash ? '#' : '0';
  Render.UppercaseDigits = Options.UppercaseDigits;
  return Render;
}

FreeFormatOptions freeOptionsFrom(const PrintOptions &Options) {
  FreeFormatOptions Free;
  Free.Base = Options.Base;
  Free.Boundaries = Options.Boundaries;
  Free.Ties = Options.Ties;
  Free.Scaling = Options.Scaling;
  return Free;
}

FixedFormatOptions fixedOptionsFrom(const PrintOptions &Options) {
  FixedFormatOptions Fixed;
  Fixed.Base = Options.Base;
  Fixed.Boundaries = Options.Boundaries;
  Fixed.Ties = Options.Ties;
  return Fixed;
}

void recordSlowDigits(EngineStats &Stats, size_t NumDigits) {
  constexpr size_t Last = EngineStats::DigitBuckets - 1;
  size_t Bucket = NumDigits < Last ? NumDigits : Last;
  ++Stats.SlowDigitLength[Bucket];
}

/// Writes NaN / infinity / zero, or returns false for finite non-zero
/// values.  \p writeZero emits the surface-specific zero text (sign already
/// written).
template <typename T, Sink W, typename WriteZero>
bool putSpecial(W &Out, T Value, WriteZero writeZero) {
  switch (classify(Value)) {
  case FpClass::NaN:
    Out.literal("nan");
    return true;
  case FpClass::Infinity:
    Out.literal(signBit(Value) ? "-inf" : "inf");
    return true;
  case FpClass::Zero:
    if (signBit(Value))
      Out.put('-');
    writeZero();
    return true;
  case FpClass::Normal:
  case FpClass::Subnormal:
    break;
  }
  return false;
}

/// "0", then \p FractionDigits zeros after a radix point when positive.
template <Sink W> void putZero(W &Out, int FractionDigits) {
  Out.put('0');
  if (FractionDigits > 0) {
    Out.put('.');
    Out.fill(static_cast<size_t>(FractionDigits), '0');
  }
}

/// Bookkeeping around one engine call.  Draws the 1-in-N observability
/// sample; a sampled conversion gets this Scratch's trace and phase
/// collector installed and is recorded at finish(), an unsampled one
/// leaves whatever is installed (tests and the verify harness install
/// their own) in place.  The frame also owns the call's Total phase span,
/// which opens after the sampling prologue and closes in finish() before
/// the sample is recorded: the profile covers the conversion, not its own
/// telemetry.  With DRAGON4_OBS off only the truncation count and the
/// length remain.
class CallFrame {
public:
  // Every body instantiation constructs one, so GCC's size heuristics
  // leave this out of line, which costs about 5 ns per conversion.
  [[gnu::always_inline]] CallFrame(Scratch &S, const PrintOptions &Options,
                                   obs::Path Initial)
#if DRAGON4_OBS_ENABLED
      : Obs(S.obsState()), Sampled(Obs.tick()),
        StartNs(Sampled ? begin(Options) : 0),
        TraceScope(Sampled ? &Obs.Current : obs::activeTrace()),
        ProfScope(Sampled ? &Obs.Phases : prof::activePhaseCollector()),
        Total(prof::Phase::Total), PathKind(Initial)
#endif
  {
#if !DRAGON4_OBS_ENABLED
    (void)S;
    (void)Options;
    (void)Initial;
#endif
  }

  void setPath([[maybe_unused]] obs::Path P) {
#if DRAGON4_OBS_ENABLED
    PathKind = P;
#endif
  }

  /// Closes out the call: ends the Total span, counts truncation (bounded
  /// sinks only -- an unbounded sink never overflows), records a sampled
  /// conversion, and returns the call's length relative to \p Start.
  template <typename T, typename W>
  size_t finish(T Value, const W &Out, size_t Start, EngineStats &Stats) {
#if DRAGON4_OBS_ENABLED
    Total.close();
#endif
    const bool Truncated = sinkOverflowed(Out);
    if (Truncated)
      ++Stats.Truncated;
#if DRAGON4_OBS_ENABLED
    if (Sampled) {
      uint64_t BitsLo, BitsHi;
      FormatTraits<T>::encodingBits(Value, BitsLo, BitsHi);
      Obs.finishConversion(Obs.Current, PathKind, FormatTraits<T>::Id, BitsLo,
                           BitsHi, StartNs, obs::nowNanos() - StartNs,
                           Truncated, /*Mismatch=*/false);
    }
#else
    (void)Value;
#endif
    return Out.written() - Start;
  }

#if DRAGON4_OBS_ENABLED
private:
  uint64_t begin(const PrintOptions &Options) {
    Obs.Current.reset();
    // Stamp the active options so a tail-exemplar capture can name the
    // exact configuration that was slow.
    Obs.Current.noteOptions(
        Options.Base, obs::exemplar::packOptionsMode(
                          static_cast<unsigned>(Options.Boundaries),
                          static_cast<unsigned>(Options.Ties)));
    return obs::nowNanos();
  }

  obs::ObsState &Obs;
  const bool Sampled;
  const uint64_t StartNs;
  obs::ActiveTraceScope TraceScope;
  prof::PhaseScope ProfScope;
  prof::PhaseSpan Total;
  obs::Path PathKind;
#endif
};

} // namespace

Scratch &dragon4::engine::threadScratch() {
  thread_local Scratch S;
  return S;
}

template <typename T, typename W>
size_t dragon4::engine::formatInto(T Value, const PrintOptions &Options,
                                   Scratch &S, W &Out) {
  using Traits = IeeeTraits<T>;
  using Format = FormatTraits<T>;
  EngineStats &Stats = ScratchAccess::stats(S);
  // A StreamSink arrives mid-stream; everything below reports lengths
  // relative to this call's first byte.
  const size_t Start = Out.written();
  CallFrame Frame(S, Options, obs::Path::Unknown);

  bool Negative = false;
  {
    D4_PROF_SPAN(Decompose);
    if (putSpecial(Out, Value, [&Out] { Out.put('0'); })) {
      ++Stats.Specials;
      Frame.setPath(obs::Path::Special);
      return Frame.finish(Value, Out, Start, Stats);
    }
    Negative = signBit(Value);
  }

  // All BigInt limbs below come from the Scratch arena; the scope rewinds
  // it on every exit path.  Wide mantissas (DecomposedBig's BigInt) live
  // inside the scope so their limbs are arena-backed too -- D is declared
  // after Scope and therefore destroyed before the arena rewinds.
  ConversionScope Scope(S);

  using DecompT =
      std::conditional_t<Format::WideMantissa, DecomposedBig, Decomposed>;
  DecompT D;
  {
    D4_PROF_SPAN(Decompose);
    if constexpr (Format::WideMantissa)
      D = decomposeBig(Value);
    else
      D = decompose(Value);
  }

  std::span<const uint8_t> Digits;
  int K = 0;
  // Two rungs: Ryu for base-10 symmetric reader models on binary16/32/64
  // (it never refuses; see ryu.h), the exact loop for everything else.
  // The RyuPath phase span lives inside ryuShortestInto.
  bool Ryu = false;
  if constexpr (!Format::WideMantissa && Format::RyuCertified) {
    bool AcceptBounds = false;
    if (ryuEligible(Options.Base, Options.Boundaries, (D.F & 1) == 0,
                    AcceptBounds)) {
      ryuShortestInto(D.F, D.E, Traits::Precision, Traits::MinExponent,
                      AcceptBounds, Options.Ties, ScratchAccess::ryuDigits(S),
                      K);
      Ryu = true;
    }
  }
  if (Ryu) {
    ++Stats.RyuHits;
    Digits = ScratchAccess::ryuDigits(S);
    Frame.setPath(obs::Path::Ryu);
#if DRAGON4_OBS_ENABLED
    if (auto *Trace = obs::activeTrace()) {
      // Ryu bypasses the digit loop's trace point.
      Trace->DigitsEmitted = static_cast<uint32_t>(Digits.size());
      Trace->FinalK = K;
    }
#endif
  } else {
    ++Stats.SlowPathDirect;
    Frame.setPath(obs::Path::SlowDirect);
    DigitLoopResult &Loop = ScratchAccess::loop(S);
    if constexpr (Format::WideMantissa)
      K = freeFormatDigitsBigInto(D.F, D.E, Traits::Precision,
                                  Traits::MinExponent,
                                  freeOptionsFrom(Options), Loop);
    else
      K = freeFormatDigitsInto(D.F, D.E, Traits::Precision,
                               Traits::MinExponent, freeOptionsFrom(Options),
                               Loop);
    Digits = Loop.Digits;
    recordSlowDigits(Stats, Digits.size());
  }
  ++Stats.Conversions;
  ++Stats.FormatConversions[static_cast<int>(Format::Id)];

  {
    D4_PROF_SPAN(Render);
    render_detail::renderAutoInto(Out, Digits, K, /*TrailingMarks=*/0,
                                  Negative, renderOptionsFrom(Options));
  }
  S.syncArenaStats();
  return Frame.finish(Value, Out, Start, Stats);
}

template <typename T, typename W>
size_t dragon4::engine::formatFixedInto(T Value, int FractionDigits,
                                        const PrintOptions &Options,
                                        Scratch &S, W &Out) {
  D4_ASSERT(FractionDigits >= 0, "negative fraction-digit count");
  using Format = FormatTraits<T>;
  EngineStats &Stats = ScratchAccess::stats(S);
  const size_t Start = Out.written();
  CallFrame Frame(S, Options, obs::Path::Fixed);

  if (putSpecial(Out, Value, [&] { putZero(Out, FractionDigits); })) {
    ++Stats.Specials;
    Frame.setPath(obs::Path::Special);
    return Frame.finish(Value, Out, Start, Stats);
  }

  ConversionScope Scope(S);
  // Scratch-resident loop state and positional result: warm calls reuse
  // both digit buffers, so the fixed path is allocation-free like the
  // shortest path (the BigInt limbs come from the arena).
  DigitString &Digits = ScratchAccess::fixedDigits(S);
  fixedDigitsAbsoluteInto(Value, -FractionDigits, fixedOptionsFrom(Options),
                          ScratchAccess::loop(S), Digits);
  ++Stats.Conversions;
  ++Stats.FormatConversions[static_cast<int>(Format::Id)];
  ++Stats.SlowPathDirect;
  recordSlowDigits(Stats, Digits.Digits.size());

  {
    D4_PROF_SPAN(Render);
    // A conversion that stopped at -FractionDigits always shows exactly
    // FractionDigits places.
    render_detail::renderPositionalInto(Out, Digits.Digits, Digits.K,
                                        Digits.TrailingMarks, signBit(Value),
                                        renderOptionsFrom(Options));
  }
  S.syncArenaStats();
  return Frame.finish(Value, Out, Start, Stats);
}

template <typename T>
size_t dragon4::engine::format(T Value, char *Buffer, size_t BufferSize,
                               const PrintOptions &Options, Scratch &S) {
  BufferSink Out(Buffer, BufferSize);
  return formatInto(Value, Options, S, Out);
}

template <typename T>
size_t dragon4::engine::formatFixed(T Value, int FractionDigits, char *Buffer,
                                    size_t BufferSize,
                                    const PrintOptions &Options, Scratch &S) {
  BufferSink Out(Buffer, BufferSize);
  return formatFixedInto(Value, FractionDigits, Options, S, Out);
}

//===----------------------------------------------------------------------===//
// The string API (declared in format/dtoa.h)
//===----------------------------------------------------------------------===//

template <typename T>
std::string dragon4::toShortest(T Value, const PrintOptions &Options) {
  StringSink Out;
  formatInto(Value, Options, threadScratch(), Out);
  return std::move(Out.Out);
}

template <typename T>
std::string dragon4::toFixed(T Value, int FractionDigits,
                             const PrintOptions &Options) {
  StringSink Out;
  formatFixedInto(Value, FractionDigits, Options, threadScratch(), Out);
  return std::move(Out.Out);
}

template <typename T>
std::string dragon4::toPrecision(T Value, int SignificantDigits,
                                 const PrintOptions &Options) {
  D4_ASSERT(SignificantDigits >= 1, "need at least one significant digit");
  StringSink Out;
  if (!putSpecial(Out, Value, [&] { putZero(Out, SignificantDigits - 1); })) {
    DigitString Digits = fixedDigitsRelative(Value, SignificantDigits,
                                             fixedOptionsFrom(Options));
    render_detail::renderAutoInto(Out, Digits.Digits, Digits.K,
                                  Digits.TrailingMarks, signBit(Value),
                                  renderOptionsFrom(Options));
  }
  return std::move(Out.Out);
}

template <typename T>
std::string dragon4::toExponential(T Value, int FractionDigits,
                                   const PrintOptions &Options) {
  D4_ASSERT(FractionDigits >= 0, "negative fraction-digit count");
  StringSink Out;
  if (!putSpecial(Out, Value, [&] {
        putZero(Out, FractionDigits);
        Out.put(Options.ExponentMarker);
        Out.literal("+0");
      })) {
    DigitString Digits = fixedDigitsRelative(Value, FractionDigits + 1,
                                             fixedOptionsFrom(Options));
    render_detail::renderScientificInto(Out, Digits.Digits, Digits.K,
                                        Digits.TrailingMarks, signBit(Value),
                                        renderOptionsFrom(Options));
  }
  return std::move(Out.Out);
}

namespace dragon4::engine {

template size_t formatInto<Binary16, BufferSink>(Binary16,
                                                 const PrintOptions &,
                                                 Scratch &, BufferSink &);
template size_t formatInto<float, BufferSink>(float, const PrintOptions &,
                                              Scratch &, BufferSink &);
template size_t formatInto<double, BufferSink>(double, const PrintOptions &,
                                               Scratch &, BufferSink &);
template size_t formatInto<long double, BufferSink>(long double,
                                                    const PrintOptions &,
                                                    Scratch &, BufferSink &);
template size_t formatInto<Binary128, BufferSink>(Binary128,
                                                  const PrintOptions &,
                                                  Scratch &, BufferSink &);
template size_t formatInto<Binary16, StreamSink>(Binary16,
                                                 const PrintOptions &,
                                                 Scratch &, StreamSink &);
template size_t formatInto<float, StreamSink>(float, const PrintOptions &,
                                              Scratch &, StreamSink &);
template size_t formatInto<double, StreamSink>(double, const PrintOptions &,
                                               Scratch &, StreamSink &);
template size_t formatInto<long double, StreamSink>(long double,
                                                    const PrintOptions &,
                                                    Scratch &, StreamSink &);
template size_t formatInto<Binary128, StreamSink>(Binary128,
                                                  const PrintOptions &,
                                                  Scratch &, StreamSink &);

template size_t formatFixedInto<Binary16, BufferSink>(Binary16, int,
                                                      const PrintOptions &,
                                                      Scratch &, BufferSink &);
template size_t formatFixedInto<float, BufferSink>(float, int,
                                                   const PrintOptions &,
                                                   Scratch &, BufferSink &);
template size_t formatFixedInto<double, BufferSink>(double, int,
                                                    const PrintOptions &,
                                                    Scratch &, BufferSink &);
template size_t formatFixedInto<long double, BufferSink>(long double, int,
                                                         const PrintOptions &,
                                                         Scratch &,
                                                         BufferSink &);
template size_t formatFixedInto<Binary128, BufferSink>(Binary128, int,
                                                       const PrintOptions &,
                                                       Scratch &,
                                                       BufferSink &);

template size_t format<Binary16>(Binary16, char *, size_t,
                                 const PrintOptions &, Scratch &);
template size_t format<float>(float, char *, size_t, const PrintOptions &,
                              Scratch &);
template size_t format<double>(double, char *, size_t, const PrintOptions &,
                               Scratch &);
template size_t format<long double>(long double, char *, size_t,
                                    const PrintOptions &, Scratch &);
template size_t format<Binary128>(Binary128, char *, size_t,
                                  const PrintOptions &, Scratch &);
template size_t formatFixed<Binary16>(Binary16, int, char *, size_t,
                                      const PrintOptions &, Scratch &);
template size_t formatFixed<float>(float, int, char *, size_t,
                                   const PrintOptions &, Scratch &);
template size_t formatFixed<double>(double, int, char *, size_t,
                                    const PrintOptions &, Scratch &);
template size_t formatFixed<long double>(long double, int, char *, size_t,
                                         const PrintOptions &, Scratch &);
template size_t formatFixed<Binary128>(Binary128, int, char *, size_t,
                                       const PrintOptions &, Scratch &);

} // namespace dragon4::engine

namespace dragon4 {

template std::string toShortest<Binary16>(Binary16, const PrintOptions &);
template std::string toShortest<float>(float, const PrintOptions &);
template std::string toShortest<double>(double, const PrintOptions &);
template std::string toShortest<long double>(long double,
                                             const PrintOptions &);
template std::string toShortest<Binary128>(Binary128, const PrintOptions &);
template std::string toFixed<Binary16>(Binary16, int, const PrintOptions &);
template std::string toFixed<float>(float, int, const PrintOptions &);
template std::string toFixed<double>(double, int, const PrintOptions &);
template std::string toFixed<long double>(long double, int,
                                          const PrintOptions &);
template std::string toFixed<Binary128>(Binary128, int, const PrintOptions &);
template std::string toPrecision<Binary16>(Binary16, int,
                                           const PrintOptions &);
template std::string toPrecision<float>(float, int, const PrintOptions &);
template std::string toPrecision<double>(double, int, const PrintOptions &);
template std::string toPrecision<long double>(long double, int,
                                              const PrintOptions &);
template std::string toPrecision<Binary128>(Binary128, int,
                                            const PrintOptions &);
template std::string toExponential<Binary16>(Binary16, int,
                                             const PrintOptions &);
template std::string toExponential<float>(float, int, const PrintOptions &);
template std::string toExponential<double>(double, int, const PrintOptions &);
template std::string toExponential<long double>(long double, int,
                                                const PrintOptions &);
template std::string toExponential<Binary128>(Binary128, int,
                                              const PrintOptions &);

} // namespace dragon4
