//===- abi/abi.cpp - Stable C ABI over the conversion engine ----------------===//
//
// Part of libdragon4. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The C entry points are thin, total wrappers over engine::format /
/// engine::formatFixed / parse::parseFloat: argument validation and enum
/// mapping here, all conversion work in the engine, output through the
/// same BufferSink path as every C++ surface -- so dragon4_to_chars is
/// byte-identical to engine::format and toShortest by construction (the
/// differential fuzzer tools/fuzz_to_chars re-proves it every run).
///
/// The required-size contract (DRAGON4_ERR_SIZE instead of a silent clip)
/// falls straight out of the sink: BufferSink counts the full rendering
/// even past the capacity, so the wrapper only compares.
///
//===----------------------------------------------------------------------===//

#include "abi/dragon4_to_chars.h"

#include "engine/engine.h"
#include "fp/format_traits.h"
#include "parse/parse.h"

#include <new>
#include <string_view>

using namespace dragon4;

/// The opaque workspace is exactly an engine Scratch.
struct dragon4_scratch {
  engine::Scratch S;
};

namespace {

// The header's compile-time bounds must be the engine's.
static_assert(DRAGON4_MAX_CHARS10_BINARY16 ==
                  engine::maxShortestBufferSize<Binary16>(10) &&
              DRAGON4_MAX_CHARS10_BINARY32 ==
                  engine::maxShortestBufferSize<float>(10) &&
              DRAGON4_MAX_CHARS10_BINARY64 ==
                  engine::maxShortestBufferSize<double>(10) &&
              DRAGON4_MAX_CHARS10_EXTENDED80 ==
                  engine::maxShortestBufferSize<long double>(10) &&
              DRAGON4_MAX_CHARS10_BINARY128 ==
                  engine::maxShortestBufferSize<Binary128>(10) &&
              DRAGON4_MAX_CHARS10 ==
                  engine::maxShortestBufferSize<Binary128>(10),
              "C-ABI buffer-bound table drifted from the engine");

// The C ties enum mirrors TieBreak's order; boundaries are remapped so
// that all-zeros options mean the library defaults (nearest-even).
static_assert(static_cast<int>(TieBreak::RoundUp) == DRAGON4_TIES_ROUND_UP &&
              static_cast<int>(TieBreak::RoundEven) ==
                  DRAGON4_TIES_ROUND_EVEN &&
              static_cast<int>(TieBreak::RoundDown) ==
                  DRAGON4_TIES_ROUND_DOWN,
              "C-ABI tie enum drifted from TieBreak");

constexpr BoundaryMode BoundaryMap[5] = {
    BoundaryMode::NearestEven,   BoundaryMode::Conservative,
    BoundaryMode::BothInclusive, BoundaryMode::LowInclusive,
    BoundaryMode::HighInclusive,
};

/// Maps C options onto PrintOptions; false on any out-of-range field.
bool resolveOptions(const dragon4_options *In, PrintOptions &Out) {
  Out = PrintOptions{};
  if (!In)
    return true;
  unsigned Base = In->base == 0 ? 10u : In->base;
  if (Base < 2 || Base > 36)
    return false;
  if (In->boundaries > 4 || In->ties > 2)
    return false;
  Out.Base = Base;
  Out.Boundaries = BoundaryMap[In->boundaries];
  Out.Ties = static_cast<TieBreak>(In->ties);
  Out.Marks = In->marks_as_zeros ? MarkStyle::Zeros : MarkStyle::Hash;
  Out.UppercaseDigits = In->uppercase_digits != 0;
  Out.ExponentMarker = In->exponent_marker == 0 ? 'e' : In->exponent_marker;
  return true;
}

template <typename T>
dragon4_status toCharsTyped(engine::Scratch &S, uint64_t Lo, uint64_t Hi,
                            const PrintOptions &Options, char *Buffer,
                            size_t Capacity, size_t *Length) {
  T Value = FormatTraits<T>::fromEncoding(Lo, Hi);
  size_t Required = engine::format(Value, Buffer, Capacity, Options, S);
  *Length = Required;
  return Required <= Capacity ? DRAGON4_OK : DRAGON4_ERR_SIZE;
}

template <typename T>
dragon4_status toCharsFixedTyped(engine::Scratch &S, uint64_t Lo, uint64_t Hi,
                                 int FractionDigits,
                                 const PrintOptions &Options, char *Buffer,
                                 size_t Capacity, size_t *Length) {
  T Value = FormatTraits<T>::fromEncoding(Lo, Hi);
  size_t Required = engine::formatFixed(Value, FractionDigits, Buffer,
                                        Capacity, Options, S);
  *Length = Required;
  return Required <= Capacity ? DRAGON4_OK : DRAGON4_ERR_SIZE;
}

dragon4_status toChars(engine::Scratch &S, dragon4_format Format,
                       uint64_t Lo, uint64_t Hi,
                       const dragon4_options *Options, char *Buffer,
                       size_t Capacity, size_t *Length) {
  if (!Length || (!Buffer && Capacity > 0))
    return DRAGON4_ERR_BAD_ARGUMENT;
  PrintOptions Resolved;
  if (!resolveOptions(Options, Resolved))
    return DRAGON4_ERR_BAD_ARGUMENT;
  switch (Format) {
  case DRAGON4_FORMAT_BINARY16:
    return toCharsTyped<Binary16>(S, Lo, Hi, Resolved, Buffer, Capacity,
                                  Length);
  case DRAGON4_FORMAT_BINARY32:
    return toCharsTyped<float>(S, Lo, Hi, Resolved, Buffer, Capacity, Length);
  case DRAGON4_FORMAT_BINARY64:
    return toCharsTyped<double>(S, Lo, Hi, Resolved, Buffer, Capacity,
                                Length);
  case DRAGON4_FORMAT_EXTENDED80:
    return toCharsTyped<long double>(S, Lo, Hi, Resolved, Buffer, Capacity,
                                     Length);
  case DRAGON4_FORMAT_BINARY128:
    return toCharsTyped<Binary128>(S, Lo, Hi, Resolved, Buffer, Capacity,
                                   Length);
  }
  return DRAGON4_ERR_BAD_ARGUMENT;
}

dragon4_status toCharsFixed(engine::Scratch &S, dragon4_format Format,
                            uint64_t Lo, uint64_t Hi, int FractionDigits,
                            const dragon4_options *Options, char *Buffer,
                            size_t Capacity, size_t *Length) {
  if (!Length || (!Buffer && Capacity > 0) || FractionDigits < 0)
    return DRAGON4_ERR_BAD_ARGUMENT;
  PrintOptions Resolved;
  if (!resolveOptions(Options, Resolved))
    return DRAGON4_ERR_BAD_ARGUMENT;
  switch (Format) {
  case DRAGON4_FORMAT_BINARY16:
    return toCharsFixedTyped<Binary16>(S, Lo, Hi, FractionDigits, Resolved,
                                       Buffer, Capacity, Length);
  case DRAGON4_FORMAT_BINARY32:
    return toCharsFixedTyped<float>(S, Lo, Hi, FractionDigits, Resolved,
                                    Buffer, Capacity, Length);
  case DRAGON4_FORMAT_BINARY64:
    return toCharsFixedTyped<double>(S, Lo, Hi, FractionDigits, Resolved,
                                     Buffer, Capacity, Length);
  case DRAGON4_FORMAT_EXTENDED80:
    return toCharsFixedTyped<long double>(S, Lo, Hi, FractionDigits, Resolved,
                                          Buffer, Capacity, Length);
  case DRAGON4_FORMAT_BINARY128:
    return toCharsFixedTyped<Binary128>(S, Lo, Hi, FractionDigits, Resolved,
                                        Buffer, Capacity, Length);
  }
  return DRAGON4_ERR_BAD_ARGUMENT;
}

template <typename T>
dragon4_status fromCharsTyped(const char *Text, size_t TextLength,
                              uint64_t *Lo, uint64_t *Hi, size_t *Consumed) {
  parse::ParseResult<T> Result = parse::parseFloat<T>(
      std::string_view(Text, TextLength),
      static_cast<engine::EngineStats *>(nullptr));
  if (Consumed)
    *Consumed = Result.Consumed;
  if (!Result.ok())
    return DRAGON4_ERR_MALFORMED;
  FormatTraits<T>::encodingBits(Result.Value, *Lo, *Hi);
  return DRAGON4_OK;
}

} // namespace

extern "C" {

size_t dragon4_max_chars(dragon4_format format, unsigned base) {
  unsigned Base = base == 0 ? 10u : base;
  if (Base < 2 || Base > 36)
    return 0;
  switch (format) {
  case DRAGON4_FORMAT_BINARY16:
    return engine::maxShortestBufferSize<Binary16>(Base);
  case DRAGON4_FORMAT_BINARY32:
    return engine::maxShortestBufferSize<float>(Base);
  case DRAGON4_FORMAT_BINARY64:
    return engine::maxShortestBufferSize<double>(Base);
  case DRAGON4_FORMAT_EXTENDED80:
    return engine::maxShortestBufferSize<long double>(Base);
  case DRAGON4_FORMAT_BINARY128:
    return engine::maxShortestBufferSize<Binary128>(Base);
  }
  return 0;
}

dragon4_scratch *dragon4_scratch_create(void) {
  return new (std::nothrow) dragon4_scratch;
}

void dragon4_scratch_destroy(dragon4_scratch *scratch) { delete scratch; }

dragon4_status dragon4_to_chars(dragon4_format format, uint64_t bits_lo,
                                uint64_t bits_hi,
                                const dragon4_options *options, char *buffer,
                                size_t capacity, size_t *length) {
  // The calling thread's Scratch is what makes the plain entry points
  // reentrant across threads with no locking and no caller bookkeeping.
  return toChars(engine::threadScratch(), format, bits_lo, bits_hi, options,
                 buffer, capacity, length);
}

dragon4_status dragon4_to_chars_scratch(dragon4_scratch *scratch,
                                        dragon4_format format,
                                        uint64_t bits_lo, uint64_t bits_hi,
                                        const dragon4_options *options,
                                        char *buffer, size_t capacity,
                                        size_t *length) {
  if (!scratch)
    return DRAGON4_ERR_BAD_ARGUMENT;
  return toChars(scratch->S, format, bits_lo, bits_hi, options, buffer,
                 capacity, length);
}

dragon4_status dragon4_to_chars_fixed(dragon4_format format,
                                      uint64_t bits_lo, uint64_t bits_hi,
                                      int fraction_digits,
                                      const dragon4_options *options,
                                      char *buffer, size_t capacity,
                                      size_t *length) {
  return toCharsFixed(engine::threadScratch(), format, bits_lo, bits_hi,
                      fraction_digits, options, buffer, capacity, length);
}

dragon4_status dragon4_to_chars_fixed_scratch(dragon4_scratch *scratch,
                                              dragon4_format format,
                                              uint64_t bits_lo,
                                              uint64_t bits_hi,
                                              int fraction_digits,
                                              const dragon4_options *options,
                                              char *buffer, size_t capacity,
                                              size_t *length) {
  if (!scratch)
    return DRAGON4_ERR_BAD_ARGUMENT;
  return toCharsFixed(scratch->S, format, bits_lo, bits_hi, fraction_digits,
                      options, buffer, capacity, length);
}

dragon4_status dragon4_from_chars(dragon4_format format, const char *text,
                                  size_t text_length, uint64_t *bits_lo,
                                  uint64_t *bits_hi, size_t *consumed) {
  if (!bits_lo || !bits_hi || (!text && text_length > 0))
    return DRAGON4_ERR_BAD_ARGUMENT;
  switch (format) {
  case DRAGON4_FORMAT_BINARY16:
    return fromCharsTyped<Binary16>(text, text_length, bits_lo, bits_hi,
                                    consumed);
  case DRAGON4_FORMAT_BINARY32:
    return fromCharsTyped<float>(text, text_length, bits_lo, bits_hi,
                                 consumed);
  case DRAGON4_FORMAT_BINARY64:
    return fromCharsTyped<double>(text, text_length, bits_lo, bits_hi,
                                  consumed);
  case DRAGON4_FORMAT_EXTENDED80:
    return fromCharsTyped<long double>(text, text_length, bits_lo, bits_hi,
                                       consumed);
  case DRAGON4_FORMAT_BINARY128:
    return fromCharsTyped<Binary128>(text, text_length, bits_lo, bits_hi,
                                     consumed);
  }
  return DRAGON4_ERR_BAD_ARGUMENT;
}

dragon4_status dragon4_double_to_chars(double value, char *buffer,
                                       size_t capacity, size_t *length) {
  uint64_t Lo, Hi;
  FormatTraits<double>::encodingBits(value, Lo, Hi);
  return dragon4_to_chars(DRAGON4_FORMAT_BINARY64, Lo, Hi, nullptr, buffer,
                          capacity, length);
}

dragon4_status dragon4_float_to_chars(float value, char *buffer,
                                      size_t capacity, size_t *length) {
  uint64_t Lo, Hi;
  FormatTraits<float>::encodingBits(value, Lo, Hi);
  return dragon4_to_chars(DRAGON4_FORMAT_BINARY32, Lo, Hi, nullptr, buffer,
                          capacity, length);
}

dragon4_status dragon4_chars_to_double(const char *text, size_t text_length,
                                       double *value, size_t *consumed) {
  if (!value)
    return DRAGON4_ERR_BAD_ARGUMENT;
  uint64_t Lo = 0, Hi = 0;
  dragon4_status Status = dragon4_from_chars(DRAGON4_FORMAT_BINARY64, text,
                                             text_length, &Lo, &Hi, consumed);
  if (Status == DRAGON4_OK)
    *value = FormatTraits<double>::fromEncoding(Lo, Hi);
  return Status;
}

dragon4_status dragon4_chars_to_float(const char *text, size_t text_length,
                                      float *value, size_t *consumed) {
  if (!value)
    return DRAGON4_ERR_BAD_ARGUMENT;
  uint64_t Lo = 0, Hi = 0;
  dragon4_status Status = dragon4_from_chars(DRAGON4_FORMAT_BINARY32, text,
                                             text_length, &Lo, &Hi, consumed);
  if (Status == DRAGON4_OK)
    *value = FormatTraits<float>::fromEncoding(Lo, Hi);
  return Status;
}

} // extern "C"
