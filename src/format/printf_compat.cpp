//===- format/printf_compat.cpp - printf-style formatting --------------------===//
//
// Part of libdragon4. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "format/printf_compat.h"

#include "baselines/fixed17.h"
#include "format/sink.h"
#include "fp/ieee_traits.h"
#include "support/checks.h"

#include <algorithm>
#include <cctype>
#include <string_view>

using namespace dragon4;

namespace {

/// The sign prefix C mandates: '-', or '+'/' ' on request.
std::string signPrefix(bool Negative, const PrintfSpec &Spec) {
  if (Negative)
    return "-";
  if (Spec.ForceSign)
    return "+";
  if (Spec.SpaceSign)
    return " ";
  return "";
}

/// Applies width/justification into any sink: spaces outside, or zeros
/// between the sign and the body when '0' is given (and '-' is not).  The
/// string and caller-buffer surfaces are two instantiations of this one
/// emitter, so their bytes cannot drift.
template <Sink W>
void emitPadded(W &Out, std::string_view Sign, std::string_view Body,
                const PrintfSpec &Spec, bool AllowZeroPad) {
  auto putText = [&Out](std::string_view Text) {
    Out.write(Text.data(), Text.size());
  };
  size_t Have = Sign.size() + Body.size();
  size_t Want = static_cast<size_t>(Spec.Width > 0 ? Spec.Width : 0);
  size_t Fill = Have >= Want ? 0 : Want - Have;
  if (Spec.LeftJustify) {
    putText(Sign);
    putText(Body);
    Out.fill(Fill, ' ');
  } else if (Spec.ZeroPad && AllowZeroPad) {
    putText(Sign);
    Out.fill(Fill, '0');
    putText(Body);
  } else {
    Out.fill(Fill, ' ');
    putText(Sign);
    putText(Body);
  }
}

char digitChar(uint8_t Digit) { return static_cast<char>('0' + Digit); }

/// Renders "d.dddd" from \p Digits with exactly \p FractionDigits places
/// after the point (padding with zeros; the digit vector always has at
/// least one entry).
std::string mantissaText(const std::vector<uint8_t> &Digits,
                         int FractionDigits, bool KeepPoint) {
  std::string Text(1, digitChar(Digits[0]));
  if (FractionDigits > 0 || KeepPoint)
    Text.push_back('.');
  for (int I = 0; I < FractionDigits; ++I) {
    size_t Index = static_cast<size_t>(I) + 1;
    Text.push_back(Index < Digits.size() ? digitChar(Digits[Index]) : '0');
  }
  return Text;
}

/// Appends "e+XX" with at least two exponent digits, C style.
void appendExponent(std::string &Out, int Exponent, bool Uppercase) {
  Out.push_back(Uppercase ? 'E' : 'e');
  Out.push_back(Exponent < 0 ? '-' : '+');
  unsigned Magnitude =
      Exponent < 0 ? static_cast<unsigned>(-Exponent)
                   : static_cast<unsigned>(Exponent);
  std::string DigitsText = std::to_string(Magnitude);
  if (DigitsText.size() < 2)
    DigitsText.insert(DigitsText.begin(), '0');
  Out += DigitsText;
}

/// %e / %E body for a finite non-zero value (the digit machinery is
/// sign-agnostic, so the sign needs no stripping here).
template <typename T>
std::string bodyScientific(T Value, int Precision, bool Uppercase,
                           bool Alternate) {
  DigitString D =
      straightforwardDigits(Value, Precision + 1, 10, TieBreak::RoundEven);
  std::string Out = mantissaText(D.Digits, Precision, Alternate);
  appendExponent(Out, D.K - 1, Uppercase);
  return Out;
}

/// %f / %F body for a finite non-zero value.
template <typename T>
std::string bodyFixed(T Value, int Precision, bool Alternate) {
  DigitString D = straightforwardDigitsAbsolute(Value, -Precision, 10,
                                                TieBreak::RoundEven);
  // D covers positions D.K-1 down to -Precision.
  std::string Out;
  if (D.K <= 0) {
    Out.push_back('0');
  } else {
    for (int I = 0; I < D.K; ++I)
      Out.push_back(digitChar(D.Digits[static_cast<size_t>(I)]));
  }
  if (Precision > 0 || Alternate)
    Out.push_back('.');
  for (int Place = -1; Place >= -Precision; --Place) {
    int Index = D.K - 1 - Place; // Digit index covering this place.
    if (Index < 0 || Index >= static_cast<int>(D.Digits.size()))
      Out.push_back('0');
    else
      Out.push_back(digitChar(D.Digits[static_cast<size_t>(Index)]));
  }
  return Out;
}

/// %g / %G body for a finite non-zero value.
template <typename T>
std::string bodyGeneral(T Value, int Precision, bool Uppercase,
                        bool Alternate) {
  int Significant = Precision < 1 ? 1 : Precision;
  DigitString D =
      straightforwardDigits(Value, Significant, 10, TieBreak::RoundEven);
  int Exponent = D.K - 1;

  std::string Out;
  if (Exponent < -4 || Exponent >= Significant) {
    Out = mantissaText(D.Digits, Significant - 1, Alternate);
    if (!Alternate) {
      // Strip trailing fraction zeros, then a dangling point.
      size_t Point = Out.find('.');
      if (Point != std::string::npos) {
        size_t Last = Out.find_last_not_of('0');
        Out.erase(Last == Point ? Point : Last + 1);
      }
    }
    appendExponent(Out, Exponent, Uppercase);
    return Out;
  }

  // Positional style with Significant - 1 - Exponent fraction digits.
  int FractionDigits = Significant - 1 - Exponent;
  if (D.K <= 0) {
    Out = "0.";
    Out.append(static_cast<size_t>(-D.K), '0');
    for (uint8_t Digit : D.Digits)
      Out.push_back(digitChar(Digit));
  } else {
    for (int I = 0; I < static_cast<int>(D.Digits.size()); ++I) {
      if (I == D.K)
        Out.push_back('.');
      Out.push_back(digitChar(D.Digits[static_cast<size_t>(I)]));
    }
    // All digits were integral: no fraction part was emitted.
    if (static_cast<int>(D.Digits.size()) <= D.K)
      Out.append(static_cast<size_t>(D.K - static_cast<int>(D.Digits.size())),
                 '0');
  }
  if (!Alternate) {
    size_t Point = Out.find('.');
    if (Point != std::string::npos) {
      size_t Last = Out.find_last_not_of('0');
      Out.erase(Last == Point ? Point : Last + 1);
    }
  } else if (Out.find('.') == std::string::npos) {
    Out.push_back('.');
  }
  (void)FractionDigits; // The digit count already encodes it.
  return Out;
}

std::string zeroBody(char Conversion, int Precision, bool Alternate) {
  switch (Conversion) {
  case 'e':
  case 'E': {
    std::string Out = "0";
    if (Precision > 0 || Alternate) {
      Out.push_back('.');
      Out.append(static_cast<size_t>(Precision), '0');
    }
    appendExponent(Out, 0, Conversion == 'E');
    return Out;
  }
  case 'f':
  case 'F': {
    std::string Out = "0";
    if (Precision > 0 || Alternate) {
      Out.push_back('.');
      Out.append(static_cast<size_t>(Precision), '0');
    }
    return Out;
  }
  default: { // g / G
    if (!Alternate)
      return "0";
    int Significant = Precision < 1 ? 1 : Precision;
    std::string Out = "0.";
    Out.append(static_cast<size_t>(Significant - 1), '0');
    return Out;
  }
  }
}

/// One printf conversion rendered into any sink: computes the sign and
/// body (the digit machinery behind the body builders is shared with the
/// baselines layer) and drives the sink-generic padding emitter.
template <typename T, Sink W>
void printfInto(W &Out, T Value, const PrintfSpec &Spec) {
  const char C = Spec.Conversion;
  D4_ASSERT(C == 'e' || C == 'E' || C == 'f' || C == 'F' || C == 'g' ||
                C == 'G',
            "unsupported printf conversion");
  const bool Uppercase = C == 'E' || C == 'F' || C == 'G';
  const int Precision = Spec.Precision < 0 ? 6 : Spec.Precision;
  const bool Negative = signBit(Value);
  std::string Sign = signPrefix(Negative, Spec);

  switch (classify(Value)) {
  case FpClass::NaN:
    // C prints NaN unsigned for positive, "-nan" style is allowed but
    // glibc prints the sign of the NaN; match glibc.
    emitPadded(Out, Sign, Uppercase ? "NAN" : "nan", Spec,
               /*AllowZeroPad=*/false);
    return;
  case FpClass::Infinity:
    emitPadded(Out, Sign, Uppercase ? "INF" : "inf", Spec,
               /*AllowZeroPad=*/false);
    return;
  case FpClass::Zero:
    emitPadded(Out, Sign, zeroBody(C, Precision, Spec.Alternate), Spec, true);
    return;
  case FpClass::Normal:
  case FpClass::Subnormal:
    break;
  }

  std::string Body;
  switch (C) {
  case 'e':
  case 'E':
    Body = bodyScientific(Value, Precision, Uppercase, Spec.Alternate);
    break;
  case 'f':
  case 'F':
    Body = bodyFixed(Value, Precision, Spec.Alternate);
    break;
  default:
    Body = bodyGeneral(Value, Precision, Uppercase, Spec.Alternate);
    break;
  }
  emitPadded(Out, Sign, Body, Spec, /*AllowZeroPad=*/true);
}

PrintfSpec parseSpec(const char *Spec) {
  D4_ASSERT(Spec && *Spec, "empty printf specification");
  PrintfSpec Parsed;
  const char *P = Spec;
  if (*P == '%')
    ++P;
  for (;; ++P) {
    if (*P == '-')
      Parsed.LeftJustify = true;
    else if (*P == '+')
      Parsed.ForceSign = true;
    else if (*P == ' ')
      Parsed.SpaceSign = true;
    else if (*P == '0')
      Parsed.ZeroPad = true;
    else if (*P == '#')
      Parsed.Alternate = true;
    else
      break;
  }
  while (*P >= '0' && *P <= '9')
    Parsed.Width = Parsed.Width * 10 + (*P++ - '0');
  if (*P == '.') {
    ++P;
    Parsed.Precision = 0;
    while (*P >= '0' && *P <= '9')
      Parsed.Precision = Parsed.Precision * 10 + (*P++ - '0');
  }
  D4_ASSERT(*P && P[1] == '\0', "malformed printf specification");
  Parsed.Conversion = *P;
  return Parsed;
}

} // namespace

namespace dragon4 {

template <typename T>
std::string formatPrintf(T Value, const PrintfSpec &Spec) {
  StringSink Out;
  printfInto(Out, Value, Spec);
  return std::move(Out.Out);
}

template <typename T> std::string formatPrintf(T Value, const char *Spec) {
  return formatPrintf(Value, parseSpec(Spec));
}

template <typename T>
size_t formatPrintf(T Value, const PrintfSpec &Spec, char *Buffer,
                    size_t BufferSize) {
  BufferSink Out(Buffer, BufferSize);
  printfInto(Out, Value, Spec);
  return Out.required();
}

template <typename T>
size_t formatPrintf(T Value, const char *Spec, char *Buffer,
                    size_t BufferSize) {
  return formatPrintf(Value, parseSpec(Spec), Buffer, BufferSize);
}

template std::string formatPrintf<Binary16>(Binary16, const PrintfSpec &);
template std::string formatPrintf<float>(float, const PrintfSpec &);
template std::string formatPrintf<double>(double, const PrintfSpec &);
template std::string formatPrintf<long double>(long double,
                                               const PrintfSpec &);
template std::string formatPrintf<Binary128>(Binary128, const PrintfSpec &);

template std::string formatPrintf<Binary16>(Binary16, const char *);
template std::string formatPrintf<float>(float, const char *);
template std::string formatPrintf<double>(double, const char *);
template std::string formatPrintf<long double>(long double, const char *);
template std::string formatPrintf<Binary128>(Binary128, const char *);

template size_t formatPrintf<Binary16>(Binary16, const PrintfSpec &, char *,
                                       size_t);
template size_t formatPrintf<float>(float, const PrintfSpec &, char *,
                                    size_t);
template size_t formatPrintf<double>(double, const PrintfSpec &, char *,
                                     size_t);
template size_t formatPrintf<long double>(long double, const PrintfSpec &,
                                          char *, size_t);
template size_t formatPrintf<Binary128>(Binary128, const PrintfSpec &, char *,
                                        size_t);

template size_t formatPrintf<Binary16>(Binary16, const char *, char *,
                                       size_t);
template size_t formatPrintf<float>(float, const char *, char *, size_t);
template size_t formatPrintf<double>(double, const char *, char *, size_t);
template size_t formatPrintf<long double>(long double, const char *, char *,
                                          size_t);
template size_t formatPrintf<Binary128>(Binary128, const char *, char *,
                                        size_t);

} // namespace dragon4
