//===- testgen/halfway_literals.cpp - Decimal halfway points --------------===//
//
// Part of libdragon4. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "testgen/halfway_literals.h"

#include "bigint/bigint.h"
#include "fp/ieee_traits.h"
#include "support/checks.h"

#include <charconv>
#include <cstdlib>
#include <type_traits>

namespace dragon4 {

template <typename T> DecimalLiteral halfwayAbove(uint64_t Lower) {
  using Traits = IeeeTraits<T>;
  const int64_t Biased = static_cast<int64_t>(Lower >> Traits::StoredBits);
  uint64_t M = Lower & ((uint64_t(1) << Traits::StoredBits) - 1);
  if (Biased)
    M |= uint64_t(1) << Traits::StoredBits;
  const int64_t G = (Biased ? Biased : 1) - Traits::DecomposedBias - 1;
  BigInt H(2 * M + 1);
  DecimalLiteral Out;
  if (G >= 0) {
    H <<= static_cast<size_t>(G);
  } else {
    H *= BigInt::pow(5u, static_cast<unsigned>(-G));
    Out.Exp10 = G;
  }
  Out.Digits = H.toString();
  for (; Out.Digits.back() == '0'; ++Out.Exp10)
    Out.Digits.pop_back();
  return Out;
}

template DecimalLiteral halfwayAbove<double>(uint64_t);
template DecimalLiteral halfwayAbove<float>(uint64_t);

DecimalLiteral stickyAbove(const DecimalLiteral &D, size_t Pos) {
  D4_ASSERT(Pos > D.Digits.size(), "sticky digit inside the point");
  DecimalLiteral Out = D;
  Out.Digits.append(Pos - D.Digits.size() - 1, '0');
  Out.Digits += '1';
  Out.Exp10 -= static_cast<int64_t>(Pos - D.Digits.size());
  return Out;
}

DecimalLiteral stickyBelow(const DecimalLiteral &D, size_t Pos) {
  D4_ASSERT(Pos > D.Digits.size(), "sticky digit inside the point");
  DecimalLiteral Out = D;
  --Out.Digits.back(); // Never '0': no trailing zero.
  Out.Digits.append(Pos - D.Digits.size(), '9');
  Out.Exp10 -= static_cast<int64_t>(Pos - D.Digits.size());
  return Out;
}

std::string spellLiteral(const DecimalLiteral &D, LiteralSpelling S) {
  const std::string &Digits = D.Digits;
  const int64_t N = static_cast<int64_t>(Digits.size());
  switch (S) {
  case LiteralSpelling::Exponent:
    return Digits + "e" + std::to_string(D.Exp10);
  case LiteralSpelling::Scientific:
    return Digits.substr(0, 1) + (N > 1 ? "." + Digits.substr(1) : "") +
           "e" + std::to_string(D.Exp10 + N - 1);
  case LiteralSpelling::Positional:
    if (D.Exp10 >= 0)
      return Digits + std::string(static_cast<size_t>(D.Exp10), '0');
    if (N + D.Exp10 > 0)
      return Digits.substr(0, static_cast<size_t>(N + D.Exp10)) + "." +
             Digits.substr(static_cast<size_t>(N + D.Exp10));
    return "0." + std::string(static_cast<size_t>(-D.Exp10 - N), '0') +
           Digits;
  }
  return {};
}

template <typename T>
uint64_t fromCharsBits(const std::string &Text, bool &Whole) {
  T Value{};
  std::from_chars_result R =
      std::from_chars(Text.data(), Text.data() + Text.size(), Value);
  Whole = R.ptr == Text.data() + Text.size();
  if (R.ec == std::errc::result_out_of_range) {
    // strtod/strtof saturate exactly where the correctly rounded result
    // is infinity or zero.
    if constexpr (std::is_same_v<T, double>)
      Value = std::strtod(Text.c_str(), nullptr);
    else
      Value = std::strtof(Text.c_str(), nullptr);
  }
  return IeeeTraits<T>::toBits(Value);
}

template uint64_t fromCharsBits<double>(const std::string &, bool &);
template uint64_t fromCharsBits<float>(const std::string &, bool &);

} // namespace dragon4
