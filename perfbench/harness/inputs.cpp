//===- perfbench/harness/inputs.cpp - Seeded workload inputs -----------------===//
//
// Part of libdragon4. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Generates the inputs of every workload from the seed alone.  Text inputs
/// are rendered with the host's std::to_chars and snprintf, never with the
/// library under test, so a change to the library cannot change what it is
/// fed.  The only library code used here is the Schryer pattern generator
/// (testgen/schryer), the paper's Table 2 workload.
///
/// Every mix is stratified: each kind of input appears in an exact count,
/// the parameters that set a value's cost (Schryer exponent, extended80
/// exponent, digit counts, midpoint length, magnitude) are drawn one per
/// equal-width stratum, and a request row holds at most one of the rare
/// costly kinds (extended80 values, midpoints).  The seed picks the values inside the
/// strata and the order, so two seeds give different inputs of the same
/// cost profile, and run-to-run spread measures the program, not the draw.
///
//===----------------------------------------------------------------------===//

#include "bench.h"

#include "testgen/schryer.h"

#include <bit>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>

using namespace perfbench;

namespace {

constexpr size_t ShortestPool = 32768;
constexpr size_t FixedPool = 4096;
constexpr size_t ParsePool = 32768;
constexpr size_t SchryerSubset = 256;

/// Independent streams per input family, so parse_roundtrip reads exactly
/// the values print_shortest and print_fixed print under the same seed.
enum : uint64_t {
  ShortestStream = 0x5348'4f52'5445'5354ull,
  FixedStream = 0x4649'5845'4400'0000ull,
  ParseStream = 0x5041'5253'4500'0000ull,
};

Rng streamRng(uint64_t Seed, uint64_t Stream) {
  Rng Mixer(Seed ^ Stream);
  return Rng(Mixer.next());
}

/// Uniform draw from stratum \p Index of \p Count equal strata of [0, Span).
uint64_t stratum(Rng &R, size_t Index, size_t Count, uint64_t Span) {
  uint64_t Low = Span * Index / Count;
  uint64_t High = Span * (Index + 1) / Count;
  return Low + (High > Low ? R.below(High - Low) : 0);
}

template <typename T> void shuffle(std::vector<T> &Items, Rng &R) {
  for (size_t I = Items.size(); I > 1; --I)
    std::swap(Items[I - 1], Items[R.below(I)]);
}

/// \p Count labels with exact shares: Weights[k] per 1000 of label k.
std::vector<uint8_t> composition(size_t Count,
                                 std::initializer_list<unsigned> Weights,
                                 Rng &R) {
  std::vector<uint8_t> Labels;
  Labels.reserve(Count);
  unsigned Before = 0;
  uint8_t Label = 0;
  for (unsigned W : Weights) {
    size_t From = Count * Before / 1000, To = Count * (Before + W) / 1000;
    Labels.insert(Labels.end(), To - From, Label++);
    Before += W;
  }
  shuffle(Labels, R);
  return Labels;
}

/// Moves the labels \p Rare so that no request row holds two: each surplus
/// one swaps with a common label in a row that holds none.  The rare kinds
/// set request_p99_ns, and a row holding two of them costs about twice as
/// much, so otherwise p99 would follow how many rows the shuffle doubled up.
void oneRarePerRow(std::vector<uint8_t> &Labels, uint8_t Rare, Rng &R) {
  const size_t Rows = (Labels.size() + RowSize - 1) / RowSize;
  std::vector<size_t> InRow(Rows, 0), Empty;
  for (size_t I = 0; I < Labels.size(); ++I)
    InRow[I / RowSize] += Labels[I] == Rare;
  for (size_t Row = 0; Row < Rows; ++Row)
    if (!InRow[Row])
      Empty.push_back(Row);
  shuffle(Empty, R);
  for (size_t I = 0; I < Labels.size() && !Empty.empty(); ++I) {
    if (Labels[I] != Rare || InRow[I / RowSize] < 2)
      continue;
    const size_t First = Empty.back() * RowSize;
    Empty.pop_back();
    const size_t J =
        First + R.below(std::min(Labels.size(), First + RowSize) - First);
    std::swap(Labels[I], Labels[J]);
    --InRow[I / RowSize];
  }
}

double decimalValue(uint64_t Mantissa, int Scale) {
  char Text[48];
  int N = std::snprintf(Text, sizeof(Text), "%llue-%d",
                        static_cast<unsigned long long>(Mantissa), Scale);
  double V = 0;
  std::from_chars(Text, Text + N, V);
  return V;
}

enum Kind : uint8_t { Schryer, Decimal, Float32, Float16, Extended80 };

/// The print_shortest mix: 50% Schryer doubles, 25% decimal-origin doubles
/// (1-7 significant digits), 12% random-bit binary32, 12% random-bit
/// binary16, 1% extended80.  The half, quarter and 1% are the workload's
/// definition; the even binary32/binary16 split of the rest is arbitrary.
std::vector<PrintItem> shortestMix(uint64_t Seed, size_t Count,
                                   std::vector<double> *Subset) {
  Rng R = streamRng(Seed, ShortestStream);
  const std::vector<double> Table = dragon4::schryerDoubles();
  std::vector<uint8_t> Kinds = composition(Count, {500, 250, 120, 120, 10}, R);
  oneRarePerRow(Kinds, Extended80, R);
  size_t Seen[5] = {}, Total[5] = {};
  for (uint8_t K : Kinds)
    ++Total[K];
  std::vector<PrintItem> Items(Count);
  for (size_t I = 0; I < Count; ++I) {
    PrintItem &Item = Items[I];
    const size_t J = Seen[Kinds[I]]++, N = Total[Kinds[I]];
    switch (Kinds[I]) {
    case Schryer: {
      // The table is ordered by pattern then exponent; one pick per
      // stratum covers both.
      double V = Table[stratum(R, J, N, Table.size())];
      Item.Lo = std::bit_cast<uint64_t>(V);
      if (Subset && Subset->size() < SchryerSubset)
        Subset->push_back(V);
      break;
    }
    case Decimal: {
      // Prices and sensor readings: digit count and scale cycle evenly.
      int Digits = 1 + static_cast<int>(J % 7);
      uint64_t Low = 1;
      for (int D = 1; D < Digits; ++D)
        Low *= 10;
      double V = decimalValue(Low + R.below(9 * Low),
                              static_cast<int>((J / 7) % 7));
      Item.Lo = std::bit_cast<uint64_t>(J % 10 == 9 ? -V : V);
      break;
    }
    case Float32: {
      // Random bits over every finite binary32 encoding, either sign, with
      // the exponent field stratified.
      uint32_t Exponent = static_cast<uint32_t>(stratum(R, J, N, 255));
      Item.Format = DRAGON4_FORMAT_BINARY32;
      Item.Lo = (Exponent << 23) | (R.next() & 0x807FFFFFu);
      break;
    }
    case Float16: {
      uint32_t Exponent = static_cast<uint32_t>(stratum(R, J, N, 31));
      Item.Format = DRAGON4_FORMAT_BINARY16;
      Item.Lo = (Exponent << 10) | (R.next() & 0x83FFu);
      break;
    }
    case Extended80: {
      // The only production route into the exact loop; exponents span
      // roughly the binary64 range.
      Item.Format = DRAGON4_FORMAT_EXTENDED80;
      Item.Lo = R.next() | (uint64_t(1) << 63);
      Item.Hi = (16383 - 1000 + stratum(R, J, N, 2001)) | (R.below(2) << 15);
      break;
    }
    }
  }
  return Items;
}

/// The print_fixed mix: binary64 (75%) and binary32 (25%) values log-
/// uniform over [1e-3, 1e9], fraction digits 2 (40%), 6 (30%), 0, 1, 3, 4
/// and 7-17.  The shares are arbitrary choices that make %.2f and %.6f the
/// common cases; they are not taken from measured traffic.
std::vector<PrintItem> fixedMix(uint64_t Seed, size_t Count) {
  Rng R = streamRng(Seed, FixedStream);
  std::vector<uint8_t> Single = composition(Count, {750, 250}, R);
  std::vector<uint8_t> Fraction =
      composition(Count, {400, 300, 50, 50, 50, 30, 120}, R);
  constexpr int Fixed[] = {2, 6, 0, 1, 3, 4};
  std::vector<PrintItem> Items(Count);
  size_t Long = 0;
  for (size_t I = 0; I < Count; ++I) {
    PrintItem &Item = Items[I];
    // Magnitude stratum I of 12 decades starting at 1e-3, rendered and
    // read back so the value does not depend on the host's pow().
    char Text[40];
    std::snprintf(Text, sizeof(Text), "1e%.17g",
                  -3.0 + 12.0 * static_cast<double>(stratum(
                                    R, I, Count, uint64_t(1) << 40)) /
                             0x1.0p40);
    double Magnitude = std::strtod(Text, nullptr);
    bool Negative = I % 10 == 9;
    if (Single[I]) {
      Item.Format = DRAGON4_FORMAT_BINARY32;
      float F = static_cast<float>(Negative ? -Magnitude : Magnitude);
      Item.Lo = std::bit_cast<uint32_t>(F);
    } else {
      Item.Lo = std::bit_cast<uint64_t>(Negative ? -Magnitude : Magnitude);
    }
    Item.Fraction = Fraction[I] < 6 ? Fixed[Fraction[I]]
                                    : 7 + static_cast<int>(Long++ % 11);
  }
  shuffle(Items, R);
  return Items;
}

double asDouble(const PrintItem &Item) {
  return Item.Format == DRAGON4_FORMAT_BINARY32
             ? static_cast<double>(
                   std::bit_cast<float>(static_cast<uint32_t>(Item.Lo)))
             : std::bit_cast<double>(Item.Lo);
}

/// Decimal significand and exponent of a plain literal when the
/// significand, trailing zeros stripped, fits 19 digits.
bool decimalQW(std::string_view Text, int64_t &Q, uint64_t &W) {
  size_t I = 0;
  if (I < Text.size() && (Text[I] == '-' || Text[I] == '+'))
    ++I;
  std::string Digits;
  int64_t Exponent = 0;
  bool SeenDot = false;
  for (; I < Text.size(); ++I) {
    char C = Text[I];
    if (C == '.') {
      SeenDot = true;
      continue;
    }
    if (C == 'e' || C == 'E')
      break;
    if (C < '0' || C > '9')
      return false;
    if (SeenDot)
      --Exponent;
    if (Digits.empty() && C == '0')
      continue; // Leading zero.
    Digits.push_back(C);
  }
  if (I < Text.size())
    Exponent += std::strtoll(std::string(Text.substr(I + 1)).c_str(), nullptr,
                             10);
  while (!Digits.empty() && Digits.back() == '0') {
    Digits.pop_back();
    ++Exponent;
  }
  if (Digits.size() > 19)
    return false;
  W = 0;
  for (char C : Digits)
    W = W * 10 + static_cast<uint64_t>(C - '0');
  Q = Exponent;
  return true;
}

/// The exact decimal midpoint between the normal double x = F * 2^(1 - K)
/// and its successor: (2F + 1) * 5^K * 10^-K, about 16 + 0.7K digits.
std::string midpointLiteral(Rng &R, int K) {
  uint64_t F = (R.next() >> 11) | (uint64_t(1) << 52);
  // Little-endian base-1e9 limbs of 2F + 1, times 5^K.
  std::vector<uint64_t> Limbs;
  unsigned __int128 Odd = static_cast<unsigned __int128>(F) * 2 + 1;
  while (Odd) {
    Limbs.push_back(static_cast<uint64_t>(Odd % 1000000000u));
    Odd /= 1000000000u;
  }
  for (int I = 0; I < K; ++I) {
    uint64_t Carry = 0;
    for (uint64_t &L : Limbs) {
      uint64_t P = L * 5 + Carry;
      L = P % 1000000000u;
      Carry = P / 1000000000u;
    }
    if (Carry)
      Limbs.push_back(Carry);
  }
  std::string Text = std::to_string(Limbs.back());
  char Chunk[16];
  for (size_t I = Limbs.size() - 1; I-- > 0;) {
    std::snprintf(Chunk, sizeof(Chunk), "%09llu",
                  static_cast<unsigned long long>(Limbs[I]));
    Text += Chunk;
  }
  Text += "e-" + std::to_string(K);
  return Text;
}

void addLiteral(Inputs &In, dragon4_format Format, std::string_view Text,
                bool Midpoint) {
  ParseItem Item;
  Item.Format = Format;
  Item.Offset = static_cast<uint32_t>(In.Text.size());
  Item.Length = static_cast<uint32_t>(Text.size());
  Item.Midpoint = Midpoint;
  if (!Midpoint)
    Item.HasQW = decimalQW(Text, Item.Q, Item.W);
  In.Text.append(Text);
  In.Text.push_back('\0');
  In.Parse.push_back(Item);
}

void buildParse(Inputs &In, uint64_t Seed) {
  // Reserved (untouched until written), so the store never reallocates and
  // peak RSS does not jump with where the seed's total length falls.
  In.Text.reserve(size_t(4) << 20);
  In.Parse.reserve(ParsePool);
  Rng R = streamRng(Seed, ParseStream);
  // 1% midpoints, then shortest and fixed renderings 2:1 (an arbitrary
  // split).
  std::vector<uint8_t> Kinds = composition(ParsePool, {10, 660, 330}, R);
  oneRarePerRow(Kinds, 0, R);
  size_t Counts[3] = {};
  for (uint8_t K : Kinds)
    ++Counts[K];
  // Shortest renderings of print_shortest's binary64/binary32 values.
  std::vector<PrintItem> Shortest;
  for (const PrintItem &Item :
       shortestMix(Seed, Counts[1] * 10 / 8, nullptr))
    if (Item.Format == DRAGON4_FORMAT_BINARY64 ||
        Item.Format == DRAGON4_FORMAT_BINARY32)
      Shortest.push_back(Item);
  // Fixed renderings of print_fixed's values (digits, never marks).
  std::vector<PrintItem> Fixed = fixedMix(Seed, Counts[2]);
  size_t Used[3] = {};
  char Text[64];
  for (uint8_t K : Kinds) {
    const size_t J = Used[K]++;
    if (K == 0) {
      // Midpoints 20-770 digits: K from 6 to 1075, log-uniform -- eight
      // power-of-two octaves [6, 12), [12, 24), ..., [768, 1076) in equal
      // counts, then evenly inside each.  An arbitrary choice that keeps
      // the reader's share of ns_per_value small.  One row in six holds a
      // midpoint (never two), so request_p99_ns lands among the rows
      // holding the longest ~6% of them: the upper half of the top octave,
      // about 650-770 digits.
      const int Low = 6 << (J % 8);
      const int High = std::min(1076, 2 * Low);
      const int Exponent =
          Low + static_cast<int>(stratum(R, J / 8, (Counts[0] + 7) / 8,
                                         static_cast<uint64_t>(High - Low)));
      addLiteral(In, DRAGON4_FORMAT_BINARY64, midpointLiteral(R, Exponent),
                 true);
    } else if (K == 1) {
      const PrintItem &Item = Shortest[J % Shortest.size()];
      std::to_chars_result End =
          Item.Format == DRAGON4_FORMAT_BINARY64
              ? std::to_chars(Text, Text + sizeof(Text),
                              std::bit_cast<double>(Item.Lo))
              : std::to_chars(
                    Text, Text + sizeof(Text),
                    std::bit_cast<float>(static_cast<uint32_t>(Item.Lo)));
      addLiteral(In, Item.Format, std::string_view(Text, End.ptr - Text),
                 false);
    } else {
      const PrintItem &Item = Fixed[J];
      int N = std::snprintf(Text, sizeof(Text), "%.*f", Item.Fraction,
                            asDouble(Item));
      addLiteral(In, Item.Format, std::string_view(Text, N), false);
    }
  }
}

template <typename T> void appendBytes(std::string &Out, const T &Value) {
  char Raw[sizeof(T)];
  std::memcpy(Raw, &Value, sizeof(T));
  Out.append(Raw, sizeof(T));
}

} // namespace

bool perfbench::isWorkload(std::string_view Name) {
  return Name == "print_shortest" || Name == "print_fixed" ||
         Name == "parse_roundtrip";
}

Inputs perfbench::makeInputs(std::string_view Workload, uint64_t Seed) {
  Inputs In;
  In.Workload = std::string(Workload);
  if (Workload == "print_shortest") {
    In.Print = shortestMix(Seed, ShortestPool, &In.Schryer);
  } else if (Workload == "print_fixed") {
    In.Print = fixedMix(Seed, FixedPool);
  } else if (Workload == "parse_roundtrip") {
    buildParse(In, Seed);
  } else {
    throw std::invalid_argument("unknown workload");
  }
  return In;
}

std::string perfbench::Inputs::serialize() const {
  std::string Out = Workload;
  Out.push_back('\0');
  for (const PrintItem &Item : Print) {
    appendBytes(Out, static_cast<int32_t>(Item.Format));
    appendBytes(Out, Item.Lo);
    appendBytes(Out, Item.Hi);
    appendBytes(Out, static_cast<int32_t>(Item.Fraction));
  }
  for (const ParseItem &Item : Parse) {
    appendBytes(Out, static_cast<int32_t>(Item.Format));
    Out.append(literal(Item));
    Out.push_back('\0');
  }
  for (double V : Schryer)
    appendBytes(Out, V);
  return Out;
}
