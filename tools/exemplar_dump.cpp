//===- tools/exemplar_dump.cpp - Exemplars -> replayable corpus ----------------===//
//
// Part of libdragon4. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Turns a dragon4.exemplars.v1 document -- the worst-latency inputs the
/// observability reservoir captured -- into verify-corpus records, closing
/// the loop from "this conversion was slow in production" to "this exact
/// bit pattern is a two-line regression test":
///
///   ./build/tools/exemplar_dump --host=127.0.0.1 --port=9464
///       --out=tail.corpus
///   ./build/tools/verify_exhaustive --replay=tail.corpus
///   ./build/bench/bench_engine_batch --corpus=tail.corpus
///
/// The source is either a live service (--host/--port, GET /exemplars.json)
/// or a previously saved document (--in=FILE).  Each captured record
/// becomes one corpus record: a '#' provenance comment (path, latency,
/// digit count, K, options) plus `<format> <hex> <oracles>`.  Only the
/// stable per-cell "worst" records are emitted by default; --include-recent
/// adds the rolling tail ring.  Records are deduplicated by encoding, and
/// captures of a format the verify harness cannot address are skipped with
/// a note.
///
/// Exit: 0 when at least one record was written, 1 when the document was
/// valid but empty (pass --allow-empty to make that 0), 2 on usage/fetch/
/// parse errors.
///
//===----------------------------------------------------------------------===//

#include "support/json_mini.h"
#include "svc/http.h"
#include "verify/corpus.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

using dragon4::support::JsonValue;
using dragon4::support::parseJson;
namespace verify = dragon4::verify;

namespace {

/// Parses "0x..." into the BitPattern halves (binary128 uses 32 digits).
bool parseBitsHex(const std::string &Text, uint64_t &Hi, uint64_t &Lo) {
  if (Text.size() < 3 || Text.compare(0, 2, "0x") != 0)
    return false;
  std::string Digits = Text.substr(2);
  if (Digits.size() > 32)
    return false;
  Hi = Lo = 0;
  std::string HiPart, LoPart = Digits;
  if (Digits.size() > 16) {
    HiPart = Digits.substr(0, Digits.size() - 16);
    LoPart = Digits.substr(Digits.size() - 16);
  }
  auto Hex = [](const std::string &S, uint64_t &Out) {
    if (S.empty())
      return true;
    char *End = nullptr;
    errno = 0;
    Out = std::strtoull(S.c_str(), &End, 16);
    return errno == 0 && End && *End == '\0';
  };
  return Hex(HiPart, Hi) && Hex(LoPart, Lo);
}

} // namespace

int main(int Argc, char **Argv) {
  std::string Host = "127.0.0.1";
  uint16_t Port = 9464;
  std::string InPath, OutPath;
  std::string OracleSpec = "roundtrip,engine";
  bool IncludeRecent = false, AllowEmpty = false;
  for (int I = 1; I < Argc; ++I) {
    const char *A = Argv[I];
    if (std::strncmp(A, "--host=", 7) == 0) {
      Host = A + 7;
    } else if (std::strncmp(A, "--port=", 7) == 0) {
      Port = static_cast<uint16_t>(std::strtoul(A + 7, nullptr, 10));
    } else if (std::strncmp(A, "--in=", 5) == 0) {
      InPath = A + 5;
    } else if (std::strncmp(A, "--out=", 6) == 0) {
      OutPath = A + 6;
    } else if (std::strncmp(A, "--oracles=", 10) == 0) {
      OracleSpec = A + 10;
    } else if (std::strcmp(A, "--include-recent") == 0) {
      IncludeRecent = true;
    } else if (std::strcmp(A, "--allow-empty") == 0) {
      AllowEmpty = true;
    } else {
      std::fprintf(stderr,
                   "exemplar_dump: unknown flag %s\nusage: exemplar_dump "
                   "[--host=H --port=P | --in=FILE] [--out=FILE] "
                   "[--oracles=LIST] [--include-recent] [--allow-empty]\n",
                   A);
      return 2;
    }
  }

  std::optional<unsigned> Oracles = verify::parseOracles(OracleSpec);
  if (!Oracles || *Oracles == 0) {
    std::fprintf(stderr, "exemplar_dump: bad --oracles list '%s'\n",
                 OracleSpec.c_str());
    return 2;
  }

  std::string Body;
  if (!InPath.empty()) {
    std::ifstream In(InPath);
    if (!In) {
      std::fprintf(stderr, "exemplar_dump: cannot open %s\n", InPath.c_str());
      return 2;
    }
    std::ostringstream Ss;
    Ss << In.rdbuf();
    Body = Ss.str();
  } else {
    int Status =
        dragon4::svc::httpGet(Host, Port, "/exemplars.json", Body);
    if (Status != 200) {
      std::fprintf(stderr,
                   "exemplar_dump: GET http://%s:%u/exemplars.json failed "
                   "(%d)\n",
                   Host.c_str(), unsigned(Port), Status);
      return 2;
    }
  }

  auto Doc = parseJson(Body);
  if (!Doc || !Doc->isObject()) {
    std::fprintf(stderr, "exemplar_dump: malformed JSON document\n");
    return 2;
  }
  const JsonValue *Schema = Doc->find("schema");
  if (!Schema || !Schema->isString() ||
      Schema->string() != "dragon4.exemplars.v1") {
    std::fprintf(stderr, "exemplar_dump: not a dragon4.exemplars.v1 "
                         "document\n");
    return 2;
  }
  const JsonValue *Records = Doc->find("records");
  if (!Records || !Records->isArray()) {
    std::fprintf(stderr, "exemplar_dump: missing records array\n");
    return 2;
  }

  std::string Out;
  std::set<std::string> Seen;
  size_t Written = 0, SkippedFormat = 0;
  for (const JsonValue &R : Records->array()) {
    auto Str = [&](const char *Key) -> std::string {
      const JsonValue *V = R.find(Key);
      return V && V->isString() ? V->string() : std::string();
    };
    std::string Kind = Str("kind");
    if (Kind != "worst" && !(IncludeRecent && Kind == "recent"))
      continue;
    std::string FormatName = Str("format");
    std::string BitsText = Str("bits");
    std::optional<verify::FloatFormat> Format =
        verify::formatByName(FormatName);
    if (!Format) {
      // A format the verify harness cannot address; note it so the
      // drop is visible, keep going.
      ++SkippedFormat;
      continue;
    }
    verify::CorpusRecord Rec;
    Rec.Bits.Format = *Format;
    if (!parseBitsHex(BitsText, Rec.Bits.Hi, Rec.Bits.Lo)) {
      std::fprintf(stderr, "exemplar_dump: bad bits field '%s' (skipped)\n",
                   BitsText.c_str());
      continue;
    }
    std::string Key = FormatName + ":" + verify::bitsToHex(Rec.Bits);
    if (!Seen.insert(Key).second)
      continue;
    Rec.Oracles = *Oracles & verify::supportedOracles(*Format);
    if (!Rec.Oracles)
      Rec.Oracles = verify::OracleRoundTrip;
    char Comment[192];
    std::snprintf(Comment, sizeof(Comment),
                  "exemplar: path=%s latency_ns=%.0f digits=%.0f k=%.0f "
                  "options=%s",
                  Str("path").c_str(), R.numberOr("latency_ns", 0),
                  R.numberOr("digits", 0), R.numberOr("k", 0),
                  Str("options").c_str());
    Rec.Comment = Comment;
    Out += verify::encodeRecord(Rec);
    Out += '\n';
    ++Written;
  }
  if (SkippedFormat)
    std::fprintf(stderr,
                 "exemplar_dump: skipped %zu record(s) with no verify "
                 "sweep domain\n",
                 SkippedFormat);

  if (OutPath.empty()) {
    std::fputs(Out.c_str(), stdout);
  } else {
    std::ofstream OutFile(OutPath, std::ios::trunc);
    if (!OutFile) {
      std::fprintf(stderr, "exemplar_dump: cannot write %s\n",
                   OutPath.c_str());
      return 2;
    }
    OutFile << Out;
  }
  std::fprintf(stderr, "exemplar_dump: wrote %zu corpus record(s)\n",
               Written);
  if (Written == 0 && !AllowEmpty)
    return 1;
  return 0;
}
