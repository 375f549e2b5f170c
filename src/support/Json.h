//===- support/Json.h - Minimal JSON value parser ---------------*- C++ -*-===//
//
// Part of the MBA-Solver reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small, dependency-free JSON reader for the repo's own machine-readable
/// artifacts: the `BENCH_*.json` study reports (tools/bench-diff), the
/// query-log JSONL journal (`mba_cli explain`, parse-back tests), and any
/// future exporter that needs to be read back in-process.
///
/// Scope is deliberately narrow — parse a complete document into an owned
/// tree of `json::Value` nodes and navigate it. No streaming, no writer
/// beyond the string escaper (producers emit text directly, as
/// Harness/QueryLog do), no comments or
/// trailing-comma extensions. Numbers are held as doubles: every value our
/// exporters emit (counts, nanosecond sums, seconds) fits the 2^53 exact
/// integer range, and identifiers that do not (fingerprints) are emitted as
/// hex strings by convention.
///
//===----------------------------------------------------------------------===//

#ifndef MBA_SUPPORT_JSON_H
#define MBA_SUPPORT_JSON_H

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace mba::json {

/// One parsed JSON value. Objects preserve member order (the order the
/// document listed them); lookup by key is linear, which is fine for the
/// small objects our reports contain.
class Value {
public:
  enum Kind : uint8_t { KNull, KBool, KNumber, KString, KArray, KObject };

  Value() = default;
  explicit Value(Kind K) : Which(K) {}

  Kind kind() const { return Which; }
  bool isNull() const { return Which == KNull; }
  bool isBool() const { return Which == KBool; }
  bool isNumber() const { return Which == KNumber; }
  bool isString() const { return Which == KString; }
  bool isArray() const { return Which == KArray; }
  bool isObject() const { return Which == KObject; }

  /// Scalar accessors; return the fallback when the kind does not match.
  bool asBool(bool Default = false) const {
    return Which == KBool ? Flag : Default;
  }
  double asNumber(double Default = 0) const {
    return Which == KNumber ? Num : Default;
  }
  uint64_t asU64(uint64_t Default = 0) const {
    return Which == KNumber && Num >= 0 ? static_cast<uint64_t>(Num) : Default;
  }
  const std::string &asString() const { return Str; }

  /// Array access.
  size_t size() const { return Elements.size(); }
  const Value &at(size_t I) const { return Elements[I]; }
  const std::vector<Value> &elements() const { return Elements; }

  /// Object access: nullptr when absent or when this is not an object.
  const Value *get(std::string_view Key) const {
    if (Which != KObject)
      return nullptr;
    for (const auto &M : Mbrs)
      if (M.first == Key)
        return &M.second;
    return nullptr;
  }
  const std::vector<std::pair<std::string, Value>> &members() const {
    return Mbrs;
  }

  /// Convenience: object member as number/string with a fallback.
  double numberAt(std::string_view Key, double Default = 0) const {
    const Value *V = get(Key);
    return V ? V->asNumber(Default) : Default;
  }
  std::string_view stringAt(std::string_view Key,
                            std::string_view Default = "") const {
    const Value *V = get(Key);
    return V && V->isString() ? std::string_view(V->Str) : Default;
  }

private:
  friend class Parser;
  Kind Which = KNull;
  bool Flag = false;
  double Num = 0;
  std::string Str;
  std::vector<Value> Elements;
  std::vector<std::pair<std::string, Value>> Mbrs;
};

/// Parses \p Text as one complete JSON document into \p Out. On failure
/// returns false and, when \p Error is non-null, describes the first
/// problem with a byte offset. Trailing whitespace is permitted; any other
/// trailing content is an error (JSONL callers split on newlines first).
bool parse(std::string_view Text, Value &Out, std::string *Error = nullptr);

/// Appends \p S to \p Out as the body of a JSON string (quote, backslash
/// and control characters escaped): the one escaper of every exporter.
void appendEscaped(std::string &Out, std::string_view S);

/// Reads and parses a whole file. Returns false on I/O or parse errors.
bool parseFile(const std::string &Path, Value &Out,
               std::string *Error = nullptr);

} // namespace mba::json

#endif // MBA_SUPPORT_JSON_H
