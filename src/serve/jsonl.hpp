// Minimal hand-rolled JSONL (one JSON object per line) support for the
// batch serving API.  No external dependency: a small recursive-descent
// JSON parser (objects, arrays, strings with escapes, numbers, booleans,
// null) plus an escaping writer.  Numbers are emitted with enough digits
// to round-trip a double exactly, so serialised responses preserve the
// engine's bit-identical determinism guarantee.
//
// Request line schema (see README "Batch serving"):
//   {"config": "C3", "workload": "dhrystone", "mode": "total"}
// `mode` is optional and defaults to "total"; unknown keys are rejected.
//
// Response line schema:
//   {"index": 0, "config": "C3", "workload": "dhrystone", "mode": "total",
//    "ok": true, "total_mw": 95.6}
// plus "components": [{"component": ..., "clock_mw": ..., "sram_mw": ...,
// "logic_mw": ..., "total_mw": ...}, ...] in per_component mode,
// "trace_mw": [...] in trace mode, and "error": "..." when ok is false.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "serve/engine.hpp"

namespace autopower::serve {

/// A parsed JSON value (tree-owning tagged union).
class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  JsonValue() = default;

  [[nodiscard]] Kind kind() const noexcept { return kind_; }
  [[nodiscard]] bool is_null() const noexcept { return kind_ == Kind::kNull; }

  /// Typed accessors; throw util::Error on kind mismatch.
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] double as_number() const;
  [[nodiscard]] const std::string& as_string() const;
  [[nodiscard]] const std::vector<JsonValue>& as_array() const;
  [[nodiscard]] const std::map<std::string, JsonValue>& as_object() const;

  /// Object member lookup; nullptr when absent (throws if not an object).
  [[nodiscard]] const JsonValue* find(const std::string& key) const;

  /// Parses exactly one JSON value spanning the whole input (leading and
  /// trailing whitespace allowed).  Throws util::Error on malformed input.
  [[nodiscard]] static JsonValue parse(std::string_view text);

 private:
  friend class JsonParser;
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> array_;
  std::map<std::string, JsonValue> object_;
};

/// Escapes `text` for inclusion inside a JSON string literal (no quotes).
[[nodiscard]] std::string json_escape(std::string_view text);

/// Appends `value` to `out` with round-trip precision: printf's "%.*g"
/// bytes at the fewest of 15, 16 or 17 significant digits that parse back
/// exactly.
void append_json_number(std::string& out, double value);

/// Parses one JSONL request line.  Rejects unknown keys, wrong types, and
/// missing config/workload.
[[nodiscard]] BatchRequest request_from_jsonl(std::string_view line);

/// Serialises one response as a single JSONL line (no trailing newline).
[[nodiscard]] std::string response_to_jsonl(const BatchResponse& response);

/// Reads every non-empty line of `in` as a request.  Error messages carry
/// the 1-based line number.
[[nodiscard]] std::vector<BatchRequest> read_requests(std::istream& in);

/// Writes one line per response, in order.
void write_responses(std::ostream& out,
                     std::span<const BatchResponse> responses);

}  // namespace autopower::serve
