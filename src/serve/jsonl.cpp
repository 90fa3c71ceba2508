#include "serve/jsonl.hpp"

#include <cctype>
#include <charconv>
#include <cstdio>
#include <istream>
#include <ostream>
#include <utility>

#include "util/error.hpp"
#include "util/fault.hpp"

namespace autopower::serve {

namespace {

[[noreturn]] void fail(const std::string& what) {
  throw util::Error("jsonl: " + what);
}

}  // namespace

// --- JsonValue accessors ----------------------------------------------------

bool JsonValue::as_bool() const {
  if (kind_ != Kind::kBool) fail("expected a boolean");
  return bool_;
}

double JsonValue::as_number() const {
  if (kind_ != Kind::kNumber) fail("expected a number");
  return number_;
}

const std::string& JsonValue::as_string() const {
  if (kind_ != Kind::kString) fail("expected a string");
  return string_;
}

const std::vector<JsonValue>& JsonValue::as_array() const {
  if (kind_ != Kind::kArray) fail("expected an array");
  return array_;
}

const std::map<std::string, JsonValue>& JsonValue::as_object() const {
  if (kind_ != Kind::kObject) fail("expected an object");
  return object_;
}

const JsonValue* JsonValue::find(const std::string& key) const {
  const auto& obj = as_object();
  const auto it = obj.find(key);
  return it == obj.end() ? nullptr : &it->second;
}

// --- Parser -----------------------------------------------------------------

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  JsonValue parse_document() {
    JsonValue v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail_at("trailing characters after value");
    return v;
  }

 private:
  [[noreturn]] void fail_at(const std::string& what) const {
    fail(what + " at offset " + std::to_string(pos_));
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail_at("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) {
      fail_at(std::string("expected '") + c + "', got '" + peek() + "'");
    }
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  JsonValue parse_value() {
    skip_ws();
    const char c = peek();
    switch (c) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': return parse_string();
      case 't':
        if (consume_literal("true")) return make_bool(true);
        fail_at("invalid literal");
      case 'f':
        if (consume_literal("false")) return make_bool(false);
        fail_at("invalid literal");
      case 'n':
        if (consume_literal("null")) return JsonValue{};
        fail_at("invalid literal");
      default: return parse_number();
    }
  }

  static JsonValue make_bool(bool b) {
    JsonValue v;
    v.kind_ = JsonValue::Kind::kBool;
    v.bool_ = b;
    return v;
  }

  JsonValue parse_object() {
    expect('{');
    JsonValue v;
    v.kind_ = JsonValue::Kind::kObject;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    for (;;) {
      skip_ws();
      JsonValue key = parse_string();
      skip_ws();
      expect(':');
      JsonValue value = parse_value();
      if (!v.object_.emplace(key.string_, std::move(value)).second) {
        fail_at("duplicate key \"" + key.string_ + "\"");
      }
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  JsonValue parse_array() {
    expect('[');
    JsonValue v;
    v.kind_ = JsonValue::Kind::kArray;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    for (;;) {
      v.array_.push_back(parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return v;
    }
  }

  JsonValue parse_string() {
    expect('"');
    JsonValue v;
    v.kind_ = JsonValue::Kind::kString;
    std::string& out = v.string_;
    for (;;) {
      if (pos_ >= text_.size()) fail_at("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return v;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail_at("unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail_at("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code += static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f')
              code += static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F')
              code += static_cast<unsigned>(h - 'A' + 10);
            else fail_at("invalid \\u escape");
          }
          // Encode as UTF-8 (basic multilingual plane only; surrogate
          // pairs are not needed for config/workload names).
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default: fail_at("invalid escape");
      }
    }
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    double value = 0.0;
    const auto [ptr, ec] = std::from_chars(text_.data() + start,
                                           text_.data() + pos_, value);
    if (ec != std::errc{} || ptr != text_.data() + pos_ || pos_ == start) {
      pos_ = start;
      fail_at("invalid number");
    }
    JsonValue v;
    v.kind_ = JsonValue::Kind::kNumber;
    v.number_ = value;
    return v;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

JsonValue JsonValue::parse(std::string_view text) {
  return JsonParser(text).parse_document();
}

// --- Writer helpers ---------------------------------------------------------

std::string json_escape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void append_json_number(std::string& out, double value) {
  // Shortest representation that round-trips: try increasing precision.
  // to_chars' general format with a precision is specified as printf's
  // %.*g, without its locale and format-string overhead.
  char buf[32];
  char* end = buf;
  for (int precision = 15; precision <= 17; ++precision) {
    end = std::to_chars(buf, buf + sizeof buf, value,
                        std::chars_format::general, precision)
              .ptr;
    double parsed = 0.0;
    const auto [ptr, ec] = std::from_chars(buf, end, parsed);
    if (ec == std::errc{} && ptr == end && parsed == value) break;
  }
  out.append(buf, end);
}

// --- Request / response (de)serialisation -----------------------------------

BatchRequest request_from_jsonl(std::string_view line) {
  const JsonValue doc = JsonValue::parse(line);
  BatchRequest req;
  bool have_config = false;
  bool have_workload = false;
  for (const auto& [key, value] : doc.as_object()) {
    if (key == "config") {
      req.config = value.as_string();
      have_config = true;
    } else if (key == "workload") {
      req.workload = value.as_string();
      have_workload = true;
    } else if (key == "mode") {
      req.mode = mode_from_string(value.as_string());
    } else {
      fail("unknown request key \"" + key + "\"");
    }
  }
  if (!have_config) fail("request is missing \"config\"");
  if (!have_workload) fail("request is missing \"workload\"");
  return req;
}

std::string response_to_jsonl(const BatchResponse& response) {
  std::string out = "{\"index\": " + std::to_string(response.index) +
                    ", \"config\": \"" + json_escape(response.config) +
                    "\", \"workload\": \"" + json_escape(response.workload) +
                    "\", \"mode\": \"" +
                    std::string(to_string(response.mode)) + "\", \"ok\": " +
                    (response.ok ? "true" : "false");
  if (!response.ok) {
    out += ", \"error\": \"" + json_escape(response.error) + "\"}";
    return out;
  }
  out += ", \"total_mw\": ";
  append_json_number(out, response.total_mw);
  if (response.mode == PredictMode::kPerComponent) {
    out += ", \"components\": [";
    for (std::size_t i = 0; i < response.components.size(); ++i) {
      const auto& cp = response.components[i];
      if (i > 0) out += ", ";
      out += "{\"component\": \"" + json_escape(cp.component) +
             "\", \"clock_mw\": ";
      append_json_number(out, cp.clock_mw);
      out += ", \"sram_mw\": ";
      append_json_number(out, cp.sram_mw);
      out += ", \"logic_mw\": ";
      append_json_number(out, cp.logic_mw);
      out += ", \"total_mw\": ";
      append_json_number(out, cp.total_mw);
      out += "}";
    }
    out += "]";
  } else if (response.mode == PredictMode::kTrace) {
    out += ", \"trace_mw\": [";
    for (std::size_t i = 0; i < response.trace_mw.size(); ++i) {
      if (i > 0) out += ", ";
      append_json_number(out, response.trace_mw[i]);
    }
    out += "]";
  }
  out += "}";
  return out;
}

std::vector<BatchRequest> read_requests(std::istream& in) {
  std::vector<BatchRequest> requests;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const auto first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos) continue;  // blank line
    try {
      // Stands in for the request source dying mid-read (I/O error on a
      // spooled file, truncated pipe): surfaces as a line-numbered error.
      AUTOPOWER_FAULT_POINT("serve.jsonl.read_line");
      requests.push_back(request_from_jsonl(line));
    } catch (const util::Error& e) {
      throw util::Error("line " + std::to_string(line_no) + ": " + e.what());
    }
  }
  return requests;
}

void write_responses(std::ostream& out,
                     std::span<const BatchResponse> responses) {
  for (const auto& response : responses) {
    // Stream-flavoured fault: latches badbit like a full disk would, so
    // the caller's flush_and_check path is what reports the torn report.
    AUTOPOWER_FAULT_STREAM("serve.jsonl.write_response", out);
    out << response_to_jsonl(response) << '\n';
  }
}

}  // namespace autopower::serve
