// lazyhb/support/json_writer.hpp
//
// A minimal streaming JSON emitter for the machine-readable benchmark
// reports (no third-party dependency). The writer is a push API — begin
// an object/array, push keys and values, end it — and enforces JSON
// well-formedness structurally: keys only inside objects, values only at
// the top level / in arrays / after a key, balanced begin/end. Output is
// pretty-printed with two-space indentation so reports diff cleanly.
//
// Numbers: unsigned/signed 64-bit integers are emitted verbatim (JSON
// numbers carry arbitrary precision; consumers like Python parse them
// exactly). Doubles are emitted with enough digits to round-trip; NaN and
// infinities have no JSON spelling and are emitted as null.

#pragma once

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "support/diagnostics.hpp"

namespace lazyhb::support {

/// Escape `s` for inclusion in a JSON string literal (quotes not included).
/// Handles the two mandatory escapes (`"` and `\`), the common control
/// shorthands, and \u00XX for the remaining control bytes. Non-ASCII bytes
/// pass through untouched (the report is UTF-8).
inline std::string jsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
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
          std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(c));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

class JsonWriter {
 public:
  JsonWriter& beginObject() { return beginContainer('{', Frame::Object); }
  JsonWriter& endObject() { return endContainer('}', Frame::Object); }
  JsonWriter& beginArray() { return beginContainer('[', Frame::Array); }
  JsonWriter& endArray() { return endContainer(']', Frame::Array); }

  /// Name the next value. Only legal directly inside an object.
  JsonWriter& key(const std::string& name) {
    LAZYHB_CHECK(!done_ && !stack_.empty() && stack_.back() == Frame::Object &&
                 !keyPending_);
    separate();
    out_ += '"';
    out_ += jsonEscape(name);
    out_ += "\": ";
    keyPending_ = true;
    return *this;
  }

  JsonWriter& value(const std::string& v) { return raw('"' + jsonEscape(v) + '"'); }
  JsonWriter& value(const char* v) { return value(std::string(v)); }
  JsonWriter& value(bool v) { return raw(v ? "true" : "false"); }
  JsonWriter& value(std::uint64_t v) { return raw(std::to_string(v)); }
  JsonWriter& value(std::uint32_t v) { return value(static_cast<std::uint64_t>(v)); }
  JsonWriter& value(std::int64_t v) { return raw(std::to_string(v)); }
  JsonWriter& value(int v) { return raw(std::to_string(v)); }
  JsonWriter& value(double v) {
    if (!std::isfinite(v)) return raw("null");
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return raw(buf);
  }
  JsonWriter& valueNull() { return raw("null"); }

  /// Convenience: key + value in one call.
  template <typename T>
  JsonWriter& field(const std::string& name, const T& v) {
    key(name);
    return value(v);
  }

  /// The finished document. All containers must be closed.
  [[nodiscard]] const std::string& str() const {
    LAZYHB_CHECK(stack_.empty() && done_);
    return out_;
  }

 private:
  enum class Frame : std::uint8_t { Object, Array };

  JsonWriter& beginContainer(char open, Frame frame) {
    beforeValue();
    out_ += open;
    stack_.push_back(frame);
    freshContainer_ = true;
    keyPending_ = false;
    return *this;
  }

  JsonWriter& endContainer(char close, Frame frame) {
    LAZYHB_CHECK(!stack_.empty() && stack_.back() == frame && !keyPending_);
    stack_.pop_back();
    if (!freshContainer_) {
      out_ += '\n';
      indent();
    }
    out_ += close;
    freshContainer_ = false;
    if (stack_.empty()) done_ = true;
    return *this;
  }

  JsonWriter& raw(const std::string& text) {
    beforeValue();
    out_ += text;
    keyPending_ = false;
    if (stack_.empty()) done_ = true;
    return *this;
  }

  /// Emit the comma/newline/indent owed before a value or sub-container.
  void beforeValue() {
    LAZYHB_CHECK(!done_);
    if (keyPending_) return;  // value follows its key on the same line
    if (stack_.empty()) return;
    // Bare values are only legal in arrays; object members need key().
    LAZYHB_CHECK(stack_.back() == Frame::Array);
    separate();
  }

  /// Comma/newline/indent before the next member of the open container.
  void separate() {
    if (!freshContainer_) out_ += ',';
    out_ += '\n';
    indent();
    freshContainer_ = false;
  }

  void indent() { out_.append(2 * stack_.size(), ' '); }

  std::string out_;
  std::vector<Frame> stack_;
  bool keyPending_ = false;
  bool freshContainer_ = true;
  bool done_ = false;
};

}  // namespace lazyhb::support
