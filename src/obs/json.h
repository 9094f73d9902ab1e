// Minimal JSON support for the observability layer: the one string escaper
// every obs serializer shares, and a small checked parser for the query
// bodies the serve daemon reads and the reports ipscope_bench compares.
//
// The parser accepts full JSON (objects, arrays, strings with escapes,
// numbers, true/false/null) and fails loudly — std::runtime_error with the
// byte offset — on anything malformed: no silent truncation, no partial
// values. Object keys keep their document order so serializing a parsed
// value back is stable.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace ipscope::obs::json {

// Escapes `s` for embedding inside a JSON string literal: quote, backslash,
// and every control character below 0x20 (\b \t \n \f \r get their short
// forms, the rest \u00XX). Bytes >= 0x20 pass through untouched, so UTF-8
// payloads round-trip.
std::string Escape(const std::string& s);

class Value {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind() const { return kind_; }
  bool is_object() const { return kind_ == Kind::kObject; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_string() const { return kind_ == Kind::kString; }

  // Typed accessors throw std::runtime_error on a kind mismatch (a schema
  // error in the document, not a programming error here).
  bool AsBool() const;
  double AsNumber() const;
  const std::string& AsString() const;
  const std::vector<Value>& AsArray() const;
  const std::vector<std::pair<std::string, Value>>& AsObject() const;

  // Object member lookup; nullptr when absent or when this is not an
  // object. First match wins (JSON duplicate keys are not rejected).
  const Value* Find(const std::string& key) const;

  static Value Null();
  static Value Bool(bool b);
  static Value Number(double n);
  static Value String(std::string s);
  static Value Array(std::vector<Value> items);
  static Value Object(std::vector<std::pair<std::string, Value>> members);

 private:
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0;
  std::string string_;
  std::vector<Value> array_;
  std::vector<std::pair<std::string, Value>> object_;
};

// Parses one complete JSON document (trailing garbage is an error). Throws
// std::runtime_error with a byte offset on malformed input, unsupported
// escapes, or nesting deeper than an internal sanity limit.
Value Parse(std::string_view text);

}  // namespace ipscope::obs::json
