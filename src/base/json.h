// JsonWriter: the one JSON emitter in the runtime. GET /statz, GET
// /compositions and the bench reports all write through it, so there is one
// escaping rule and one number format:
//  - commas and colons are inserted by the writer, never by the caller;
//  - every key and string value is escaped (quote, backslash and every
//    control byte; bytes >= 0x80 pass through untouched);
//  - integers print exactly, doubles in their shortest round-trip form, and
//    a NaN or infinite double becomes null (RFC 8259 has no such numbers).
// The caller keeps the nesting balanced: each Begin* needs its End*.
#ifndef SRC_BASE_JSON_H_
#define SRC_BASE_JSON_H_

#include <charconv>
#include <concepts>
#include <string>
#include <string_view>
#include <utility>

namespace dbase {

class JsonWriter {
 public:
  JsonWriter& BeginObject() { return Open('{'); }
  JsonWriter& EndObject() { return Close('}'); }
  JsonWriter& BeginArray() { return Open('['); }
  JsonWriter& EndArray() { return Close(']'); }
  // Names the next value of the enclosing object.
  JsonWriter& Key(std::string_view key);

  JsonWriter& Value(std::string_view value);
  JsonWriter& Value(const char* value) { return Value(std::string_view(value)); }
  JsonWriter& Value(bool value) { return Token(value ? "true" : "false"); }
  JsonWriter& Value(double value);
  template <std::integral T>
  JsonWriter& Value(T value) {
    char digits[24];
    return Token({digits, std::to_chars(digits, digits + sizeof(digits), value).ptr});
  }
  JsonWriter& Null() { return Token("null"); }

  // Key(key) followed by the value or the opening bracket.
  template <typename T>
  JsonWriter& Field(std::string_view key, const T& value) {
    return Key(key).Value(value);
  }
  JsonWriter& BeginObject(std::string_view key) { return Key(key).BeginObject(); }
  JsonWriter& BeginArray(std::string_view key) { return Key(key).BeginArray(); }

  std::string Take() { return std::move(out_); }

 private:
  // A comma before every element but the first of its object or array.
  void Separate();
  JsonWriter& Open(char bracket);
  JsonWriter& Close(char bracket);
  // A scalar element written as is.
  JsonWriter& Token(std::string_view token);
  void AppendString(std::string_view value);

  std::string out_;
  bool need_comma_ = false;
};

}  // namespace dbase

#endif  // SRC_BASE_JSON_H_
