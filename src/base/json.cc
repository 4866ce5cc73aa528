#include "src/base/json.h"

#include <cmath>

namespace dbase {

JsonWriter& JsonWriter::Key(std::string_view key) {
  Value(key).out_.push_back(':');
  need_comma_ = false;
  return *this;
}

JsonWriter& JsonWriter::Value(std::string_view value) {
  Separate();
  AppendString(value);
  return *this;
}

JsonWriter& JsonWriter::Value(double value) {
  if (!std::isfinite(value)) {
    return Null();
  }
  char digits[32];
  return Token({digits, std::to_chars(digits, digits + sizeof(digits), value).ptr});
}

void JsonWriter::Separate() {
  if (need_comma_) {
    out_.push_back(',');
  }
  need_comma_ = true;
}

JsonWriter& JsonWriter::Open(char bracket) {
  Separate();
  out_.push_back(bracket);
  need_comma_ = false;
  return *this;
}

JsonWriter& JsonWriter::Close(char bracket) {
  out_.push_back(bracket);
  need_comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::Token(std::string_view token) {
  Separate();
  out_.append(token);
  return *this;
}

void JsonWriter::AppendString(std::string_view value) {
  static constexpr char kHex[] = "0123456789abcdef";
  out_.push_back('"');
  for (const char c : value) {
    if (c == '"' || c == '\\') {
      out_.push_back('\\');
      out_.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out_.append("\\u00");
      out_.push_back(kHex[c >> 4]);
      out_.push_back(kHex[c & 0xf]);
    } else {
      out_.push_back(c);
    }
  }
  out_.push_back('"');
}

}  // namespace dbase
