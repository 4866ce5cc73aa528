// Minimal leveled logger. Off by default at VERBOSE; benchmarks run with
// WARNING to keep output machine-parseable.
#ifndef SRC_BASE_LOG_H_
#define SRC_BASE_LOG_H_

#include <string>
#include <string_view>

namespace dbase {

enum class LogLevel { kVerbose = 0, kInfo = 1, kWarning = 2, kError = 3, kNone = 4 };

void SetLogLevel(LogLevel level);
LogLevel GetLogLevel();

// Internal sink; prefer the DLOG macro below.
void LogMessage(LogLevel level, const char* file, int line, const std::string& message);

// Formats into a std::string, never through a stream: one std::ostringstream
// links libstdc++'s iostream and locale runtime into the static node image.
// Takes strings and integers only, with no generic operator<<, so a type
// with only a stream inserter fails to compile here; format it with its
// ToString() or StrFormat. A char is refused rather than printed as its code.
class LogStream {
 public:
  LogStream(LogLevel level, const char* file, int line) : level_(level), file_(file), line_(line) {}
  ~LogStream() { LogMessage(level_, file_, line_, message_); }

  LogStream& operator<<(std::string_view text) {
    message_.append(text);
    return *this;
  }
  LogStream& operator<<(char) = delete;
  LogStream& operator<<(int v) { return *this << std::to_string(v); }
  LogStream& operator<<(long v) { return *this << std::to_string(v); }
  LogStream& operator<<(long long v) { return *this << std::to_string(v); }
  LogStream& operator<<(unsigned v) { return *this << std::to_string(v); }
  LogStream& operator<<(unsigned long v) { return *this << std::to_string(v); }
  LogStream& operator<<(unsigned long long v) { return *this << std::to_string(v); }

 private:
  LogLevel level_;
  const char* file_;
  int line_;
  std::string message_;
};

}  // namespace dbase

#define DLOG(level)                                                            \
  if (::dbase::LogLevel::k##level < ::dbase::GetLogLevel()) {                   \
  } else                                                                        \
    ::dbase::LogStream(::dbase::LogLevel::k##level, __FILE__, __LINE__)

#endif  // SRC_BASE_LOG_H_
