// Clocks, process accounting, order statistics and a small JSON reader and
// writer for the end-to-end benchmark. Everything here reads the bench's
// own process (or its children) through /proc and getrusage; nothing
// touches the runtime under test.
#ifndef BENCH_E2E_UTIL_H_
#define BENCH_E2E_UTIL_H_

#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace e2e {

// ------------------------------------------------------------------ clocks

inline int64_t ClockNs(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}
// CLOCK_MONOTONIC, the clock dbase::MonotonicClock reads in microseconds, so
// runtime timestamps (InvocationReport) and bench spans share one time base.
inline int64_t NowNs() { return ClockNs(CLOCK_MONOTONIC); }
inline double NsToMs(int64_t ns) { return static_cast<double>(ns) / 1e6; }
inline double NsToUs(int64_t ns) { return static_cast<double>(ns) / 1e3; }

// ----------------------------------------------------------- process stats

// CPU time split into user and kernel time.
struct CpuTimes {
  int64_t user_ns = 0;
  int64_t sys_ns = 0;

  int64_t total_ns() const { return user_ns + sys_ns; }
  CpuTimes& operator+=(const CpuTimes& o) {
    user_ns += o.user_ns;
    sys_ns += o.sys_ns;
    return *this;
  }
  CpuTimes operator-(const CpuTimes& o) const { return {user_ns - o.user_ns, sys_ns - o.sys_ns}; }
};

// getrusage(RUSAGE_SELF) or getrusage(RUSAGE_CHILDREN).
inline CpuTimes RusageCpu(int who) {
  rusage usage{};
  getrusage(who, &usage);
  const auto ns = [](const timeval& tv) {
    return (static_cast<int64_t>(tv.tv_sec) * 1000000 + tv.tv_usec) * 1000;
  };
  return {ns(usage.ru_utime), ns(usage.ru_stime)};
}

inline std::string ReadFile(const std::string& path) {
  std::string out;
  if (FILE* f = std::fopen(path.c_str(), "r")) {
    char buf[4096];
    size_t n = 0;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
      out.append(buf, n);
    }
    std::fclose(f);
  }
  return out;
}

// CPU time the hypervisor took from this machine's virtual CPUs (the
// "steal" column of /proc/stat's aggregate line), in nanoseconds; 0 on bare
// metal or when unreadable.
inline int64_t HostStealNs() {
  FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) {
    return 0;
  }
  unsigned long long fields[8] = {};
  const int got = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &fields[0],
                              &fields[1], &fields[2], &fields[3], &fields[4], &fields[5],
                              &fields[6], &fields[7]);
  std::fclose(f);
  if (got != 8) {
    return 0;
  }
  return static_cast<int64_t>(static_cast<double>(fields[7]) * 1e9 /
                              static_cast<double>(sysconf(_SC_CLK_TCK)));
}

// utime and stime of another process (a spawned engine node), from
// /proc/<pid>/stat fields 14 and 15. Zero when the process is gone.
inline CpuTimes ProcCpu(pid_t pid) {
  const std::string stat = ReadFile("/proc/" + std::to_string(pid) + "/stat");
  // The command name may hold spaces; fields restart after its ')'.
  const size_t close = stat.rfind(')');
  if (close == std::string::npos) {
    return {};
  }
  std::vector<std::string_view> fields;
  std::string_view rest = std::string_view(stat).substr(close + 2);
  while (!rest.empty() && fields.size() < 13) {
    const size_t space = rest.find(' ');
    fields.push_back(rest.substr(0, space));
    rest = space == std::string_view::npos ? std::string_view() : rest.substr(space + 1);
  }
  if (fields.size() < 13) {
    return {};
  }
  // fields[0] is field 3 (state): utime is field 14, stime field 15.
  const auto ns = [](std::string_view ticks) {
    return static_cast<int64_t>(std::strtod(std::string(ticks).c_str(), nullptr) * 1e9 /
                                static_cast<double>(sysconf(_SC_CLK_TCK)));
  };
  return {ns(fields[11]), ns(fields[12])};
}

// A "<key>: <n> kB" line of /proc/<who>/status, in KiB; 0 when absent.
inline int64_t ProcStatusKb(const std::string& who, std::string_view key) {
  const std::string status = ReadFile("/proc/" + who + "/status");
  const size_t at = status.find(key);
  if (at == std::string::npos) {
    return 0;
  }
  return std::strtoll(status.c_str() + at + key.size(), nullptr, 10);
}

// ------------------------------------------------------- order statistics

// Nearest-rank percentile of an ascending-sorted sample; 0 when empty.
inline double Percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) {
    return 0.0;
  }
  const double rank = std::ceil(p / 100.0 * static_cast<double>(sorted.size()));
  const size_t index = static_cast<size_t>(std::clamp(rank, 1.0, double(sorted.size()))) - 1;
  return sorted[index];
}

inline double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  if (values.empty()) {
    return 0.0;
  }
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

// First and third quartile exactly as Python's statistics.quantiles(values,
// n=4) computes them (the default "exclusive" method), so spreads printed
// here match the ones recomputed in Python from the raw values.
inline std::pair<double, double> Quartiles(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const long n = static_cast<long>(values.size());
  if (n == 0) {
    return {0.0, 0.0};
  }
  if (n == 1) {
    return {values[0], values[0]};
  }
  const auto cut = [&](long i) {
    const long m = n + 1;
    long j = i * m / 4;
    j = std::clamp(j, 1L, n - 1);
    const double delta = static_cast<double>(i * m - j * 4);
    return (values[static_cast<size_t>(j - 1)] * (4.0 - delta) +
            values[static_cast<size_t>(j)] * delta) /
           4.0;
  };
  return {cut(1), cut(3)};
}

inline uint64_t Fnv1a64(std::string_view bytes) {
  uint64_t hash = 1469598103934665603ull;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ull;
  }
  return hash;
}

// ------------------------------------------------------------------- JSON

// Every number the bench prints keeps the digits it was measured with.
inline std::string JsonNumber(double value) {
  if (!std::isfinite(value)) {
    return "null";
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", value);
  return buf;
}

inline std::string JsonString(std::string_view value) {
  std::string out = "\"";
  for (const char c : value) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out.push_back(c);
    }
  }
  out.push_back('"');
  return out;
}

// Parsed JSON value: enough of the grammar to read the bench's own result
// files and BENCHMARK.json back in.
struct Json {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<Json> array;
  std::map<std::string, Json> object;

  const Json* Find(const std::string& key) const {
    const auto it = object.find(key);
    return it == object.end() ? nullptr : &it->second;
  }

  std::string Dump() const {
    switch (type) {
      case Type::kNull:
        return "null";
      case Type::kBool:
        return boolean ? "true" : "false";
      case Type::kNumber:
        return JsonNumber(number);
      case Type::kString:
        return JsonString(string);
      case Type::kArray: {
        std::string out = "[";
        for (size_t i = 0; i < array.size(); ++i) {
          out += (i == 0 ? "" : ",") + array[i].Dump();
        }
        return out + "]";
      }
      case Type::kObject: {
        std::string out = "{";
        for (const auto& [key, value] : object) {
          out += (out.size() == 1 ? "" : ",") + JsonString(key) + ":" + value.Dump();
        }
        return out + "}";
      }
    }
    return "null";
  }
};

class JsonParser {
 public:
  static std::optional<Json> Parse(std::string_view text) {
    JsonParser parser(text);
    Json value;
    if (!parser.Value(&value, 0)) {
      return std::nullopt;
    }
    parser.SkipSpace();
    if (parser.pos_ != text.size()) {
      return std::nullopt;
    }
    return value;
  }

 private:
  explicit JsonParser(std::string_view text) : text_(text) {}

  void SkipSpace() {
    while (pos_ < text_.size() && (text_[pos_] == ' ' || text_[pos_] == '\n' ||
                                   text_[pos_] == '\r' || text_[pos_] == '\t')) {
      ++pos_;
    }
  }
  bool Consume(char c) {
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  bool Literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) {
      return false;
    }
    pos_ += word.size();
    return true;
  }
  bool String(std::string* out) {
    if (!Consume('"')) {
      return false;
    }
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') {
        return true;
      }
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) {
        return false;
      }
      const char e = text_[pos_++];
      switch (e) {
        case 'n': out->push_back('\n'); break;
        case 't': out->push_back('\t'); break;
        case 'r': out->push_back('\r'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) {
            return false;
          }
          const long code = std::strtol(std::string(text_.substr(pos_, 4)).c_str(), nullptr, 16);
          pos_ += 4;
          // The bench only writes ASCII; anything wider is kept as '?'.
          out->push_back(code < 0x80 ? static_cast<char>(code) : '?');
          break;
        }
        default: out->push_back(e);
      }
    }
    return false;
  }
  bool Value(Json* out, int depth) {
    if (depth > 32) {
      return false;
    }
    SkipSpace();
    if (pos_ >= text_.size()) {
      return false;
    }
    const char c = text_[pos_];
    if (c == '{') {
      ++pos_;
      out->type = Json::Type::kObject;
      if (Consume('}')) {
        return true;
      }
      do {
        std::string key;
        Json value;
        if (!String(&key) || !Consume(':') || !Value(&value, depth + 1)) {
          return false;
        }
        out->object[key] = std::move(value);
      } while (Consume(','));
      return Consume('}');
    }
    if (c == '[') {
      ++pos_;
      out->type = Json::Type::kArray;
      if (Consume(']')) {
        return true;
      }
      do {
        Json value;
        if (!Value(&value, depth + 1)) {
          return false;
        }
        out->array.push_back(std::move(value));
      } while (Consume(','));
      return Consume(']');
    }
    if (c == '"') {
      out->type = Json::Type::kString;
      return String(&out->string);
    }
    if (Literal("true") || Literal("false")) {
      out->type = Json::Type::kBool;
      out->boolean = text_[pos_ - 1] == 'e' && text_[pos_ - 2] == 'u';
      return true;
    }
    if (Literal("null")) {
      return true;
    }
    const std::string rest(text_.substr(pos_, 64));
    char* end = nullptr;
    out->number = std::strtod(rest.c_str(), &end);
    if (end == rest.c_str()) {
      return false;
    }
    out->type = Json::Type::kNumber;
    pos_ += static_cast<size_t>(end - rest.c_str());
    return true;
  }

  std::string_view text_;
  size_t pos_ = 0;
};

}  // namespace e2e

#endif  // BENCH_E2E_UTIL_H_
