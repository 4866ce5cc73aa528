#include "src/benchutil/table.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <functional>
#include <mutex>

#include "src/base/json.h"
#include "src/base/string_util.h"

namespace dbench {
namespace {

// The JSON report: one document per bench run, grouped into the sections
// PrintHeader opens. Guarded by a mutex so multi-threaded benches that
// print from workers stay well-formed.
struct ReportSection {
  std::string title;
  std::vector<std::string> notes;
  std::vector<Table> tables;
};

struct Report {
  std::mutex mu;
  std::vector<ReportSection> sections;
  bool flush_registered = false;
};

Report& GetReport() {
  static Report* report = new Report();
  return *report;
}

const char* JsonPath() { return std::getenv("DANDELION_BENCH_JSON"); }

// Appends under the current (last) section, opening an untitled section for
// benches that never call PrintHeader.
ReportSection& CurrentSectionLocked(Report& report) {
  if (report.sections.empty()) {
    report.sections.push_back(ReportSection{});
  }
  return report.sections.back();
}

// Runs `mutate` on the locked report iff JSON output is enabled — callers
// copy what they record inside the callback so a run without the env var pays
// nothing — and registers the atexit flush on first use.
void RecordForJson(const std::function<void(Report&)>& mutate) {
  if (JsonPath() == nullptr) {
    return;
  }
  Report& report = GetReport();
  std::lock_guard<std::mutex> lock(report.mu);
  mutate(report);
  if (!report.flush_registered) {
    report.flush_registered = true;
    std::atexit(FlushJsonReport);
  }
}

}  // namespace

Table::Table(std::vector<std::string> columns) : columns_(std::move(columns)) {}

void Table::AddRow(std::vector<std::string> cells) {
  cells.resize(columns_.size());
  rows_.push_back(std::move(cells));
}

std::string Table::Num(double value, int decimals) {
  return dbase::StrFormat("%.*f", decimals, value);
}

std::string Table::ToString() const {
  std::vector<size_t> widths(columns_.size());
  for (size_t c = 0; c < columns_.size(); ++c) {
    widths[c] = columns_[c].size();
  }
  for (const auto& row : rows_) {
    for (size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  auto render_row = [&](const std::vector<std::string>& cells) {
    std::string line;
    for (size_t c = 0; c < columns_.size(); ++c) {
      const std::string& cell = c < cells.size() ? cells[c] : "";
      line += cell;
      line.append(widths[c] - cell.size() + 2, ' ');
    }
    while (!line.empty() && line.back() == ' ') {
      line.pop_back();
    }
    line += '\n';
    return line;
  };
  std::string out = render_row(columns_);
  std::string rule;
  for (size_t c = 0; c < columns_.size(); ++c) {
    rule.append(widths[c], '-');
    rule.append(2, ' ');
  }
  while (!rule.empty() && rule.back() == ' ') {
    rule.pop_back();
  }
  out += rule + "\n";
  for (const auto& row : rows_) {
    out += render_row(row);
  }
  return out;
}

std::string Table::ToCsv() const {
  auto join = [](const std::vector<std::string>& cells) {
    std::string line = "CSV";
    for (const auto& cell : cells) {
      line += ',';
      line += cell;
    }
    line += '\n';
    return line;
  };
  std::string out = join(columns_);
  for (const auto& row : rows_) {
    out += join(row);
  }
  return out;
}

void Table::Print() const {
  std::fputs(ToString().c_str(), stdout);
  std::fputs(ToCsv().c_str(), stdout);
  std::fputs("\n", stdout);
  RecordForJson([this](Report& report) {
    CurrentSectionLocked(report).tables.push_back(*this);
  });
}

void PrintHeader(const std::string& title) {
  std::printf("\n== %s ==\n\n", title.c_str());
  RecordForJson([&title](Report& report) {
    report.sections.push_back(ReportSection{title, {}, {}});
  });
}

void PrintNote(const std::string& note) {
  std::printf("note: %s\n", note.c_str());
  RecordForJson([&note](Report& report) {
    CurrentSectionLocked(report).notes.push_back(note);
  });
}

void FlushJsonReport() {
  const char* path = JsonPath();
  if (path == nullptr) {
    return;
  }
  Report& report = GetReport();
  std::lock_guard<std::mutex> lock(report.mu);
  if (report.sections.empty()) {
    return;
  }
  // Cells stay strings: tables mix numbers with markers like ">2000".
  const auto write_strings = [](dbase::JsonWriter& json, const std::vector<std::string>& cells) {
    json.BeginArray();
    for (const std::string& cell : cells) {
      json.Value(cell);
    }
    json.EndArray();
  };
  dbase::JsonWriter json;
  json.BeginObject()
      .Field("schema", "dandelion-bench-v1")
      .Field("unix_time_s", static_cast<int64_t>(std::time(nullptr)))
      .BeginArray("sections");
  for (const ReportSection& section : report.sections) {
    json.BeginObject().Field("title", section.title).Key("notes");
    write_strings(json, section.notes);
    json.BeginArray("tables");
    for (const Table& table : section.tables) {
      json.BeginObject().Key("columns");
      write_strings(json, table.columns());
      json.BeginArray("rows");
      for (const auto& row : table.rows()) {
        write_strings(json, row);
      }
      json.EndArray().EndObject();
    }
    json.EndArray().EndObject();
  }
  json.EndArray().EndObject();
  const std::string doc = json.Take() + "\n";

  std::FILE* out = std::string(path) == "-" ? stdout : std::fopen(path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "DANDELION_BENCH_JSON: cannot open %s\n", path);
    return;
  }
  std::fputs(doc.c_str(), out);
  if (out != stdout) {
    std::fclose(out);
  }
  report.sections.clear();  // Idempotent: a second flush writes nothing.
}

}  // namespace dbench
