// Table/series printing for the benchmark harnesses. Every bench binary
// prints (a) a human-readable aligned table and (b) machine-readable CSV
// lines prefixed with "CSV," so plots can be regenerated by grepping.
//
// When the environment variable DANDELION_BENCH_JSON names a path ("-" for
// stdout), every header, note, and printed table is additionally recorded
// and flushed at process exit as one machine-readable JSON document, so
// successive PRs can chart a bench's trajectory without screen-scraping.
#ifndef SRC_BENCHUTIL_TABLE_H_
#define SRC_BENCHUTIL_TABLE_H_

#include <string>
#include <vector>

namespace dbench {

class Table {
 public:
  explicit Table(std::vector<std::string> columns);

  void AddRow(std::vector<std::string> cells);
  // Convenience for numeric rows.
  static std::string Num(double value, int decimals = 2);

  // Aligned human-readable rendering.
  std::string ToString() const;
  // "CSV,col1,col2" header + "CSV,a,b" rows.
  std::string ToCsv() const;
  // Prints both text renderings to stdout and records the table in the
  // JSON report when DANDELION_BENCH_JSON is set.
  void Print() const;

  const std::vector<std::string>& columns() const { return columns_; }
  const std::vector<std::vector<std::string>>& rows() const { return rows_; }

 private:
  std::vector<std::string> columns_;
  std::vector<std::vector<std::string>> rows_;
};

// Prints a section header ("== Figure 6: ... ==") and opens a new section
// in the JSON report.
void PrintHeader(const std::string& title);

// Prints "note:" lines for methodology remarks (also recorded).
void PrintNote(const std::string& note);

// Writes the accumulated JSON report to the DANDELION_BENCH_JSON path now
// (no-op when the variable is unset or nothing was recorded). Registered
// atexit automatically; callable directly for tests.
void FlushJsonReport();

}  // namespace dbench

#endif  // SRC_BENCHUTIL_TABLE_H_
