// --compare: judges N parent and N change result files (pair i = parent[i]
// and change[i], run alternately) against the metric lists in
// BENCHMARK.json.
//
//   - The claimed (metric, workload), if named, is a gain only when the
//     change wins at least 9 of 10 pairs (ties count for neither), its
//     median beats the parent's by more than the parent's interquartile
//     range, and no more requests failed than at the parent. The metric may
//     be end-to-end or per-layer.
//   - Every other (end-to-end metric, workload) is "within" its bound,
//     "REGRESSED" when the change's median is worse than the parent's by
//     more than the bound, or "unresolved" when either side's run-to-run
//     spread (IQR / median) exceeds the bound, unless every change run
//     beats every parent run ("better").
//
// One row per workload; the exit code is non-zero when anything regressed
// or a named claim is not met.
#ifndef BENCH_E2E_COMPARE_H_
#define BENCH_E2E_COMPARE_H_

#include <cmath>
#include <cstdio>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "bench/e2e/util.h"
#include "bench/e2e/workloads.h"

namespace e2e {

struct MetricSpec {
  std::string name;
  std::string unit;
  bool higher_is_better = false;
  double bound = 0;  // End-to-end metrics only.
};

// workload -> metric -> value, plus the failed-request count per workload.
struct ResultFile {
  std::map<std::string, std::map<std::string, double>> values;
  std::map<std::string, double> failed;
};

inline std::optional<ResultFile> LoadResultFile(const std::string& path) {
  const auto json = JsonParser::Parse(ReadFile(path));
  const Json* workloads = json.has_value() ? json->Find("workloads") : nullptr;
  if (workloads == nullptr) {
    return std::nullopt;
  }
  ResultFile file;
  for (const auto& [name, result] : workloads->object) {
    if (const Json* failed = result.Find("failed"); failed != nullptr) {
      file.failed[name] = failed->number;
    }
    if (const Json* metrics = result.Find("metrics"); metrics != nullptr) {
      for (const auto& [metric, entry] : metrics->object) {
        if (const Json* value = entry.Find("value"); value != nullptr) {
          file.values[name][metric] = value->number;
        }
      }
    }
    // Every record carries its phases' latencies, so a claim on p50_ms.lo
    // and the like can rest on untraced runs too.
    if (const Json* phases = result.Find("phases"); phases != nullptr) {
      for (const auto& [phase, entry] : phases->object) {
        for (const char* key : {"p50_ms", "p99_ms"}) {
          if (const Json* value = entry.Find(key); value != nullptr) {
            file.values[name].emplace(std::string(key) + "." + phase, value->number);
          }
        }
      }
    }
  }
  return file;
}

// One metric on one workload across the pairs.
struct PairedSample {
  std::vector<double> parent;
  std::vector<double> change;

  // Positive when the change moved the metric the wrong way, as a share of
  // the parent's median.
  double Worse(const MetricSpec& m) const {
    const double p = Median(parent);
    return p != 0 ? (m.higher_is_better ? -1.0 : 1.0) * (Median(change) - p) / std::abs(p) : 0;
  }
  static double Spread(const std::vector<double>& v) {
    const auto [q1, q3] = Quartiles(v);
    const double median = Median(v);
    return median != 0 ? (q3 - q1) / std::abs(median) : 0;
  }
  static bool Better(const MetricSpec& m, double change, double parent) {
    return m.higher_is_better ? change > parent : change < parent;
  }
};

inline std::string ClaimVerdict(const MetricSpec& m, const PairedSample& s, double parent_failed,
                                double change_failed, const std::string& claim, bool* met) {
  size_t wins = 0;
  for (size_t i = 0; i < s.parent.size(); ++i) {
    wins += PairedSample::Better(m, s.change[i], s.parent[i]) ? 1 : 0;
  }
  const auto [p1, p3] = Quartiles(s.parent);
  const double gap = std::abs(Median(s.change) - Median(s.parent));
  *met = 10 * wins >= 9 * s.parent.size() && s.Worse(m) < 0 && gap > p3 - p1 &&
         change_failed <= parent_failed;
  char line[320];
  std::snprintf(line, sizeof(line),
                "claim %s: change won %zu/%zu pairs, median gap %.4g %s vs parent IQR %.4g, "
                "failed %.0f vs %.0f -> %s\n",
                claim.c_str(), wins, s.parent.size(), gap, m.unit.c_str(), p3 - p1, change_failed,
                parent_failed, *met ? "gain" : "not met");
  return line;
}

inline std::string BoundVerdict(const MetricSpec& m, const PairedSample& s, bool* regressed) {
  bool all_better = true;
  for (const double c : s.change) {
    for (const double p : s.parent) {
      all_better = all_better && PairedSample::Better(m, c, p);
    }
  }
  if (all_better) {
    return "better";
  }
  if (std::max(PairedSample::Spread(s.parent), PairedSample::Spread(s.change)) > m.bound) {
    return "unresolved";
  }
  if (s.Worse(m) > m.bound) {
    *regressed = true;
    return "REGRESSED";
  }
  return "within";
}

inline int Compare(const std::string& claim, const std::vector<std::string>& parent_paths,
                   const std::vector<std::string>& change_paths, const std::string& bench_path) {
  if (parent_paths.empty() || parent_paths.size() != change_paths.size()) {
    std::fprintf(stderr, "--compare needs as many --parent files as --change files\n");
    return 2;
  }
  const size_t at = claim.find('@');
  const std::string claim_metric = claim.substr(0, at);
  const std::string claim_workload = at == std::string::npos ? "" : claim.substr(at + 1);
  if (!claim.empty() && claim_workload.empty()) {
    std::fprintf(stderr, "--compare takes <metric>@<workload>\n");
    return 2;
  }

  const auto bench = JsonParser::Parse(ReadFile(bench_path));
  const Json* end_to_end = bench.has_value() ? bench->Find("end_to_end") : nullptr;
  const Json* per_layer = bench.has_value() ? bench->Find("per_layer") : nullptr;
  if (end_to_end == nullptr || per_layer == nullptr) {
    std::fprintf(stderr, "cannot read the metric lists of %s\n", bench_path.c_str());
    return 2;
  }
  std::vector<MetricSpec> bounded;
  std::optional<MetricSpec> claimed;
  for (const Json* list : {end_to_end, per_layer}) {
    for (const Json& entry : list->array) {
      const Json* name = entry.Find("name");
      const Json* unit = entry.Find("unit");
      const Json* better = entry.Find("better");
      const Json* bound = entry.Find("bound");
      if (name == nullptr || unit == nullptr || better == nullptr ||
          (list == end_to_end && bound == nullptr)) {
        std::fprintf(stderr, "malformed metric entry in %s\n", bench_path.c_str());
        return 2;
      }
      const MetricSpec spec{name->string, unit->string, better->string == "higher",
                            bound != nullptr ? bound->number : 0};
      if (list == end_to_end) {
        bounded.push_back(spec);
      }
      if (spec.name == claim_metric) {
        claimed = spec;
      }
    }
  }
  if (!claim.empty() && !claimed.has_value()) {
    std::fprintf(stderr, "no metric named %s in %s\n", claim_metric.c_str(), bench_path.c_str());
    return 2;
  }

  std::vector<ResultFile> parents;
  std::vector<ResultFile> changes;
  for (size_t i = 0; i < parent_paths.size(); ++i) {
    auto p = LoadResultFile(parent_paths[i]);
    auto c = LoadResultFile(change_paths[i]);
    if (!p.has_value() || !c.has_value()) {
      std::fprintf(stderr, "cannot read result file %s\n",
                   (p.has_value() ? change_paths[i] : parent_paths[i]).c_str());
      return 2;
    }
    parents.push_back(std::move(*p));
    changes.push_back(std::move(*c));
  }

  std::printf("%zu pairs; each cell: verdict, then change median vs parent median\n",
              parents.size());
  std::printf("%-13s", "workload");
  for (const MetricSpec& m : bounded) {
    std::printf(" %-24s", (m.name + " [" + m.unit + "]").c_str());
  }
  std::printf("\n");
  bool regressed = false;
  bool claim_met = claim.empty();
  std::string claim_line = claim.empty() ? "" : "claim " + claim + ": no such result\n";
  for (const WorkloadSpec& spec : kWorkloads) {
    const std::string workload = spec.name;
    if (parents.front().values.count(workload) == 0) {
      continue;
    }
    double parent_failed = 0;
    double change_failed = 0;
    for (size_t i = 0; i < parents.size(); ++i) {
      parent_failed += parents[i].failed[workload];
      change_failed += changes[i].failed[workload];
    }
    const auto sample = [&](const MetricSpec& m) -> std::optional<PairedSample> {
      PairedSample s;
      for (size_t i = 0; i < parents.size(); ++i) {
        const auto& pv = parents[i].values[workload];
        const auto& cv = changes[i].values[workload];
        if (pv.count(m.name) == 0 || cv.count(m.name) == 0) {
          return std::nullopt;
        }
        s.parent.push_back(pv.at(m.name));
        s.change.push_back(cv.at(m.name));
      }
      return s;
    };
    const bool claimed_here = claimed.has_value() && workload == claim_workload;
    if (claimed_here) {
      if (const auto s = sample(*claimed); s.has_value()) {
        claim_line = ClaimVerdict(*claimed, *s, parent_failed, change_failed, claim, &claim_met);
      }
    }
    std::printf("%-13s", workload.c_str());
    for (const MetricSpec& m : bounded) {
      const auto s = sample(m);
      std::string verdict;
      if (!s.has_value()) {
        verdict = "missing";
      } else if (claimed_here && m.name == claimed->name) {
        verdict = claim_met ? "GAIN" : "NO-GAIN";
      } else {
        verdict = BoundVerdict(m, *s, &regressed);
      }
      char cell[64];
      if (s.has_value()) {
        const double p = Median(s->parent);
        std::snprintf(cell, sizeof(cell), "%s %+.1f%%", verdict.c_str(),
                      p != 0 ? 100 * (Median(s->change) - p) / std::abs(p) : 0.0);
      } else {
        std::snprintf(cell, sizeof(cell), "%s", verdict.c_str());
      }
      std::printf(" %-24s", cell);
    }
    std::printf("\n");
  }
  std::printf("%s", claim_line.c_str());
  return regressed || !claim_met ? 1 : 0;
}

}  // namespace e2e

#endif  // BENCH_E2E_COMPARE_H_
