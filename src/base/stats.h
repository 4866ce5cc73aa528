// Statistics utilities: running moments, percentile extraction, latency
// recording, and time-series sampling for committed-memory curves.
#ifndef SRC_BASE_STATS_H_
#define SRC_BASE_STATS_H_

#include <atomic>
#include <cstdint>
#include <vector>

#include "src/base/clock.h"

namespace dbase {

// Welford online mean/variance. Used for the relative-variance numbers the
// paper reports in §7.6 (e.g. Firecracker log processing: 1495 %).
class OnlineStats {
 public:
  void Add(double x);
  int64_t count() const { return count_; }
  double mean() const { return mean_; }
  // Population variance; 0 for fewer than 2 samples.
  double variance() const;
  double stddev() const;
  // Relative variance in percent: variance / mean^2 * 100 (the paper's
  // "relative variance" metric).
  double relative_variance_percent() const;
  double min() const { return min_; }
  double max() const { return max_; }

 private:
  int64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

// Collects individual samples and answers percentile queries. Sorting is
// deferred until the first query.
class LatencyRecorder {
 public:
  LatencyRecorder() { samples_.reserve(1024); }

  void Record(double value) {
    samples_.push_back(value);
    sorted_ = false;
  }
  void RecordMicros(Micros us) { Record(static_cast<double>(us)); }

  size_t count() const { return samples_.size(); }
  bool empty() const { return samples_.empty(); }

  // p in [0, 100]; nearest-rank percentile. Returns 0 when empty.
  double Percentile(double p) const;
  double Median() const { return Percentile(50.0); }
  double Mean() const;
  double Min() const;
  double Max() const;

  void Clear() {
    samples_.clear();
    sorted_ = false;
  }

  const std::vector<double>& samples() const { return samples_; }

  // Merge another recorder's samples into this one.
  void Merge(const LatencyRecorder& other);

 private:
  mutable std::vector<double> samples_;
  mutable bool sorted_ = false;
};

// A (time, value) series, e.g. committed memory over the Azure trace.
struct TimePoint {
  Micros time_us = 0;
  double value = 0.0;
};

class TimeSeries {
 public:
  void Add(Micros t, double v) { points_.push_back({t, v}); }
  const std::vector<TimePoint>& points() const { return points_; }
  bool empty() const { return points_.empty(); }

  // Time-weighted average of a step function defined by the points,
  // evaluated over [points.front().time, end_time].
  double TimeWeightedAverage(Micros end_time) const;
  double MaxValue() const;

  // Resample the step function at a fixed interval — what a plotting script
  // would consume to draw Figure 1 / Figure 10.
  std::vector<TimePoint> ResampleStep(Micros interval) const;

 private:
  std::vector<TimePoint> points_;
};

// Log-spaced histogram for cheap latency distribution summaries (used by
// engines to export queue-wait distributions without storing every sample).
// Lock-free: Add and the reads may run on any threads at once; a read
// racing an Add may miss it.
class LogHistogram {
 public:
  // Buckets: [0,1), [1,2), [2,4), ... up to 2^62, values in arbitrary units.
  static constexpr int kNumBuckets = 64;

  void Add(uint64_t value);
  uint64_t count() const { return total_.load(std::memory_order_relaxed); }
  uint64_t bucket(int i) const { return buckets_[i].load(std::memory_order_relaxed); }
  // Approximate percentile from bucket boundaries (upper bound of bucket).
  uint64_t ApproxPercentile(double p) const;

 private:
  std::atomic<uint64_t> buckets_[kNumBuckets] = {};
  std::atomic<uint64_t> total_{0};
};

}  // namespace dbase

#endif  // SRC_BASE_STATS_H_
