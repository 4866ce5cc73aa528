#include "src/base/stats.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace dbase {

void OnlineStats::Add(double x) {
  if (count_ == 0) {
    min_ = x;
    max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

double OnlineStats::variance() const {
  if (count_ < 2) {
    return 0.0;
  }
  return m2_ / static_cast<double>(count_);
}

double OnlineStats::stddev() const { return std::sqrt(variance()); }

double OnlineStats::relative_variance_percent() const {
  if (count_ == 0 || mean_ == 0.0) {
    return 0.0;
  }
  return variance() / (mean_ * mean_) * 100.0;
}

double LatencyRecorder::Percentile(double p) const {
  if (samples_.empty()) {
    return 0.0;
  }
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
  if (p <= 0.0) {
    return samples_.front();
  }
  if (p >= 100.0) {
    return samples_.back();
  }
  const double rank = p / 100.0 * static_cast<double>(samples_.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, samples_.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples_[lo] * (1.0 - frac) + samples_[hi] * frac;
}

double LatencyRecorder::Mean() const {
  if (samples_.empty()) {
    return 0.0;
  }
  return std::accumulate(samples_.begin(), samples_.end(), 0.0) /
         static_cast<double>(samples_.size());
}

double LatencyRecorder::Min() const { return Percentile(0.0); }
double LatencyRecorder::Max() const { return Percentile(100.0); }

void LatencyRecorder::Merge(const LatencyRecorder& other) {
  samples_.insert(samples_.end(), other.samples_.begin(), other.samples_.end());
  sorted_ = false;
}

double TimeSeries::TimeWeightedAverage(Micros end_time) const {
  if (points_.empty()) {
    return 0.0;
  }
  double area = 0.0;
  for (size_t i = 0; i < points_.size(); ++i) {
    const Micros t0 = points_[i].time_us;
    const Micros t1 = (i + 1 < points_.size()) ? points_[i + 1].time_us : end_time;
    if (t1 <= t0) {
      continue;
    }
    area += points_[i].value * static_cast<double>(t1 - t0);
  }
  const Micros span = end_time - points_.front().time_us;
  if (span <= 0) {
    return points_.back().value;
  }
  return area / static_cast<double>(span);
}

double TimeSeries::MaxValue() const {
  double best = 0.0;
  for (const auto& p : points_) {
    best = std::max(best, p.value);
  }
  return best;
}

std::vector<TimePoint> TimeSeries::ResampleStep(Micros interval) const {
  std::vector<TimePoint> out;
  if (points_.empty() || interval <= 0) {
    return out;
  }
  size_t idx = 0;
  double current = points_.front().value;
  for (Micros t = points_.front().time_us; t <= points_.back().time_us; t += interval) {
    while (idx < points_.size() && points_[idx].time_us <= t) {
      current = points_[idx].value;
      ++idx;
    }
    out.push_back({t, current});
  }
  return out;
}

namespace {
int BucketIndex(uint64_t value) {
  if (value == 0) {
    return 0;
  }
  return 64 - __builtin_clzll(value);
}
}  // namespace

void LogHistogram::Add(uint64_t value) {
  int idx = BucketIndex(value);
  if (idx >= kNumBuckets) {
    idx = kNumBuckets - 1;
  }
  buckets_[idx].fetch_add(1, std::memory_order_relaxed);
  total_.fetch_add(1, std::memory_order_relaxed);
}

uint64_t LogHistogram::ApproxPercentile(double p) const {
  // The rank comes from the buckets read here, not from total_: an Add
  // racing this read may have counted its total and not yet its bucket.
  uint64_t counts[kNumBuckets];
  uint64_t total = 0;
  for (int i = 0; i < kNumBuckets; ++i) {
    counts[i] = bucket(i);
    total += counts[i];
  }
  if (total == 0) {
    return 0;
  }
  const uint64_t target =
      static_cast<uint64_t>(p / 100.0 * static_cast<double>(total - 1)) + 1;
  uint64_t seen = 0;
  for (int i = 0; i < kNumBuckets; ++i) {
    seen += counts[i];
    if (seen >= target) {
      return i == 0 ? 0 : (1ULL << i) - 1;  // Upper bound of bucket i.
    }
  }
  return ~0ULL;
}

}  // namespace dbase
