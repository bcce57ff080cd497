// Time-series recording and summary statistics for experiment output.

#ifndef THEMIS_SRC_STATS_TIME_SERIES_H_
#define THEMIS_SRC_STATS_TIME_SERIES_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "src/sim/time.h"

namespace themis {

struct Sample {
  TimePs time;
  double value;
};

// q in [0, 1] over ascending `sorted` (non-empty); linear interpolation
// between adjacent order statistics (the same convention NumPy's default
// percentile uses).
inline double SortedPercentile(const std::vector<double>& sorted, double q) {
  const double rank = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

// SortedPercentile over an unsorted copy of `values`; 0 for an empty input.
inline double PercentileOf(const std::vector<double>& values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::vector<double> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  return SortedPercentile(sorted, q);
}

// The percentile row every FCT table reports (p50/p95/p99 slowdown).
struct PercentileSummary {
  double p50 = 0.0;
  double p90 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
  double max = 0.0;
  size_t count = 0;

  static PercentileSummary Of(const std::vector<double>& values) {
    PercentileSummary s;
    s.count = values.size();
    if (values.empty()) {
      return s;
    }
    std::vector<double> sorted = values;
    std::sort(sorted.begin(), sorted.end());
    s.p50 = SortedPercentile(sorted, 0.50);
    s.p90 = SortedPercentile(sorted, 0.90);
    s.p95 = SortedPercentile(sorted, 0.95);
    s.p99 = SortedPercentile(sorted, 0.99);
    s.max = sorted.back();
    return s;
  }
};

class TimeSeries {
 public:
  void Record(TimePs time, double value) { samples_.push_back(Sample{time, value}); }

  const std::vector<Sample>& samples() const { return samples_; }
  bool empty() const { return samples_.empty(); }
  size_t size() const { return samples_.size(); }

  double Mean() const {
    if (samples_.empty()) {
      return 0.0;
    }
    double sum = 0.0;
    for (const Sample& s : samples_) {
      sum += s.value;
    }
    return sum / static_cast<double>(samples_.size());
  }

  double Min() const {
    double m = samples_.empty() ? 0.0 : samples_.front().value;
    for (const Sample& s : samples_) {
      m = std::min(m, s.value);
    }
    return m;
  }

  double Max() const {
    double m = samples_.empty() ? 0.0 : samples_.front().value;
    for (const Sample& s : samples_) {
      m = std::max(m, s.value);
    }
    return m;
  }

  // q in [0, 1]; interpolated order statistic on a sorted copy.
  double Percentile(double q) const {
    std::vector<double> values;
    values.reserve(samples_.size());
    for (const Sample& s : samples_) {
      values.push_back(s.value);
    }
    return PercentileOf(values, q);
  }

  void Clear() { samples_.clear(); }

 private:
  std::vector<Sample> samples_;
};

// Two-sample Kolmogorov-Smirnov statistic: sup_x |F_a(x) - F_b(x)| over the
// empirical CDFs of the two samples. 0 = identical distributions, 1 = fully
// disjoint supports. Used by the hybrid-fidelity harness to compare slowdown
// CDFs between a packet-level reference and a hybrid run. Returns 1.0 when
// exactly one sample is empty, 0.0 when both are.
inline double KsStatistic(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.empty() || b.empty()) {
    return (a.empty() && b.empty()) ? 0.0 : 1.0;
  }
  std::vector<double> sa = a;
  std::vector<double> sb = b;
  std::sort(sa.begin(), sa.end());
  std::sort(sb.begin(), sb.end());
  const double na = static_cast<double>(sa.size());
  const double nb = static_cast<double>(sb.size());
  size_t ia = 0;
  size_t ib = 0;
  double d = 0.0;
  while (ia < sa.size() && ib < sb.size()) {
    const double x = std::min(sa[ia], sb[ib]);
    while (ia < sa.size() && sa[ia] <= x) {
      ++ia;
    }
    while (ib < sb.size() && sb[ib] <= x) {
      ++ib;
    }
    d = std::max(d, std::fabs(static_cast<double>(ia) / na - static_cast<double>(ib) / nb));
  }
  return d;
}

// Statistics over a plain collection of scalars (e.g. per-flow throughputs).
struct ScalarSummary {
  double mean = 0.0;
  double min = 0.0;
  double max = 0.0;
  double stddev = 0.0;
  size_t count = 0;

  static ScalarSummary Of(const std::vector<double>& values) {
    ScalarSummary s;
    s.count = values.size();
    if (values.empty()) {
      return s;
    }
    s.min = values.front();
    s.max = values.front();
    double sum = 0.0;
    for (double v : values) {
      sum += v;
      s.min = std::min(s.min, v);
      s.max = std::max(s.max, v);
    }
    s.mean = sum / static_cast<double>(values.size());
    double var = 0.0;
    for (double v : values) {
      var += (v - s.mean) * (v - s.mean);
    }
    s.stddev = std::sqrt(var / static_cast<double>(values.size()));
    return s;
  }
};

}  // namespace themis

#endif  // THEMIS_SRC_STATS_TIME_SERIES_H_
