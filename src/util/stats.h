// Lightweight statistics utilities used by performance counters, profilers,
// and the benchmark harnesses: running mean/variance, min/max, and a simple
// fixed-bucket histogram for idle-period distributions.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace ndp {

/// \brief Welford running mean / variance / extrema accumulator.
class RunningStats {
 public:
  void Add(double x) {
    ++n_;
    double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
    sum_ += x;
  }

  uint64_t count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  double sum() const { return sum_; }
  double variance() const { return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0; }
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }

  // ndp-lint: test-only-ok tests reuse one accumulator
  void Reset() { *this = RunningStats(); }

 private:
  uint64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// \brief Histogram over [lo, hi) with uniform buckets plus overflow/underflow.
class Histogram {
 public:
  Histogram(double lo, double hi, size_t buckets)
      : lo_(lo), hi_(hi), counts_(buckets + 2, 0) {}

  void Add(double x) {
    stats_.Add(x);
    size_t b;
    if (x < lo_) {
      b = 0;
    } else if (x >= hi_) {
      b = counts_.size() - 1;
    } else {
      b = 1 + static_cast<size_t>((x - lo_) / (hi_ - lo_) *
                                  static_cast<double>(counts_.size() - 2));
    }
    ++counts_[b];
  }

  /// Approximate quantile in [0,1] from bucket boundaries.
  double Quantile(double q) const;

  const RunningStats& stats() const { return stats_; }
  uint64_t bucket_count(size_t b) const { return counts_[b]; }
  size_t num_buckets() const { return counts_.size(); }

  /// Multi-line ASCII rendering, for bench output.
  std::string ToAscii(size_t max_width = 50) const;

 private:
  double lo_, hi_;
  std::vector<uint64_t> counts_;
  RunningStats stats_;
};

}  // namespace ndp
