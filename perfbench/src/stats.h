// Sample arithmetic of the benchmark: percentiles, the tail-percentile
// rule, and ratios that carry their base.
//
// Percentiles use the nearest-rank definition: the p-th percentile of n
// samples is the value at rank ceil(p/100 * n) of the sorted sample, so
// n - rank samples lie strictly beyond it. A tail percentile is reported
// only when at least kMinBeyond samples lie beyond it; with fewer, the
// value would be set by a handful of outliers and would not repeat.
#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// Samples that must lie beyond a reported tail percentile.
inline constexpr size_t kMinBeyond = 10;

/// 1-based nearest rank of percentile `p` (0 < p <= 100) among `n`
/// samples; 0 when n == 0.
size_t NearestRank(size_t n, double p);

/// Nearest-rank percentile of `samples` (any order); 0 for an empty
/// sample.
double Percentile(std::vector<double> samples, double p);

/// Percentile(samples, 50).
double Median(std::vector<double> samples);

/// The highest of the candidate percentiles 99.9, 99, 90 and 50 that has
/// at least kMinBeyond samples beyond it.
struct Tail {
  double pct = 0;    ///< Which percentile; 0 when the sample is too small.
  double value = 0;  ///< Its value; 0 when pct == 0.
  size_t samples = 0;
};
Tail TailPercentile(const std::vector<double>& samples);

/// A ratio reported together with its base, so a reader can tell 0/0
/// from 0/1000. value() is 0 when the base is 0.
struct Ratio {
  double part = 0;
  double base = 0;
  double value() const { return base > 0 ? part / base : 0; }
};

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
