#include "stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

size_t NearestRank(size_t n, double p) {
  if (n == 0) return 0;
  // The small epsilon keeps p/100*n that is an integer in exact arithmetic
  // (e.g. 99% of 1000) from rounding up past it in floating point.
  const double exact = p / 100.0 * static_cast<double>(n);
  const size_t rank = static_cast<size_t>(std::ceil(exact - 1e-9));
  return std::clamp<size_t>(rank, 1, n);
}

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0;
  const size_t rank = NearestRank(samples.size(), p);
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

double Median(std::vector<double> samples) {
  return Percentile(std::move(samples), 50);
}

Tail TailPercentile(const std::vector<double>& samples) {
  Tail tail;
  tail.samples = samples.size();
  for (double p : {99.9, 99.0, 90.0, 50.0}) {
    const size_t rank = NearestRank(samples.size(), p);
    if (rank != 0 && samples.size() - rank >= kMinBeyond) {
      tail.pct = p;
      tail.value = Percentile(samples, p);
      break;
    }
  }
  return tail;
}

}  // namespace perfbench
