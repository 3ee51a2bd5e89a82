// Order statistics for the benchmark's samples.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

namespace perfbench {

/// Quantile q of latency samples in ns, as a grouped-data quantile over
/// classes of `width` ns. A VM clock commonly advances in 10 ns steps, so
/// many samples share one value, and a plain order statistic would jump a
/// whole step from run to run. The rank is instead interpolated inside its
/// class, [floor(v / width) * width, + width). Sorts `s`; 0 when empty.
template <typename T>
double quantile(std::vector<T>& s, double q, T width = 10) {
  if (s.empty()) return 0.0;
  std::sort(s.begin(), s.end());
  const double rank = q * static_cast<double>(s.size());
  const std::size_t i = std::min(static_cast<std::size_t>(rank), s.size() - 1);
  const T base = s[i] - s[i] % width;
  const auto lo = std::lower_bound(s.begin(), s.end(), base);
  const auto hi = std::lower_bound(lo, s.end(), base + width);
  const double within = (rank - static_cast<double>(lo - s.begin())) /
                        static_cast<double>(hi - lo);
  return static_cast<double>(base) +
         std::clamp(within, 0.0, 1.0) * static_cast<double>(width);
}

/// Median of real-valued measurements (mean of the middle pair when even).
inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

}  // namespace perfbench
