#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "support/stats.hpp"

namespace spmvopt::e2e {

namespace {
std::vector<double> sorted(std::span<const double> xs) {
  std::vector<double> v(xs.begin(), xs.end());
  std::sort(v.begin(), v.end());
  return v;
}
}  // namespace

double median_of(std::span<const double> xs) {
  return xs.empty() ? 0.0 : median(xs);
}

std::array<double, 3> quartiles(std::span<const double> xs) {
  if (xs.empty()) return {0.0, 0.0, 0.0};
  const std::vector<double> v = sorted(xs);
  const long ld = static_cast<long>(v.size());
  if (ld == 1) return {v[0], v[0], v[0]};
  // statistics.quantiles(method="exclusive", n=4): m = len + 1, position
  // j = i*m // 4 clamped to [1, len-1], weight delta = i*m - 4*j.
  const long m = ld + 1;
  std::array<double, 3> q{};
  for (long i = 1; i <= 3; ++i) {
    const long j = std::clamp(i * m / 4, 1L, ld - 1);
    const long delta = i * m - j * 4;
    q[static_cast<std::size_t>(i - 1)] =
        (v[static_cast<std::size_t>(j - 1)] * static_cast<double>(4 - delta) +
         v[static_cast<std::size_t>(j)] * static_cast<double>(delta)) /
        4.0;
  }
  return q;
}

double relative_spread(std::span<const double> xs) {
  const double med = median_of(xs);
  if (med == 0.0) return 0.0;
  const auto q = quartiles(xs);
  return (q[2] - q[0]) / std::abs(med);
}

std::optional<double> tail_percentile(std::span<const double> xs, double q) {
  const std::size_t n = xs.size();
  if (n == 0) return std::nullopt;
  // The epsilon keeps 0.99 * 1100 (not exact in binary) at rank 1089.
  const auto rank =
      static_cast<std::size_t>(std::ceil(q * static_cast<double>(n) - 1e-9));
  const std::size_t k = rank == 0 ? 0 : rank - 1;
  if (n - 1 - k <= 10) return std::nullopt;
  const std::vector<double> v = sorted(xs);
  return v[k];
}

}  // namespace spmvopt::e2e
