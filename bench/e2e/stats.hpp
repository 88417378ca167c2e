// Sample statistics of the end-to-end benchmark.
//
// The quartile rule is Python's `statistics.quantiles(values, n=4)` (the
// default "exclusive" method), so the spreads `spmvopt_bench agree` prints
// are the ones any script over the same documents computes.
#pragma once

#include <array>
#include <optional>
#include <span>

namespace spmvopt::e2e {

/// spmvopt::median, but 0 for an empty span (a metric with no samples).
[[nodiscard]] double median_of(std::span<const double> xs);

/// Q1, Q2, Q3 by the exclusive method; a single sample is its own quartiles,
/// an empty span gives zeros.
[[nodiscard]] std::array<double, 3> quartiles(std::span<const double> xs);

/// (Q3 - Q1) / median, the relative spread `agree` compares with a bound.
[[nodiscard]] double relative_spread(std::span<const double> xs);

/// Nearest-rank percentile `q` in (0, 1), reported only when more than ten
/// samples lie strictly beyond it in sorted order; nullopt otherwise (a
/// "p99" over 200 samples is the second-largest value, not a tail).
[[nodiscard]] std::optional<double> tail_percentile(std::span<const double> xs,
                                                    double q);

}  // namespace spmvopt::e2e
