// `spmvopt_bench agree A.json... -- B.json...`: do two sets of runs agree?
//
// For every (end-to-end metric, workload) pair it prints each side's median
// and quartiles and a verdict against the metric's bound, a share of side
// A's median.  The bounds of the metrics every workload has come from
// BENCHMARK.json; those of the per-verb metrics (solve_s, run_p99_ms, ...)
// from the catalogue in metrics.cpp, and a pair whose documents measured
// the metric on 0 samples (no run_many on serve-churn) is skipped.
//   within      B's median is no worse than A's by more than the bound;
//   worse       it is, and both sides' spreads fit inside the bound;
//   unresolved  a side's spread (IQR / median) is wider than the bound, so
//               "no worse" cannot be told from noise — unless every run of
//               B reads better than every run of A, which is within.
// A bound of 0 (error_rate) is absolute: worse as soon as one run of B
// reads worse than every run of A.
// A file may also be a bundle {"runs": [documents]}, as the checked-in
// baseline is; a side with untraced runs is judged on those alone.  When one
// side holds only traced runs and the other untraced ones, it reports the
// tracing overhead (the change of each median) instead of verdicts.
#pragma once

#include <string>
#include <vector>

#include "report/json.hpp"
#include "robust/error.hpp"

namespace spmvopt::e2e {

/// Parse the JSON file at `path` (Io when unreadable, Format when invalid).
[[nodiscard]] Expected<report::Json> load_json(const std::string& path);

enum class Verdict { Within, Worse, Unresolved };
[[nodiscard]] const char* verdict_name(Verdict v) noexcept;

/// One end-to-end metric's regression bound.
struct Bound {
  std::string name;
  double bound = 0.0;
  bool higher_is_better = false;
};

/// The `end_to_end` entries of a BENCHMARK.json document.
[[nodiscard]] Expected<std::vector<Bound>> bounds_from(const report::Json& benchmark);
/// The catalogue's per-verb metrics and their bounds.
[[nodiscard]] std::vector<Bound> per_verb_bounds();

[[nodiscard]] Verdict judge(const std::vector<double>& a,
                            const std::vector<double>& b, const Bound& bound);

struct AgreeRow {
  std::string workload;
  std::string metric;
  std::vector<double> a, b;
  Verdict verdict = Verdict::Within;
};

/// Rows for every workload present on both sides and every bound its
/// documents measured; Format error when a document is not spmvopt-e2e/v1
/// or lacks a bounded metric.
[[nodiscard]] Expected<std::vector<AgreeRow>> compare(
    const std::vector<report::Json>& a, const std::vector<report::Json>& b,
    const std::vector<Bound>& bounds);

/// The subcommand: argv after "agree".  Exit code 0, or 1 on any `worse`,
/// 64 on usage errors, 65 on unreadable input.
int agree_main(const std::vector<std::string>& args);

}  // namespace spmvopt::e2e
