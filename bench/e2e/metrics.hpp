// The benchmark's metric catalogue and the result of one run.
//
// Every workload reports every metric, so one list serves all four (the
// tables in README.md say what each one means per workload).  A metric a
// workload does not produce reads 0 with 0 samples: no server time on
// cg-dram, no solver time on serve-hot, no run_many on serve-churn.
// BENCHMARK.json lists the same names in the same order, the end-to-end
// ones under "end_to_end" and the rest under "per_layer"; `spmvopt_bench
// smoke` checks it.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "inputs.hpp"
#include "report/json.hpp"

namespace spmvopt::e2e {

enum class MetricKind {
  /// What a caller sees, defined and nonzero on every workload; measured
  /// untraced, bound in BENCHMARK.json.
  EndToEnd,
  /// What a caller sees, on the workloads that have it and where it
  /// repeats (per-verb latency, solve time, peak memory, error rate);
  /// measured untraced, bound in the catalogue.  BENCHMARK.json can bound
  /// only metrics every workload reports, so it lists these under
  /// per_layer; `agree` gates them all the same.
  PerVerb,
  /// One layer's share, from the traced run only.
  Layer,
};

struct MetricSpec {
  const char* name;
  const char* unit;
  bool higher_is_better;
  MetricKind kind;
  /// PerVerb: the `agree` bound, a share of the reference median; 0 means
  /// no increase at all, compared absolutely (error_rate).
  double bound = 0.0;
};

[[nodiscard]] std::span<const MetricSpec> catalogue() noexcept;
[[nodiscard]] const MetricSpec* find_metric(std::string_view name) noexcept;

/// Everything one `spmvopt_bench --workload W` invocation measured.
class Result {
 public:
  Result(Workload w, std::uint64_t seed, bool trace, bool smoke,
         double seconds);

  /// Record a catalogue metric; throws std::invalid_argument on an unknown
  /// name (a typo must not silently emit a 0).
  void set(std::string_view name, double value, std::size_t samples);
  /// Note one checked operation (a solve or a request) and whether its
  /// output matched the reference.
  void count(bool ok) noexcept {
    ++attempted;
    if (!ok) ++failed;
  }

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Labels and breakdowns that are not metrics: plans, per-tenant numbers,
  /// cache-state counts, the trace file.
  report::Json detail = report::Json::object();

  /// The spmvopt-e2e/v1 document: workload, seed, host block, metrics
  /// (untraced: end-to-end and per-verb; traced: all).
  [[nodiscard]] report::Json document() const;
  /// One line per metric of the document: name, value, unit, sample count.
  [[nodiscard]] std::string human() const;
  /// The final stdout line: {"correct", "attempted", "failed", "metrics"}
  /// with BENCHMARK.json's end_to_end metrics (untraced) or its per_layer
  /// ones (traced).
  [[nodiscard]] std::string summary_line() const;

 private:
  struct Value {
    double value = 0.0;
    std::size_t samples = 0;
  };
  [[nodiscard]] bool in_document(const MetricSpec& m) const noexcept;

  Workload workload_;
  std::uint64_t seed_;
  bool trace_;
  bool smoke_;
  double seconds_;
  std::vector<Value> values_;  ///< parallel to catalogue()
};

}  // namespace spmvopt::e2e
