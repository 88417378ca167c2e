// The four workloads and what they share: run options, the reference
// oracle, and the helpers that turn samples and spans into metrics.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "inputs.hpp"
#include "metrics.hpp"
#include "sparse/csr.hpp"
#include "trace.hpp"

namespace spmvopt::e2e {

struct RunOptions {
  Workload workload = Workload::CgDram;
  std::uint64_t seed = 1;
  double seconds = 20.0;  ///< measured phase: solving time or closed loop
  bool trace = false;
  bool smoke = false;     ///< tiny inputs, for the ctest smoke run
  std::string work_dir = ".";  ///< socket and trace files go here
};

/// Run one workload in this process (its ru_maxrss is the workload's).
/// Traced, it also writes the Chrome trace to
/// <work_dir>/trace-<workload>-<seed>.json.
[[nodiscard]] Result run_workload(const RunOptions& opt);

[[nodiscard]] Result run_cg_dram(const RunOptions& opt);
[[nodiscard]] Result run_pagerank_rmat(const RunOptions& opt);
[[nodiscard]] Result run_serve(const RunOptions& opt);

/// Reference y = A*x (CsrMatrix::multiply, per right-hand side) with the
/// per-row magnitude sum |A||x| that scales the error a reordered or
/// reduced-precision summation may make.
struct Oracle {
  Oracle(const CsrMatrix& A, std::vector<value_t> x_in, int nrhs = 1);
  /// Every |got_i - y_i| <= rel_tol * (|A||x|)_i.
  [[nodiscard]] bool check(std::span<const value_t> got, double rel_tol) const;

  std::vector<value_t> x;
  std::vector<value_t> y;
  std::vector<value_t> magnitude;
};

/// Tolerances relative to |A||x|: an f64 result differs from the serial
/// reference only by summation order; an f32 operand or reply rounds each
/// entry once through binary32 (2^-24) on the way in and once on the way out.
inline constexpr double kTolF64 = 1e-12;
inline constexpr double kTolF32 = 4.0 * 0x1.0p-24;

/// Peak resident set of this process so far, in MiB.
[[nodiscard]] double peak_rss_mb();

/// Median duration of the spans called `name`, in seconds times `scale`,
/// and how many there were.
[[nodiscard]] std::pair<double, std::size_t> span_median(
    const std::vector<trace::Record>& recs, const char* name, double scale);

/// One operator the traced run timed directly: its matrix, the bytes of the
/// format it runs, and the median seconds of one call.
struct KernelSample {
  const CsrMatrix* A = nullptr;
  std::size_t format_bytes = 0;
  double kernel_s = 0.0;
};

/// The traced run's bound-relative kernel metrics over `samples`: computed
/// bytes (S_format + S_x + S_y, perf/bounds.hpp) over measured time, that
/// rate over the DRAM triad B_max of this host, both triad points, and a
/// serial CsrMatrix::multiply baseline.  Runs OpenMP code, so it must come
/// after the measured phase.
void set_kernel_bound_metrics(Result& r, std::span<const KernelSample> samples);

}  // namespace spmvopt::e2e
