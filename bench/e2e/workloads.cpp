#include "workloads.hpp"

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>

#include <cmath>
#include <exception>
#include <thread>

#include "perf/stream.hpp"
#include "stats.hpp"
#include "support/timing.hpp"
#include "trace.hpp"

namespace spmvopt::e2e {

Result run_workload(const RunOptions& opt) {
  if (opt.trace) trace::enable(opt.smoke ? 1u << 12 : 1u << 17);
  Result r = opt.workload == Workload::CgDram         ? run_cg_dram(opt)
             : opt.workload == Workload::PagerankRmat ? run_pagerank_rmat(opt)
                                                      : run_serve(opt);
  r.set("error_rate",
        r.attempted > 0 ? static_cast<double>(r.failed) / static_cast<double>(r.attempted)
                        : 1.0,
        r.attempted);
  if (opt.trace) {
    const std::vector<trace::Record> recs = trace::collect();
    r.set("trace.spans", static_cast<double>(recs.size()), 1);
    r.set("trace.dropped", static_cast<double>(trace::dropped()), 1);
    const std::string path = opt.work_dir + "/trace-" + workload_name(opt.workload) +
                             "-" + std::to_string(opt.seed) + ".json";
    if (trace::write_chrome(recs, path)) r.detail.set("trace_file", path);
  }
  return r;
}

Oracle::Oracle(const CsrMatrix& A, std::vector<value_t> x_in, int nrhs)
    : x(std::move(x_in)),
      y(static_cast<std::size_t>(A.nrows()) * static_cast<std::size_t>(nrhs)),
      magnitude(y.size()) {
  const auto nr = static_cast<std::size_t>(A.nrows());
  const auto nc = static_cast<std::size_t>(A.ncols());
  for (std::size_t r = 0; r < static_cast<std::size_t>(nrhs); ++r) {
    const std::span<const value_t> xr(x.data() + r * nc, nc);
    A.multiply(xr, std::span<value_t>(y.data() + r * nr, nr));
    for (index_t i = 0; i < A.nrows(); ++i) {
      value_t m = 0.0;
      for (index_t j = A.rowptr()[i]; j < A.rowptr()[i + 1]; ++j)
        m += std::abs(A.values()[j] * xr[static_cast<std::size_t>(A.colind()[j])]);
      magnitude[r * nr + static_cast<std::size_t>(i)] = m;
    }
  }
}

bool Oracle::check(std::span<const value_t> got, double rel_tol) const {
  if (got.size() != y.size()) return false;
  for (std::size_t i = 0; i < y.size(); ++i)
    if (!(std::abs(got[i] - y[i]) <= rel_tol * magnitude[i])) return false;
  return true;
}

std::pair<double, std::size_t> span_median(const std::vector<trace::Record>& recs,
                                           const char* name, double scale) {
  const std::vector<double> d = trace::durations(recs, name);
  return {median_of(d) * scale, d.size()};
}

double peak_rss_mb() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

namespace {

/// perf::bandwidth_profile() measured from a fresh thread allowed on every
/// CPU.  The default engine pins the calling thread, and an OpenMP team
/// started from that thread would share its one CPU and report a fraction
/// of the host's bandwidth.
perf::BandwidthProfile unpinned_bandwidth_profile() {
  perf::BandwidthProfile bw;
  std::exception_ptr failure;
  std::thread probe([&] {
    cpu_set_t all;
    CPU_ZERO(&all);
    for (int c = 0; c < CPU_SETSIZE; ++c) CPU_SET(c, &all);
    (void)pthread_setaffinity_np(pthread_self(), sizeof all, &all);
    try {
      bw = perf::bandwidth_profile();
    } catch (...) {
      failure = std::current_exception();
    }
  });
  probe.join();
  if (failure) std::rethrow_exception(failure);
  return bw;
}

}  // namespace

void set_kernel_bound_metrics(Result& r, std::span<const KernelSample> samples) {
  double bytes = 0.0, seconds = 0.0;
  std::vector<double> serial_us;
  for (const KernelSample& s : samples) {
    const CsrMatrix& A = *s.A;
    bytes += static_cast<double>(s.format_bytes) +
             static_cast<double>(A.nrows() + A.ncols()) * sizeof(value_t);
    seconds += s.kernel_s;
    const std::vector<value_t> x(static_cast<std::size_t>(A.ncols()), 1.0);
    std::vector<value_t> y(static_cast<std::size_t>(A.nrows()));
    std::vector<double> t;
    for (int i = 0; i < 5; ++i) {
      trace::Span span("kernels.serial_csr");
      const Timer timer;
      A.multiply(x, y);
      t.push_back(timer.elapsed_sec());
    }
    serial_us.push_back(median_of(t) * 1e6);
  }
  const perf::BandwidthProfile bw = unpinned_bandwidth_profile();
  const double gbps = seconds > 0.0 ? bytes / seconds / 1e9 : 0.0;
  double serial_mean = 0.0;
  for (double u : serial_us) serial_mean += u / static_cast<double>(serial_us.size());
  r.set("kernels.computed_gbps", gbps, samples.size());
  r.set("kernels.frac_bmax", gbps / bw.dram_gbps, samples.size());
  r.set("kernels.serial_csr_us", serial_mean, 5 * serial_us.size());
  r.set("perf.bmax_dram_gbps", bw.dram_gbps, 1);
  r.set("perf.bmax_llc_gbps", bw.llc_gbps, 1);
}

}  // namespace spmvopt::e2e
