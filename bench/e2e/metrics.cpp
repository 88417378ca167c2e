#include "metrics.hpp"

#include <cstdio>
#include <stdexcept>
#include <thread>

#include "support/cpu_info.hpp"

namespace spmvopt::e2e {

namespace {

constexpr bool kLower = false;
constexpr bool kHigher = true;
constexpr MetricKind kE2e = MetricKind::EndToEnd;
constexpr MetricKind kVerb = MetricKind::PerVerb;
constexpr MetricKind kLayer = MetricKind::Layer;

// Order = BENCHMARK.json order.  What each per-layer metric should move is
// written down in README.md, next to this list.
constexpr MetricSpec kCatalogue[] = {
    // End to end on every workload: what a caller of the library or a
    // client of spmvoptd sees.
    {"setup_s", "s", kLower, kE2e},
    {"latency_p50_ms", "ms", kLower, kE2e},
    {"throughput_per_s", "1/s", kHigher, kE2e},
    // End to end where the workload has it (or where it repeats), measured
    // untraced.  A p50 or rate has the bound of its end-to-end alias
    // (run_p50_ms is latency_p50_ms on serve-hot), a tail 0.25.  Two repeat
    // closely and are held tighter: the CG solve (within 0.025 over ten
    // seeds) and the memory peak.
    {"solve_s", "s", kLower, kVerb, 0.05},
    {"req_per_s", "1/s", kHigher, kVerb, 0.24},
    {"run_p50_ms", "ms", kLower, kVerb, 0.24},
    {"run_p99_ms", "ms", kLower, kVerb, 0.25},
    {"run_many_p50_ms", "ms", kLower, kVerb, 0.24},
    {"run_many_p99_ms", "ms", kLower, kVerb, 0.25},
    {"submit_p50_ms", "ms", kLower, kVerb, 0.24},
    {"submit_p99_ms", "ms", kLower, kVerb, 0.25},
    {"peak_rss_mb", "MiB", kLower, kVerb, 0.09},
    {"error_rate", "failed/attempted", kLower, kVerb, 0.0},
    // solvers
    {"solvers.self_s", "s", kLower, kLayer},
    {"solvers.iters", "count", kLower, kLayer},
    {"solvers.residual", "ratio", kLower, kLayer},
    {"solvers.transition_s", "s", kLower, kLayer},
    // kernels + perf
    {"kernels.matvec_s", "s", kLower, kLayer},
    {"kernels.matvec_calls", "count", kLower, kLayer},
    {"kernels.matvec_us", "us", kLower, kLayer},
    {"kernels.run_many_us", "us", kLower, kLayer},
    {"kernels.computed_gbps", "GB/s", kHigher, kLayer},
    {"kernels.frac_bmax", "ratio", kHigher, kLayer},
    {"kernels.serial_csr_us", "us", kLower, kLayer},
    {"perf.bmax_dram_gbps", "GB/s", kHigher, kLayer},
    {"perf.bmax_llc_gbps", "GB/s", kHigher, kLayer},
    // classify / optimize
    {"classify.heuristic_s", "s", kLower, kLayer},
    {"optimize.create_s", "s", kLower, kLayer},
    {"optimize.format_bytes", "bytes", kLower, kLayer},
    // server
    {"server.handle_us.run", "us", kLower, kLayer},
    {"server.handle_us.run_many", "us", kLower, kLayer},
    {"server.handle_us.submit", "us", kLower, kLayer},
    {"server.transport_queue_us.run", "us", kLower, kLayer},
    {"server.transport_queue_us.run_many", "us", kLower, kLayer},
    {"server.transport_queue_us.submit", "us", kLower, kLayer},
    {"server.busy_s", "s", kLower, kLayer},
    {"server.peak_concurrent", "count", kHigher, kLayer},
    {"server.errors", "count", kLower, kLayer},
    {"server.rejected_overload", "count", kLower, kLayer},
    {"server.shed_submits", "count", kLower, kLayer},
    {"server.expired_in_queue", "count", kLower, kLayer},
    // protocol
    {"protocol.encode_us.run", "us", kLower, kLayer},
    {"protocol.encode_us.run_many", "us", kLower, kLayer},
    {"protocol.encode_us.submit", "us", kLower, kLayer},
    {"protocol.decode_us.run", "us", kLower, kLayer},
    {"protocol.decode_us.run_many", "us", kLower, kLayer},
    {"protocol.decode_us.submit", "us", kLower, kLayer},
    {"protocol.request_bytes.run", "bytes", kLower, kLayer},
    {"protocol.request_bytes.run_many", "bytes", kLower, kLayer},
    {"protocol.request_bytes.submit", "bytes", kLower, kLayer},
    {"protocol.reply_bytes.run", "bytes", kLower, kLayer},
    {"protocol.reply_bytes.run_many", "bytes", kLower, kLayer},
    {"protocol.reply_bytes.submit", "bytes", kLower, kLayer},
    // plan cache
    {"cache.hot_hits", "count", kHigher, kLayer},
    {"cache.warm_hits", "count", kHigher, kLayer},
    {"cache.misses", "count", kLower, kLayer},
    {"cache.evictions", "count", kLower, kLayer},
    {"cache.resident_mb", "MiB", kLower, kLayer},
    {"cache.hot_ratio", "ratio", kHigher, kLayer},
    // support
    {"fingerprint.us", "us", kLower, kLayer},
    // engine (per solve or per request)
    {"engine.dispatches", "count", kLower, kLayer},
    {"engine.pool_tasks", "count", kLower, kLayer},
    {"engine.pool_steals", "count", kLower, kLayer},
    {"engine.pool_parks", "count", kLower, kLayer},
    // the recorder itself
    {"trace.spans", "count", kLower, kLayer},
    {"trace.dropped", "count", kLower, kLayer},
};

constexpr std::size_t kCount = sizeof(kCatalogue) / sizeof(kCatalogue[0]);

}  // namespace

std::span<const MetricSpec> catalogue() noexcept { return kCatalogue; }

const MetricSpec* find_metric(std::string_view name) noexcept {
  for (const MetricSpec& m : kCatalogue)
    if (name == m.name) return &m;
  return nullptr;
}

Result::Result(Workload w, std::uint64_t seed, bool trace, bool smoke,
               double seconds)
    : workload_(w),
      seed_(seed),
      trace_(trace),
      smoke_(smoke),
      seconds_(seconds),
      values_(kCount) {}

bool Result::in_document(const MetricSpec& m) const noexcept {
  return trace_ || m.kind != MetricKind::Layer;
}

void Result::set(std::string_view name, double value, std::size_t samples) {
  const MetricSpec* m = find_metric(name);
  if (m == nullptr)
    throw std::invalid_argument("unknown metric '" + std::string(name) + "'");
  values_[static_cast<std::size_t>(m - kCatalogue)] = Value{value, samples};
}

report::Json Result::document() const {
  using report::Json;
  const CpuInfo& cpu = cpu_info();
  Json host = Json::object();
  // cpu_info() counts the CPUs this thread may run on, which is one once
  // the default engine has pinned it; the host block wants the machine's.
  host.set("cpu_model", cpu.model_name)
      .set("logical_cpus", static_cast<int>(std::thread::hardware_concurrency()))
      .set("llc_bytes", static_cast<std::uint64_t>(cpu.llc_bytes))
      .set("threads", default_threads())
      .set("avx2", cpu.has_avx2)
      .set("avx512f", cpu.has_avx512f);
  Json metrics = Json::object();
  for (std::size_t i = 0; i < kCount; ++i) {
    if (!in_document(kCatalogue[i])) continue;
    Json m = Json::object();
    m.set("value", values_[i].value)
        .set("unit", kCatalogue[i].unit)
        .set("samples", static_cast<std::uint64_t>(values_[i].samples));
    metrics.set(kCatalogue[i].name, std::move(m));
  }
  Json doc = Json::object();
  doc.set("schema", "spmvopt-e2e/v1")
      .set("workload", workload_name(workload_))
      .set("seed", seed_)
      .set("trace", trace_)
      .set("smoke", smoke_)
      .set("seconds", seconds_)
      .set("host", std::move(host))
      .set("attempted", attempted)
      .set("failed", failed)
      .set("metrics", std::move(metrics))
      .set("detail", detail);
  return doc;
}

std::string Result::human() const {
  std::string out;
  char line[256];
  std::snprintf(line, sizeof line, "%s seed=%llu trace=%d: %llu attempted, %llu failed\n",
                workload_name(workload_), static_cast<unsigned long long>(seed_),
                trace_ ? 1 : 0, static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
  out += line;
  for (std::size_t i = 0; i < kCount; ++i) {
    if (!in_document(kCatalogue[i])) continue;
    std::snprintf(line, sizeof line, "  %-36s %16.6g %-6s n=%zu\n",
                  kCatalogue[i].name, values_[i].value, kCatalogue[i].unit,
                  values_[i].samples);
    out += line;
  }
  return out;
}

std::string Result::summary_line() const {
  using report::Json;
  Json metrics = Json::object();
  for (std::size_t i = 0; i < kCount; ++i) {
    if ((kCatalogue[i].kind == MetricKind::EndToEnd) == trace_) continue;
    Json m = Json::object();
    m.set("value", values_[i].value).set("unit", kCatalogue[i].unit);
    metrics.set(kCatalogue[i].name, std::move(m));
  }
  Json line = Json::object();
  line.set("correct", attempted > 0 && failed == 0)
      .set("attempted", attempted)
      .set("failed", failed)
      .set("metrics", std::move(metrics));
  return line.dump(-1);
}

}  // namespace spmvopt::e2e
