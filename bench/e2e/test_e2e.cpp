// Unit tests of the end-to-end benchmark's own logic: the statistics, the
// agree verdicts and the seeded inputs.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "agree.hpp"
#include "inputs.hpp"
#include "stats.hpp"
#include "support/fingerprint.hpp"

namespace spmvopt::e2e {
namespace {

using report::Json;

std::vector<double> iota(int n) {
  std::vector<double> v(static_cast<std::size_t>(n));
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

TEST(E2eStats, TailPercentileNeedsMoreThanTenSamplesBeyond) {
  EXPECT_FALSE(tail_percentile(iota(1000), 0.99));  // exactly 10 beyond
  const auto p99 = tail_percentile(iota(1100), 0.99);
  ASSERT_TRUE(p99);
  EXPECT_EQ(*p99, 1089.0);  // 11 samples beyond it
  EXPECT_FALSE(tail_percentile({}, 0.99));
}

TEST(E2eStats, MedianAndQuartilesMatchPythonStatistics) {
  EXPECT_EQ(median_of(iota(4)), 2.5);
  EXPECT_EQ(median_of(iota(5)), 3.0);
  // statistics.quantiles([1..5], n=4) == [1.5, 3.0, 4.5]
  EXPECT_EQ(quartiles(iota(5)), (std::array<double, 3>{1.5, 3.0, 4.5}));
  // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
  EXPECT_EQ(quartiles(iota(10)), (std::array<double, 3>{2.75, 5.5, 8.25}));
  EXPECT_EQ(quartiles(std::vector<double>{7.0}), (std::array<double, 3>{7.0, 7.0, 7.0}));
  EXPECT_DOUBLE_EQ(relative_spread(iota(10)), (8.25 - 2.75) / 5.5);
}

Json doc(const char* workload, double latency, double rate, double rate_samples = 1) {
  Json metrics = Json::object();
  metrics.set("latency_p50_ms", Json::object().set("value", latency))
      .set("throughput_per_s",
           Json::object().set("value", rate).set("samples", rate_samples));
  return Json::object()
      .set("schema", "spmvopt-e2e/v1")
      .set("workload", workload)
      .set("trace", false)
      .set("metrics", std::move(metrics));
}

std::vector<Json> docs(const std::vector<double>& latency, double rate = 100.0) {
  std::vector<Json> out;
  for (double l : latency) out.push_back(doc("w", l, rate));
  return out;
}

Verdict latency_verdict(const std::vector<double>& a, const std::vector<double>& b) {
  const std::vector<Bound> bounds = {{"latency_p50_ms", 0.05, false}};
  auto rows = compare(docs(a), docs(b), bounds);
  EXPECT_TRUE(rows.ok());
  EXPECT_EQ(rows.value().size(), 1u);
  return rows.value().front().verdict;
}

TEST(E2eAgree, Verdicts) {
  const std::vector<double> base = {10.0, 10.1, 9.9, 10.0, 10.05};
  EXPECT_EQ(latency_verdict(base, {10.2, 10.3, 10.1, 10.2, 10.25}), Verdict::Within);
  EXPECT_EQ(latency_verdict(base, {11.0, 11.1, 10.9, 11.0, 11.05}), Verdict::Worse);
  EXPECT_EQ(latency_verdict(base, {8.0, 12.0, 10.0, 9.0, 11.0}), Verdict::Unresolved);
  // A wide spread still reads `within` when every run of B beats every run
  // of A.
  EXPECT_EQ(latency_verdict({20.0, 30.0, 25.0, 22.0, 28.0},
                            {10.0, 15.0, 12.0, 11.0, 14.0}),
            Verdict::Within);
}

TEST(E2eAgree, HigherIsBetterMetricsWorsenDownwards) {
  const Bound rate{"throughput_per_s", 0.05, true};
  EXPECT_EQ(judge({100, 101, 99}, {90, 91, 89}, rate), Verdict::Worse);
  EXPECT_EQ(judge({100, 101, 99}, {110, 111, 109}, rate), Verdict::Within);
}

TEST(E2eAgree, DocumentWithoutABoundedMetricIsAFormatError) {
  Json bare = Json::object()
                  .set("schema", "spmvopt-e2e/v1")
                  .set("workload", "w")
                  .set("metrics", Json::object());
  auto rows = compare(docs({10.0}), {bare}, {{"latency_p50_ms", 0.05, false}});
  ASSERT_FALSE(rows.ok());
  EXPECT_EQ(rows.error().category(), ErrorCategory::Format);
}

TEST(E2eAgree, ErrorRateIsComparedAbsolutely) {
  const Bound rate{"error_rate", 0.0, false};
  EXPECT_EQ(judge({0, 0, 0}, {0, 0, 0}, rate), Verdict::Within);
  EXPECT_EQ(judge({0, 0, 0}, {0, 1e-4, 0}, rate), Verdict::Worse);
}

TEST(E2eAgree, MetricsAWorkloadDoesNotProduceAreSkipped) {
  const std::vector<Bound> bounds = {{"latency_p50_ms", 0.05, false},
                                     {"throughput_per_s", 0.05, true}};
  std::vector<Json> a, b;
  for (double l : {10.0, 10.1, 9.9}) {
    a.push_back(doc("w", l, 0.0, 0));
    b.push_back(doc("w", l, 0.0, 0));
  }
  auto rows = compare(a, b, bounds);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows.value().size(), 1u);
  EXPECT_EQ(rows.value()[0].metric, "latency_p50_ms");
}

TEST(E2eAgree, PerVerbBoundsComeFromTheCatalogue) {
  const std::vector<Bound> bounds = per_verb_bounds();
  const auto find = [&](const char* name) {
    return std::find_if(bounds.begin(), bounds.end(),
                        [&](const Bound& b) { return b.name == name; });
  };
  ASSERT_NE(find("run_p99_ms"), bounds.end());
  ASSERT_NE(find("error_rate"), bounds.end());
  EXPECT_EQ(find("error_rate")->bound, 0.0);
  EXPECT_EQ(find("setup_s"), bounds.end());  // BENCHMARK.json bounds it
}

TEST(E2eAgree, BoundsComeFromBenchmarkJson) {
  Json m = Json::object().set("name", "setup_s").set("unit", "s")
               .set("better", "lower").set("bound", 0.25);
  Json bench = Json::object().set("end_to_end", Json::array().push(m));
  auto bounds = bounds_from(bench);
  ASSERT_TRUE(bounds.ok());
  ASSERT_EQ(bounds.value().size(), 1u);
  EXPECT_EQ(bounds.value()[0].name, "setup_s");
  EXPECT_EQ(bounds.value()[0].bound, 0.25);
  EXPECT_FALSE(bounds.value()[0].higher_is_better);
}

std::vector<Fingerprint> tenant_fingerprints(Workload w, std::uint64_t seed) {
  std::vector<Fingerprint> out;
  for (const Tenant& t : tenants(w, seed, true)) out.push_back(fingerprint_of(t.matrix));
  return out;
}

TEST(E2eInputs, SameSeedSameInputsOtherSeedOtherInputs) {
  for (Workload w : {Workload::ServeHot, Workload::ServeChurn}) {
    EXPECT_EQ(tenant_fingerprints(w, 1), tenant_fingerprints(w, 1));
    EXPECT_NE(tenant_fingerprints(w, 1), tenant_fingerprints(w, 2));
    for (int client = 0; client < 2; ++client) {
      EXPECT_EQ(request_sequence(w, 1, client, 500), request_sequence(w, 1, client, 500));
      EXPECT_NE(request_sequence(w, 1, client, 500), request_sequence(w, 2, client, 500));
    }
    EXPECT_NE(request_sequence(w, 1, 0, 500), request_sequence(w, 1, 1, 500));
  }
  EXPECT_EQ(fingerprint_of(rmat_graph(1, true)), fingerprint_of(rmat_graph(1, true)));
  EXPECT_NE(fingerprint_of(rmat_graph(1, true)), fingerprint_of(rmat_graph(2, true)));
  const CsrMatrix A = cg_matrix(true);
  EXPECT_EQ(cg_rhs(A, 1), cg_rhs(A, 1));
  EXPECT_NE(cg_rhs(A, 1), cg_rhs(A, 2));
  EXPECT_EQ(fingerprint_of(cold_matrix(5, true)), fingerprint_of(cold_matrix(5, true)));
}

TEST(E2eInputs, RequestMixMatchesTheWorkloadTables) {
  std::array<int, 3> hot{};
  int f32 = 0;
  for (const Op& op : request_sequence(Workload::ServeHot, 1, 0, 20000)) {
    ++hot[static_cast<int>(op.verb)];
    f32 += op.dtype == Dtype::F32;
  }
  EXPECT_NEAR(hot[0] / 20000.0, 0.75, 0.02);
  EXPECT_NEAR(hot[1] / 20000.0, 0.25, 0.02);
  EXPECT_NEAR(f32 / 20000.0, 0.125, 0.02);
  std::array<int, 3> kinds{};
  int runs = 0;
  for (const Op& op : request_sequence(Workload::ServeChurn, 1, 0, 20000)) {
    if (op.verb == Verb::Run) ++runs;
    else ++kinds[static_cast<int>(op.kind)];
  }
  EXPECT_NEAR(runs / 20000.0, 0.50, 0.02);
  EXPECT_NEAR(kinds[0] / 20000.0, 0.30, 0.02);
  EXPECT_NEAR(kinds[1] / 20000.0, 0.15, 0.02);
  EXPECT_NEAR(kinds[2] / 20000.0, 0.05, 0.01);
}

}  // namespace
}  // namespace spmvopt::e2e
