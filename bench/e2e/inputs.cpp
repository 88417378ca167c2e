#include "inputs.hpp"

#include "gen/generators.hpp"

namespace spmvopt::e2e {

const char* workload_name(Workload w) noexcept {
  switch (w) {
    case Workload::CgDram: return "cg-dram";
    case Workload::PagerankRmat: return "pagerank-rmat";
    case Workload::ServeHot: return "serve-hot";
    case Workload::ServeChurn: return "serve-churn";
  }
  return "?";
}

std::optional<Workload> parse_workload(std::string_view name) {
  for (Workload w : kWorkloads)
    if (name == workload_name(w)) return w;
  return std::nullopt;
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) noexcept {
  std::uint64_t z = seed + (stream + 1) * 0x9E3779B97F4A7C15ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

CsrMatrix cg_matrix(bool smoke) {
  const index_t g = smoke ? 16 : 112;
  return gen::stencil_3d_7pt(g, g, g);
}

std::vector<value_t> cg_rhs(const CsrMatrix& A, std::uint64_t seed) {
  const std::vector<value_t> x = gen::test_vector(A.ncols(), derive_seed(seed, 1));
  std::vector<value_t> b(static_cast<std::size_t>(A.nrows()));
  A.multiply(x, b);
  return b;
}

CsrMatrix rmat_graph(std::uint64_t seed, bool smoke) {
  return smoke ? gen::rmat(10, 8, 0.57, 0.19, 0.19, derive_seed(seed, 2))
               : gen::rmat(20, 16, 0.57, 0.19, 0.19, derive_seed(seed, 2));
}

std::vector<Tenant> tenants(Workload w, std::uint64_t seed, bool smoke) {
  const auto s = [seed](std::uint64_t k) { return derive_seed(seed, 10 + k); };
  std::vector<Tenant> out;
  if (w == Workload::ServeHot) {
    // 11k to 1.09M nonzeros, every one LLC-resident.
    out.push_back({"stencil2d", smoke ? gen::stencil_2d_5pt(16, 16)
                                      : gen::stencil_2d_5pt(48, 48)});
    out.push_back({"uniform", gen::random_uniform(smoke ? 2000 : 20000, 8, s(1))});
    out.push_back({"powerlaw",
                   gen::power_law(smoke ? 2000 : 50000, 8, 2.0, s(2))});
    out.push_back({"banded", smoke ? gen::banded(4000, 16, 6, s(3))
                                   : gen::banded(100000, 64, 10, s(3))});
  } else if (w == Workload::ServeChurn) {
    // About 128k nonzeros each.
    out.push_back({"stencil2d", smoke ? gen::stencil_2d_5pt(40, 40)
                                      : gen::stencil_2d_5pt(160, 160)});
    out.push_back({"uniform", gen::random_uniform(smoke ? 2000 : 16000, 8, s(1))});
    out.push_back({"powerlaw",
                   gen::power_law(smoke ? 2000 : 16000, 8, 2.0, s(2))});
  }
  return out;
}

CsrMatrix with_new_values(const CsrMatrix& A, std::uint64_t seed) {
  CsrMatrix B = A;
  Xoshiro256 rng(seed);
  value_t* v = B.values_mut();
  for (index_t j = 0; j < B.nnz(); ++j) v[j] = rng.uniform(0.5, 1.5);
  return B;
}

CsrMatrix cold_matrix(std::uint64_t seed, bool smoke) {
  Xoshiro256 rng(seed);
  const auto n = static_cast<index_t>(smoke ? 1000 + rng.bounded(1000)
                                            : 8000 + rng.bounded(8000));
  return gen::random_uniform(n, 8, seed);
}

std::vector<value_t> operand(std::uint64_t seed, int tenant, int k,
                             index_t ncols, int nrhs) {
  const auto stream = static_cast<std::uint64_t>(1000 + 64 * tenant + 8 * k + nrhs);
  return gen::test_vector(ncols * nrhs, derive_seed(seed, stream));
}

const char* verb_name(Verb v) noexcept {
  switch (v) {
    case Verb::Run: return "run";
    case Verb::RunMany: return "run_many";
    case Verb::Submit: return "submit";
  }
  return "?";
}

RequestStream::RequestStream(Workload w, std::uint64_t seed, int client)
    : w_(w),
      rng_(derive_seed(seed, 100 + static_cast<std::uint64_t>(client))) {}

Op RequestStream::next() {
  Op op;
  const std::uint64_t pct = rng_.bounded(100);
  op.slot = static_cast<std::uint8_t>(rng_.bounded(4));
  if (w_ == Workload::ServeHot) {
    op.operand = static_cast<std::uint8_t>(rng_.bounded(kOperandsPerTenant));
    if (pct >= 75) {
      op.verb = Verb::RunMany;
      op.dtype = pct < 88 ? Dtype::F64 : Dtype::F32;
    }
  } else {
    op.seed = rng_();
    if (pct >= 50) {
      op.verb = Verb::Submit;
      op.kind = pct < 80   ? SubmitKind::Hot
                : pct < 95 ? SubmitKind::Warm
                           : SubmitKind::Cold;
    }
  }
  return op;
}

std::vector<Op> request_sequence(Workload w, std::uint64_t seed, int client,
                                 std::size_t count) {
  RequestStream stream(w, seed, client);
  std::vector<Op> ops(count);
  for (Op& op : ops) op = stream.next();
  return ops;
}

}  // namespace spmvopt::e2e
