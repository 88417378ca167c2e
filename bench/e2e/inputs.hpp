// Seeded inputs of the four end-to-end workloads.
//
// Everything a workload feeds to spmvopt — matrices, right-hand sides,
// operand vectors and the clients' request sequences — is a pure function
// of (workload, --seed, --smoke).  The programs under test receive only
// these generated inputs.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "sparse/csr.hpp"
#include "support/dtype.hpp"
#include "support/rng.hpp"

namespace spmvopt::e2e {

enum class Workload { CgDram, PagerankRmat, ServeHot, ServeChurn };

inline constexpr std::array<Workload, 4> kWorkloads = {
    Workload::CgDram, Workload::PagerankRmat, Workload::ServeHot,
    Workload::ServeChurn};

[[nodiscard]] const char* workload_name(Workload w) noexcept;
[[nodiscard]] std::optional<Workload> parse_workload(std::string_view name);

/// Independent sub-seed `stream` of the run seed (SplitMix64 finalizer).
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t seed,
                                        std::uint64_t stream) noexcept;

/// cg-dram: the 7-point Poisson matrix (112^3, 16^3 in smoke mode) and the
/// right-hand side b = A x of a seeded solution x in [0.5, 1.5).
[[nodiscard]] CsrMatrix cg_matrix(bool smoke);
[[nodiscard]] std::vector<value_t> cg_rhs(const CsrMatrix& A, std::uint64_t seed);

/// pagerank-rmat: the seeded R-MAT graph (scale 20 / edge factor 16, scale
/// 10 / 8 in smoke mode).
[[nodiscard]] CsrMatrix rmat_graph(std::uint64_t seed, bool smoke);

/// A tenant matrix the server workloads submit.
struct Tenant {
  std::string name;
  CsrMatrix matrix;
};

/// serve-hot: four LLC-resident tenants; serve-churn: three tenants of about
/// 128k nonzeros.  Library workloads have none.
[[nodiscard]] std::vector<Tenant> tenants(Workload w, std::uint64_t seed,
                                          bool smoke);

/// serve-churn warm submit: `A`'s structure with fresh seeded values.
[[nodiscard]] CsrMatrix with_new_values(const CsrMatrix& A,
                                        std::uint64_t seed);
/// serve-churn cold submit: a structure no earlier request used.
[[nodiscard]] CsrMatrix cold_matrix(std::uint64_t seed, bool smoke);

/// Operand of a serve-hot request: vector `k` of tenant `t`, nrhs of them
/// stacked vector-major for run_many.
inline constexpr int kOperandsPerTenant = 2;
inline constexpr int kNrhs = 8;
[[nodiscard]] std::vector<value_t> operand(std::uint64_t seed, int tenant,
                                           int k, index_t ncols, int nrhs);

enum class Verb : std::uint8_t { Run, RunMany, Submit };
inline constexpr std::array<Verb, 3> kVerbs = {Verb::Run, Verb::RunMany,
                                               Verb::Submit};
[[nodiscard]] const char* verb_name(Verb v) noexcept;

/// Which cache tier a serve-churn submit is built to hit.
enum class SubmitKind : std::uint8_t { Hot, Warm, Cold };

/// One request of a client's fixed sequence.
///   serve-hot:   Run 75 %, RunMany 25 % (half f64, half f32 operands) on
///                tenant `slot`, operand `operand`.
///   serve-churn: Run 50 % on recent matrix `slot`; Submit 50 %: Hot 30 %
///                (re-submit recent matrix `slot`), Warm 15 % (tenant
///                `slot` % 3 with values from `seed`), Cold 5 % (a new
///                structure from `seed`).
struct Op {
  Verb verb = Verb::Run;
  Dtype dtype = Dtype::F64;
  SubmitKind kind = SubmitKind::Hot;
  std::uint8_t slot = 0;
  std::uint8_t operand = 0;
  std::uint64_t seed = 0;

  [[nodiscard]] bool operator==(const Op&) const = default;
};

/// Deterministic request stream of client `client`; the closed loop sends
/// its first requests in order, a fixed number per client.
class RequestStream {
 public:
  RequestStream(Workload w, std::uint64_t seed, int client);
  [[nodiscard]] Op next();

 private:
  Workload w_;
  Xoshiro256 rng_;
};

/// The first `count` requests of client `client`.
[[nodiscard]] std::vector<Op> request_sequence(Workload w, std::uint64_t seed,
                                               int client, std::size_t count);

}  // namespace spmvopt::e2e
