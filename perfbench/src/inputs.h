// Seeded input generation shared by the timed workloads and the traced
// replay. Everything a workload feeds the solver — matrices, value sets,
// right-hand sides, request streams — is produced here before any timing
// starts, from the run's seed alone; the same seed gives the same inputs.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sparse/sparse_matrix.h"
#include "support/prng.h"
#include "support/types.h"

namespace perfbench {

using parfact::index_t;
using parfact::Prng;
using parfact::real_t;
using parfact::SparseMatrix;

struct Config {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool mini = false;       ///< smallest sizes, for the benchmark's self-check
  int corrupt_every = 0;   ///< self-check hook: corrupt every k-th answer
  std::string out_dir;     ///< traces, layer summaries and spill scratch
  int nproc = 1;
};

/// Independent seeded stream `tag` of run seed `seed`.
Prng stream(std::uint64_t seed, std::uint64_t tag);

std::vector<real_t> random_vector(index_t n, Prng& rng);

/// Same pattern as `lower`, values of a congruence D A D with a seeded
/// positive diagonal D, so every value set stays SPD.
std::vector<real_t> spd_value_set(const SparseMatrix& lower, Prng& rng);

/// `pattern` with its values replaced by `values`.
SparseMatrix with_values(const SparseMatrix& pattern,
                         const std::vector<real_t>& values);

// ---- cold_solve -----------------------------------------------------------

/// The three base problems: 3-D 7-point grid, 3-D hex elasticity, 2-D
/// 5-point grid.
std::vector<SparseMatrix> cold_bases(bool mini);

/// Seed-drawn symmetric relabeling P A Pᵀ of `base` (lower storage).
SparseMatrix relabel(const SparseMatrix& base, Prng& rng);

struct ColdRequest {
  SparseMatrix a;
  std::vector<real_t> b;
};

/// Request i of a cold_solve stream uses base i % 3.
ColdRequest make_cold_request(const std::vector<SparseMatrix>& bases,
                              std::size_t i, Prng& rng);

// ---- refactor_stream / service_mix ----------------------------------------

/// One sparsity pattern with a seeded pool of value sets and right-hand
/// sides; `pattern.values` holds value set 0.
struct ValuePool {
  SparseMatrix pattern;
  std::vector<std::vector<real_t>> values;
  std::vector<std::vector<real_t>> rhs;
};

ValuePool make_value_pool(const SparseMatrix& base, int n_values, int n_rhs,
                          Prng& rng);

/// 3-D hex elasticity served by refactor_stream.
SparseMatrix refactor_base(bool mini);

inline constexpr int kRefactorValueSets = 8;
inline constexpr std::size_t kRefactorScheduleLength = std::size_t{1} << 16;

/// Value set installed by each refactor_stream request, in request order.
std::vector<int> make_refactor_schedule(Prng& rng);

/// The four patterns the service_mix sessions cover.
std::vector<SparseMatrix> service_patterns(bool mini);

inline constexpr int kServiceSessions = 12;
inline constexpr int kServiceClients = 2;
inline constexpr int kServiceValueSets = 4;
inline constexpr int kServiceRhs = 4;
inline constexpr std::size_t kServiceStreamLength = std::size_t{1} << 16;

/// Sessions 2k and 2k+1 share pattern k % 4, and the two clients own the
/// even and the odd sessions, so both clients see the same pattern mix.
inline int service_pattern_of(int session) { return (session / 2) % 4; }
inline int service_client_of(int session) { return session % 2; }

struct ServiceOp {
  int session = 0;       ///< one of the issuing client's own sessions
  bool refactor = false; ///< refactorize (10%) or solve (90%)
  int index = 0;         ///< value set (refactorize) or right-hand side
};

/// A client's seeded request stream of kServiceStreamLength operations.
std::vector<ServiceOp> make_service_stream(int client, Prng& rng);

/// Value set each session is opened with.
std::vector<int> service_initial_values(Prng& rng);

}  // namespace perfbench
