// Distributed Flexible GMRES with an AMG V-cycle preconditioner — the
// paper's multi-node solver configuration (Table 4).
#pragma once

#include "dist/dist_amg.hpp"
#include "krylov/krylov.hpp"
#include "support/error.hpp"

namespace hpamg {

/// A distributed solve's result. Status, history, recoveries and events
/// are identical on every rank: all classification/recovery decisions are
/// taken from globally reduced residuals, so the ranks never disagree (no
/// extra collectives needed).
struct DistSolveResult : KrylovResult {
  /// Per-iteration telemetry (amg/telemetry.hpp), recorded only when the
  /// metrics registry is enabled; rank-local (per-level times are this
  /// rank's CPU time).
  std::vector<IterationReportEntry> telemetry;
  PhaseTimes solve_times;  ///< GS / SpMV / BLAS1 / Solve_MPI / Solve_etc
};

/// Recovery budget of dist_amg_solve, mirroring AMGSolver::kMaxRecoveries.
inline constexpr Int kDistMaxRecoveries = 3;

/// Collective FGMRES(m) on the distributed system, preconditioned by one
/// V-cycle of `h` per iteration. x holds the local solution slice. The
/// FGMRES core (krylov/fgmres_core.hpp) over simmpi SpMV and reductions,
/// with the same recovery as the local `fgmres` (kKrylovMaxRecoveries).
[[nodiscard]] DistSolveResult dist_fgmres(simmpi::Comm& comm, const DistMatrix& A,
                            DistHierarchy& h, const Vector& b, Vector& x,
                            double rtol, Int max_iterations, Int restart = 50);

/// Collective standalone AMG iteration (V-cycles to tolerance), with the
/// same scrub-and-restart recovery as AMGSolver::solve (restore the last
/// improving iterate on a non-finite or diverging residual).
[[nodiscard]] DistSolveResult dist_amg_solve(simmpi::Comm& comm, const DistMatrix& A,
                               DistHierarchy& h, const Vector& b, Vector& x,
                               double rtol, Int max_iterations);

}  // namespace hpamg
