// Krylov solvers: CG / PCG and Flexible GMRES (Saad 1993).
//
// The paper's multi-node configuration (Table 4) wraps AMG as the
// preconditioner of Flexible GMRES; FGMRES tolerates the slightly varying
// preconditioner that a parallel AMG V-cycle is. CG is provided for SPD
// systems and used by the examples. FGMRES is written once, over the small
// backend interface in krylov/fgmres_core.hpp; `fgmres` below and the
// distributed `dist_fgmres` (dist/dist_krylov.hpp) are its two backends.
#pragma once

#include <functional>
#include <string>

#include "matrix/csr.hpp"
#include "matrix/vector_ops.hpp"
#include "support/counters.hpp"
#include "support/deadline.hpp"
#include "support/error.hpp"

namespace hpamg {

/// Preconditioner apply: z = M^{-1} r (must accept z == r storage aliasing
/// being distinct; z is overwritten).
using Preconditioner = std::function<void(const Vector& r, Vector& z)>;

struct KrylovResult {
  Int iterations = 0;
  double final_relres = 0.0;
  bool converged = false;
  /// Why the solve stopped (support/error.hpp): kOk, kRecovered (converged
  /// after at least one recovery), kMaxIterations, kDeadlineExceeded,
  /// kNonFinite (NaN/Inf residual or basis vector with the recovery budget
  /// spent), kStagnated (exact breakdown — no further progress possible).
  /// converged == status_ok().
  Status status = Status::kMaxIterations;
  /// First iteration that produced a non-finite quantity; -1 if none.
  Int nonfinite_iteration = -1;
  Int recoveries = 0;               ///< FGMRES recoveries performed
  std::vector<std::string> events;  ///< incident log (one line each)
  /// Relative residual after each iteration (history[k] after iteration
  /// k+1; the initial residual is not recorded). FGMRES records the
  /// Givens-rotation estimate.
  std::vector<double> history;
};

/// Recovery budget of one FGMRES solve, mirroring AMGSolver::kMaxRecoveries.
inline constexpr Int kKrylovMaxRecoveries = 3;

struct KrylovOptions {
  double rtol = 1e-7;
  Int max_iterations = 1000;
  Int restart = 50;  ///< FGMRES restart length
  /// Time budget, checked once per iteration (per inner Arnoldi step for
  /// FGMRES): an expired deadline stops the solve with
  /// Status::kDeadlineExceeded and the partial iterate/history. Defaults
  /// to never expiring.
  Deadline deadline;
};

/// (Preconditioned) conjugate gradient. Pass a null precond for plain CG.
[[nodiscard]] KrylovResult pcg(const CSRMatrix& A, const Vector& b, Vector& x,
                 const KrylovOptions& opt = {},
                 const Preconditioner& precond = nullptr);

/// Flexible GMRES(m): the preconditioner may change between iterations
/// (stores the preconditioned basis Z). Right-preconditioned; a null
/// precond is the identity. A non-finite Arnoldi quantity discards the
/// in-flight basis and restarts from the last restart iterate; a
/// non-finite restart residual restores the best restart iterate. Each
/// counts against kKrylovMaxRecoveries, after which the solve stops with
/// kNonFinite.
[[nodiscard]] KrylovResult fgmres(const CSRMatrix& A, const Vector& b, Vector& x,
                    const KrylovOptions& opt = {},
                    const Preconditioner& precond = nullptr);

}  // namespace hpamg
