// The one FGMRES(m) implementation, written over a small backend.
//
// A backend supplies the operator, the preconditioner, the inner products
// and the residual; the core owns the Arnoldi/Givens recurrence, restarts,
// recovery, the deadline check and the residual history. `fgmres`
// (krylov/fgmres.cpp, a local CSRMatrix) and `dist_fgmres`
// (dist/dist_krylov.cpp, simmpi ranks) are its two backends — the shape of
// AMGCL's solvers, each written once over a backend.
//
// The core takes every decision from values the backend returns (norms,
// inner products), so a distributed backend whose reductions are global
// keeps all ranks on the same branch. Orthogonalization is modified
// Gram-Schmidt: one inner product per basis vector, then one norm.
#pragma once

#include <string>
#include <vector>

#include "krylov/krylov.hpp"

namespace hpamg {

class FgmresBackend {
 public:
  virtual ~FgmresBackend() = default;
  /// w = A z.
  virtual void apply(const Vector& z, Vector& w) = 0;
  /// z = M^{-1} v (z is sized and overwritten).
  virtual void precondition(const Vector& v, Vector& z) = 0;
  virtual double dot(const Vector& a, const Vector& b) = 0;
  virtual double norm(const Vector& a) = 0;
  /// r = b - A x.
  virtual void residual(const Vector& x, const Vector& b, Vector& r) = 0;

  /// Observer (no-op by default): iteration `it` finished with relative
  /// residual `relres`; `prev_relres` is the one before it (the first
  /// restart's entry residual for the first iteration).
  virtual void iteration_done(Int it, double relres, double prev_relres) {}
  /// Observer (no-op by default): a recovery was taken; `event` is also
  /// appended to the result's events.
  virtual void recovered(const std::string& event) {}
};

/// Krylov basis: V (orthonormal Arnoldi vectors) and Z (their
/// preconditioned images). The core grows both one vector at a time as the
/// Arnoldi step j advances and reuses them across restarts, so a solve that
/// converges after k iterations holds at most k+1 V and k Z vectors.
struct FgmresBasis {
  std::vector<Vector> V, Z;
};

/// FGMRES(opt.restart) on x (the initial guess, updated in place) for the
/// system the backend describes. `basis` is the workspace; pass an empty one.
[[nodiscard]] KrylovResult fgmres_solve(FgmresBackend& backend,
                                        const Vector& b, Vector& x,
                                        const KrylovOptions& opt,
                                        FgmresBasis& basis);

}  // namespace hpamg
