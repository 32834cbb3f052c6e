#include <cmath>

#include "amg/spmv.hpp"
#include "krylov/fgmres_core.hpp"
#include "support/live.hpp"
#include "support/log.hpp"
#include "support/trace.hpp"

namespace hpamg {

namespace {

/// Dense upper-Hessenberg least-squares state for one restart cycle:
/// Givens rotations applied on the fly.
class HessenbergLS {
 public:
  explicit HessenbergLS(Int m)
      : m_(m), h_((m + 1) * m, 0.0), cs_(m, 0.0), sn_(m, 0.0), g_(m + 1, 0.0) {}

  double& h(Int i, Int j) { return h_[std::size_t(i) * m_ + j]; }

  void set_rhs(double beta) {
    std::fill(g_.begin(), g_.end(), 0.0);
    g_[0] = beta;
  }

  /// Applies previous rotations to column j, forms a new rotation to zero
  /// h(j+1, j), and returns |g_{j+1}| = current residual norm.
  double apply_rotations(Int j) {
    for (Int i = 0; i < j; ++i) {
      const double t = cs_[i] * h(i, j) + sn_[i] * h(i + 1, j);
      h(i + 1, j) = -sn_[i] * h(i, j) + cs_[i] * h(i + 1, j);
      h(i, j) = t;
    }
    const double a = h(j, j), b = h(j + 1, j);
    const double r = std::hypot(a, b);
    if (r == 0.0) {
      cs_[j] = 1.0;
      sn_[j] = 0.0;
    } else {
      cs_[j] = a / r;
      sn_[j] = b / r;
    }
    h(j, j) = r;
    h(j + 1, j) = 0.0;
    g_[j + 1] = -sn_[j] * g_[j];
    g_[j] = cs_[j] * g_[j];
    return std::abs(g_[j + 1]);
  }

  /// Back-substitutes for the k-dimensional coefficient vector y.
  std::vector<double> solve(Int k) const {
    std::vector<double> y(k, 0.0);
    for (Int i = k - 1; i >= 0; --i) {
      double s = g_[i];
      for (Int j = i + 1; j < k; ++j)
        s -= h_[std::size_t(i) * m_ + j] * y[j];
      y[i] = h_[std::size_t(i) * m_ + i] != 0.0
                 ? s / h_[std::size_t(i) * m_ + i]
                 : 0.0;
    }
    return y;
  }

 private:
  Int m_;
  std::vector<double> h_;
  std::vector<double> cs_, sn_, g_;
};

/// Appends a basis vector of length n when the basis holds exactly j.
Vector& basis_vector(std::vector<Vector>& basis, Int j, std::size_t n) {
  if (basis.size() == std::size_t(j)) basis.emplace_back(n);
  return basis[std::size_t(j)];
}

/// A local CSRMatrix and a Preconditioner (null = identity).
class CsrBackend final : public FgmresBackend {
 public:
  CsrBackend(const CSRMatrix& A, const Preconditioner& M) : A_(A), M_(M) {}
  void apply(const Vector& z, Vector& w) override { spmv(A_, z, w); }
  void precondition(const Vector& v, Vector& z) override {
    if (M_)
      M_(v, z);
    else
      copy(v, z);
  }
  double dot(const Vector& a, const Vector& b) override {
    return hpamg::dot(a, b);
  }
  double norm(const Vector& a) override { return norm2(a); }
  void residual(const Vector& x, const Vector& b, Vector& r) override {
    spmv_residual(A_, x, b, r);
  }
  void recovered(const std::string& event) override {
    HPAMG_LOG_WARN("fgmres %s", event.c_str());
  }

 private:
  const CSRMatrix& A_;
  const Preconditioner& M_;
};

}  // namespace

// Flexible GMRES (Saad 1993): like right-preconditioned GMRES but stores
// the preconditioned vectors Z_j so M may vary per iteration — the
// configuration the paper uses with an AMG V-cycle preconditioner
// (Table 4: "Flexible GMRES [34] with AMG preconditioner").
KrylovResult fgmres_solve(FgmresBackend& be, const Vector& b, Vector& x,
                          const KrylovOptions& opt, FgmresBasis& basis) {
  TRACE_SPAN("krylov.fgmres", "phase");
  live::ActivityScope live_scope;
  const std::size_t n = x.size();
  const Int m = opt.restart;
  KrylovResult res;
  std::vector<Vector>& V = basis.V;
  std::vector<Vector>& Z = basis.Z;
  // Capacity only (no vectors): references into V and Z stay valid while
  // they grow.
  V.reserve(std::size_t(m) + 1);
  Z.reserve(std::size_t(m));
  Vector r(n), w(n);

  double normb = be.norm(b);
  if (normb == 0.0) normb = 1.0;
  // Best finite iterate seen at a restart boundary — the fallback when x
  // itself turns non-finite.
  Vector x_best(x);
  double x_best_relres = -1.0;
  double relres = 0.0, prev_relres = -1.0;
  Int total_it = 0;
  auto recover = [&](std::string event) {
    ++res.recoveries;
    trace::instant("fgmres.recovery", "fault");
    be.recovered(event);
    res.events.push_back(std::move(event));
  };

  while (total_it < opt.max_iterations) {
    be.residual(x, b, r);
    const double beta = be.norm(r);
    relres = beta / normb;
    if (relres < opt.rtol) {
      res.converged = true;
      break;
    }
    if (!std::isfinite(relres)) {
      if (res.nonfinite_iteration < 0) res.nonfinite_iteration = total_it;
      if (res.recoveries < kKrylovMaxRecoveries && x_best_relres >= 0.0) {
        copy(x_best, x);
        recover("recovered at iteration " + std::to_string(total_it) +
                " (non_finite): restored best restart iterate");
        continue;
      }
      res.status = Status::kNonFinite;
      break;
    }
    if (x_best_relres < 0.0 || relres < x_best_relres) {
      copy(x, x_best);
      x_best_relres = relres;
    }
    Vector& v0 = basis_vector(V, 0, n);
    copy(r, v0);
    scale(1.0 / beta, v0);
    HessenbergLS ls(m);
    ls.set_rhs(beta);
    if (prev_relres < 0.0) prev_relres = relres;  // restart-entry residual

    bool basis_poisoned = false, deadline_hit = false;
    Int j = 0;
    for (; j < m && total_it < opt.max_iterations; ++j, ++total_it) {
      if (opt.deadline.expired()) {
        // Fall through to the flexible update: the j completed steps
        // still yield a valid least-squares iterate (partial result).
        deadline_hit = true;
        break;
      }
      TRACE_SPAN("fgmres.iter", "phase", "iteration",
                 std::int64_t(total_it + 1));
      Vector& zj = basis_vector(Z, j, n);
      be.precondition(V[std::size_t(j)], zj);
      be.apply(zj, w);
      for (Int i = 0; i <= j; ++i) {
        const double hij = be.dot(w, V[std::size_t(i)]);
        ls.h(i, j) = hij;
        axpy(-hij, V[std::size_t(i)], w);
      }
      const double hn = be.norm(w);
      ls.h(j + 1, j) = hn;
      if (hn != 0.0 && std::isfinite(hn)) {
        Vector& vn = basis_vector(V, j + 1, n);
        copy(w, vn);
        scale(1.0 / hn, vn);
      }
      relres = ls.apply_rotations(j) / normb;
      res.iterations = total_it + 1;
      res.history.push_back(relres);
      live::beat_iteration(total_it + 1, relres);
      be.iteration_done(total_it + 1, relres, prev_relres);
      prev_relres = relres;
      if (!std::isfinite(relres) || !std::isfinite(hn)) {
        // The in-flight Krylov basis is poisoned; x is still the finite
        // iterate from the last restart boundary. Discard the basis and
        // restart instead of spreading the NaN through the update.
        if (res.nonfinite_iteration < 0)
          res.nonfinite_iteration = total_it + 1;
        basis_poisoned = true;
        ++j;
        ++total_it;
        break;
      }
      if (relres < opt.rtol || hn == 0.0) {
        ++j;
        ++total_it;
        break;
      }
    }
    if (basis_poisoned) {
      if (res.recoveries < kKrylovMaxRecoveries) {
        recover("recovered at iteration " + std::to_string(total_it) +
                " (non_finite): discarded Krylov basis, restarted from "
                "last restart iterate");
        continue;
      }
      res.status = Status::kNonFinite;
      break;
    }
    // x += Z y — the flexible update uses the stored preconditioned basis.
    const std::vector<double> y = ls.solve(j);
    for (Int i = 0; i < j; ++i) axpy(y[std::size_t(i)], Z[std::size_t(i)], x);
    if (relres < opt.rtol) {
      res.converged = true;
      break;
    }
    if (deadline_hit) {
      res.status = Status::kDeadlineExceeded;
      break;
    }
  }
  if (res.converged)
    res.status = res.recoveries > 0 ? Status::kRecovered : Status::kOk;
  res.final_relres = relres;
  return res;
}

KrylovResult fgmres(const CSRMatrix& A, const Vector& b, Vector& x,
                    const KrylovOptions& opt, const Preconditioner& precond) {
  const Int n = A.nrows;
  require(Int(b.size()) == n && Int(x.size()) == n, "fgmres: size mismatch");
  CsrBackend backend(A, precond);
  FgmresBasis basis;
  return fgmres_solve(backend, b, x, opt, basis);
}

}  // namespace hpamg
