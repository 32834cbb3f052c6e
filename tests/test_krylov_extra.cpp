// Additional Krylov-solver properties: residual-history behaviour,
// breakdown/edge handling, and the shared FGMRES core (recovery, lazy
// basis, agreement of the local and simmpi backends).
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "amg/solver.hpp"
#include "amg/spmv.hpp"
#include "dist/dist_krylov.hpp"
#include "gen/stencil.hpp"
#include "krylov/fgmres_core.hpp"
#include "krylov/krylov.hpp"
#include "test_util.hpp"

namespace hpamg {
namespace {

TEST(KrylovExtra, HistoriesDecreaseOverall) {
  CSRMatrix A = lap2d_5pt(20, 20);
  Vector b(A.nrows, 1.0), x(A.nrows, 0.0);
  KrylovOptions o;
  o.rtol = 1e-8;
  KrylovResult r = pcg(A, b, x, o);
  ASSERT_TRUE(r.converged);
  ASSERT_GE(r.history.size(), 2u);
  EXPECT_LT(r.history.back(), r.history.front());
}

TEST(KrylovExtra, ZeroRhsConvergesImmediately) {
  CSRMatrix A = lap2d_5pt(10, 10);
  Vector b(A.nrows, 0.0), x(A.nrows, 0.0);
  for (int which = 0; which < 2; ++which) {
    std::fill(x.begin(), x.end(), 0.0);
    KrylovResult r = which == 0 ? pcg(A, b, x) : fgmres(A, b, x);
    EXPECT_TRUE(r.converged) << which;
    EXPECT_EQ(r.iterations, 0) << which;
  }
}

TEST(KrylovExtra, SizeMismatchThrows) {
  CSRMatrix A = lap2d_5pt(8, 8);
  Vector b(10, 1.0), x(A.nrows, 0.0);
  EXPECT_THROW(pcg(A, b, x), std::invalid_argument);
  EXPECT_THROW(fgmres(A, b, x), std::invalid_argument);
}

TEST(KrylovExtra, MaxIterationsRespected) {
  CSRMatrix A = lap2d_5pt(40, 40);
  Vector b(A.nrows, 1.0), x(A.nrows, 0.0);
  KrylovOptions o;
  o.rtol = 1e-14;  // unreachable in 3 iterations
  o.max_iterations = 3;
  KrylovResult r = pcg(A, b, x, o);
  EXPECT_FALSE(r.converged);
  EXPECT_LE(r.iterations, 3);
}

TEST(KrylovExtra, FgmresToleratesVaryingPreconditioner) {
  // Flexible GMRES's reason to exist: a preconditioner that changes per
  // apply (alternating smoothers) must still converge; plain right-P GMRES
  // has no such guarantee.
  CSRMatrix A = lap2d_5pt(25, 25);
  AMGOptions o1, o2;
  o2.smoother = SmootherKind::kJacobi;
  AMGSolver amg1(A, o1), amg2(A, o2);
  int calls = 0;
  auto pre = [&](const Vector& r, Vector& z) {
    (++calls % 2 ? amg1 : amg2).precondition(r, z);
  };
  Vector b(A.nrows, 1.0), x(A.nrows, 0.0);
  KrylovOptions o;
  o.rtol = 1e-9;
  KrylovResult r = fgmres(A, b, x, o, pre);
  EXPECT_TRUE(r.converged);
  EXPECT_LT(test::relative_residual(A, x, b), 1e-8);
}

TEST(KrylovExtra, FgmresRecoversFromOneNonFinitePreconditionerApply) {
  // One poisoned V-cycle output poisons the in-flight Arnoldi step; the
  // solve discards that basis, restarts from the last restart iterate and
  // still converges.
  CSRMatrix A = lap2d_5pt(30, 30);
  AMGSolver amg(A, {});
  int calls = 0;
  auto pre = [&](const Vector& r, Vector& z) {
    amg.precondition(r, z);
    if (++calls == 3) z[7] = std::numeric_limits<double>::quiet_NaN();
  };
  Vector b(A.nrows, 1.0), x(A.nrows, 0.0);
  KrylovOptions o;
  o.rtol = 1e-8;
  KrylovResult r = fgmres(A, b, x, o, pre);
  EXPECT_EQ(r.status, Status::kRecovered) << status_name(r.status);
  EXPECT_TRUE(r.converged);
  EXPECT_EQ(r.recoveries, 1);
  EXPECT_EQ(r.nonfinite_iteration, 3);
  ASSERT_EQ(r.events.size(), 1u);
  EXPECT_LT(test::relative_residual(A, x, b), o.rtol);
}

/// The local FGMRES backend, spelled out so the test holds the basis.
class CsrBackend final : public FgmresBackend {
 public:
  CsrBackend(const CSRMatrix& A, AMGSolver& amg) : A_(A), amg_(amg) {}
  void apply(const Vector& z, Vector& w) override { spmv(A_, z, w); }
  void precondition(const Vector& v, Vector& z) override {
    amg_.precondition(v, z);
  }
  double dot(const Vector& a, const Vector& b) override {
    return hpamg::dot(a, b);
  }
  double norm(const Vector& a) override { return norm2(a); }
  void residual(const Vector& x, const Vector& b, Vector& r) override {
    spmv(A_, x, r);
    for (std::size_t i = 0; i < r.size(); ++i) r[i] = b[i] - r[i];
  }

 private:
  const CSRMatrix& A_;
  AMGSolver& amg_;
};

TEST(KrylovExtra, FgmresBasisGrowsWithTheIterations) {
  CSRMatrix A = lap2d_5pt(40, 40);
  AMGSolver amg(A, {});
  CsrBackend be(A, amg);
  Vector b(A.nrows, 1.0), x(A.nrows, 0.0);
  KrylovOptions o;
  o.rtol = 1e-8;
  o.restart = 200;
  FgmresBasis basis;
  KrylovResult r = fgmres_solve(be, b, x, o, basis);
  ASSERT_TRUE(r.converged);
  const std::size_t k = std::size_t(r.iterations);
  ASSERT_LT(k, 20u);  // k << restart
  EXPECT_LE(basis.V.size(), k + 1);
  EXPECT_LE(basis.Z.size(), k);
  for (const Vector& v : basis.V) EXPECT_EQ(v.size(), x.size());

  // Restarted: the basis is reused, never longer than one cycle needs.
  o.restart = 3;
  o.rtol = 1e-10;
  FgmresBasis short_basis;
  std::fill(x.begin(), x.end(), 0.0);
  r = fgmres_solve(be, b, x, o, short_basis);
  ASSERT_TRUE(r.converged);
  EXPECT_GT(r.iterations, 3);
  EXPECT_LE(short_basis.V.size(), 4u);
  EXPECT_LE(short_basis.Z.size(), 3u);
}

TEST(KrylovExtra, LocalAndSimmpiFgmresAgreeOnOneRank) {
  // The same core over two backends: on one rank the distributed SpMV,
  // inner products and V-cycle reduce to the local ones, so the iterations
  // and residual histories match.
  CSRMatrix A = lap2d_5pt(24, 24);
  simmpi::run(1, [&](simmpi::Comm& c) {
    DistMatrix dA = distribute_csr(c, A);
    DistHierarchy h = dist_amg_setup(c, dA, DistAMGOptions{});
    Vector b(A.nrows);
    for (Int i = 0; i < A.nrows; ++i) b[i] = 1.0 + std::sin(0.05 * i);
    Vector xd(A.nrows, 0.0), xl(A.nrows, 0.0);
    DistSolveResult d = dist_fgmres(c, dA, h, b, xd, 1e-9, 100);
    KrylovOptions o;
    o.rtol = 1e-9;
    o.max_iterations = 100;
    KrylovResult l = fgmres(A, b, xl, o, [&](const Vector& r, Vector& z) {
      std::fill(z.begin(), z.end(), 0.0);
      dist_vcycle(c, h, r, z);
    });
    ASSERT_TRUE(d.converged);
    ASSERT_TRUE(l.converged);
    EXPECT_EQ(d.iterations, l.iterations);
    ASSERT_EQ(d.history.size(), l.history.size());
    for (std::size_t k = 0; k < d.history.size(); ++k)
      EXPECT_NEAR(d.history[k], l.history[k], 1e-12) << k;
  });
}

TEST(KrylovExtra, PcgMatchesLuSolution) {
  CSRMatrix A = test::random_spd(60, 4, 13);
  LUSolver lu(A);
  Vector b(60);
  for (Int i = 0; i < 60; ++i) b[i] = std::sin(0.3 * i);
  Vector x_lu(60), x_cg(60, 0.0);
  lu.solve(b.data(), x_lu.data());
  KrylovOptions o;
  o.rtol = 1e-12;
  o.max_iterations = 500;
  KrylovResult r = pcg(A, b, x_cg, o);
  ASSERT_TRUE(r.converged);
  for (Int i = 0; i < 60; ++i) ASSERT_NEAR(x_cg[i], x_lu[i], 1e-7);
}

}  // namespace
}  // namespace hpamg
