// reservoir_resolve: one Fig-8 reservoir operator, set up once, then a
// seeded stream of right-hand sides through four paths per round:
// standalone AMG, PCG+AMG, FGMRES+AMG and one 8-column solve_multi batch.
// The solve-phase kernels do nearly all the work.
#include "bench.hpp"
#include "gen/reservoir.hpp"
#include "krylov/krylov.hpp"
#include "replay.hpp"

namespace perfbench {

using namespace hpamg;

namespace {

constexpr int kRhsPerRound = 3 + kMultiCols;

MultiVector random_block(Int n, Int m, std::uint64_t seed,
                         std::uint64_t stream) {
  MultiVector B(n, m);
  for (Int j = 0; j < m; ++j)
    scatter_column(random_vector(n, seed, stream + std::uint64_t(j)), j, B);
  return B;
}

}  // namespace

Result run_reservoir_resolve(const Config& cfg) {
  Result res;
  const Int side = cfg.small ? 16 : 64;
  const CSRMatrix A = reservoir_matrix(side, side, side);
  const Int n = A.nrows;
  res.shape = "reservoir " + std::to_string(side) + "^3: " +
              std::to_string(n) + " rows, " + std::to_string(A.nnz()) + " nnz";
  const AMGOptions opts = table3_options(0.25);

  Span setup_span("amg.setup");
  AMGSolver amg(A, opts);
  const double setup_s = setup_span.stop();
  res.checks.hierarchy(amg.hierarchy(), cfg.seed, "reservoir");
  const Preconditioner precond = [&](const Vector& r, Vector& z) {
    amg.precondition(r, z);
  };
  KrylovOptions ko;
  ko.rtol = kRtol;
  ko.max_iterations = 500;

  std::vector<double> amg_solve;
  long rhs = 0;
  double op_seconds = 0.0;
  bool replay_checked = false;

  auto finish = [&](bool ok, const Vector& b, const Vector& x,
                    const char* what) {
    ++res.attempted;
    if (!ok) {
      ++res.failed;
      return;
    }
    ++rhs;
    res.checks.residual(A, b, x, kRtol, what);
  };

  const Rounds rounds = run_rounds(cfg, [&](long r, bool traced) {
    const std::uint64_t stream = std::uint64_t(r) * kRhsPerRound;
    double sec = 0.0;
    {
      const Vector b = random_vector(n, cfg.seed, stream);
      Vector x(std::size_t(n), 0.0);
      Span s("amg.solve");
      const SolveResult sr = amg.solve(b, x, kRtol, 500);
      s.set_count(double(sr.iterations));
      const double t = s.stop();
      sec += t;
      if (status_ok(sr.status)) amg_solve.push_back(t);
      finish(status_ok(sr.status), b, x, "standalone AMG solve");
    }
    {
      const Vector b = random_vector(n, cfg.seed, stream + 1);
      Vector x(std::size_t(n), 0.0);
      Span s("krylov.pcg");
      const KrylovResult kr = pcg(A, b, x, ko, precond);
      s.set_count(double(kr.iterations));
      sec += s.stop();
      finish(status_ok(kr.status), b, x, "PCG+AMG solve");
    }
    {
      const Vector b = random_vector(n, cfg.seed, stream + 2);
      Vector x(std::size_t(n), 0.0);
      Span s("krylov.fgmres");
      const KrylovResult kr = fgmres(A, b, x, ko, precond);
      s.set_count(double(kr.iterations));
      sec += s.stop();
      finish(status_ok(kr.status), b, x, "FGMRES+AMG solve");
    }
    {
      const MultiVector B = random_block(n, kMultiCols, cfg.seed, stream + 3);
      MultiVector X(n, kMultiCols);
      Span s("multivector.solve_m8");
      const MultiSolveResult mr = amg.solve_multi(B, X, kRtol, 500);
      sec += s.stop();
      Vector b, x;
      for (Int j = 0; j < kMultiCols; ++j) {
        gather_column(B, j, b);
        gather_column(X, j, x);
        finish(status_ok(mr.status), b, x, "solve_multi column");
      }
    }
    op_seconds += sec;
    if (!traced) return sec;

    replay_setup(A, opts, 0, replay_checked ? nullptr : &amg.hierarchy(),
                 res.checks);
    replay_checked = true;
    measure_cycles(amg.hierarchy(), 3, cfg.seed + std::uint64_t(r), 0);
    measure_multi(amg, A, 3, cfg.seed + std::uint64_t(r), 0, res.checks);
    return sec;
  });

  if (!cfg.trace) {
    res.metrics = {{"setup_s", setup_s},
                   {"solve_s", median(amg_solve)},
                   {"rhs_per_s", op_seconds > 0 ? double(rhs) / op_seconds : 0.0}};
    return res;
  }

  const std::vector<SpanRecord> sp = recorded_spans();
  std::vector<Metric>& m = res.metrics;
  m.push_back({"amg.setup_s", setup_s});
  put_setup_metrics(sp, m);
  Shape shape;
  shape.add(amg.hierarchy());
  shape.put(m);
  m.push_back({"amg.iterations", median_of(sp, "amg.solve", true)});
  put_cycle_metrics(sp, m);
  put_multi_metrics(sp, m);
  m.push_back({"krylov.pcg_s", median_of(sp, "krylov.pcg")});
  m.push_back({"krylov.pcg_iterations", median_of(sp, "krylov.pcg", true)});
  m.push_back({"krylov.fgmres_s", median_of(sp, "krylov.fgmres")});
  m.push_back({"krylov.fgmres_iterations", median_of(sp, "krylov.fgmres", true)});
  m.push_back({"trace.overhead_s", rounds.overhead()});
  return res;
}

}  // namespace perfbench
