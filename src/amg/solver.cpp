#include "amg/solver.hpp"

#include <cmath>

#include <string>

#include "amg/spmv.hpp"
#include "amg/telemetry.hpp"
#include "matrix/transpose.hpp"
#include "perfmodel/attrib.hpp"
#include "spgemm/rap.hpp"
#include "support/check.hpp"
#include "support/fault.hpp"
#include "support/live.hpp"
#include "support/log.hpp"
#include "support/metrics.hpp"
#include "support/parallel.hpp"
#include "support/trace.hpp"

namespace hpamg {

namespace {

/// Validation happens here (not in the member-init list) so the ctor
/// rejects bad input before any setup work runs.
const CSRMatrix& validated(const CSRMatrix& A) {
  A.validate_system_matrix("AMGSolver");
  return A;
}

/// Detaches the telemetry hook from the hierarchy on every exit path (the
/// hook lives on the solve's stack frame).
struct TelemetryLoan {
  Hierarchy& h;
  explicit TelemetryLoan(Hierarchy& hier, CycleTelemetryHook* hook)
      : h(hier) {
    h.telemetry = hook;
  }
  ~TelemetryLoan() { h.telemetry = nullptr; }
  TelemetryLoan(const TelemetryLoan&) = delete;
  TelemetryLoan& operator=(const TelemetryLoan&) = delete;
};

}  // namespace

AMGSolver::AMGSolver(const CSRMatrix& A, const AMGOptions& opts)
    : h_(build_hierarchy(validated(A), opts)) {}

SolveResult AMGSolver::solve(const Vector& b, Vector& x, double rtol,
                             Int max_iterations, const Deadline& deadline) {
  TRACE_SPAN("amg.solve", "phase");
  live::ActivityScope live_scope;
  SolveResult res;
  Level& L0 = h_.levels[0];
  require(Int(b.size()) == L0.n && Int(x.size()) == L0.n,
          "AMGSolver::solve: vector size mismatch");
  // Solver-entry invariants: the hierarchy may have been mutated since
  // setup (refresh_values, external tampering in tests); a check build
  // re-audits it before trusting the level operators.
  HPAMG_CHECK_INVARIANT(check::Depth::kCheap,
                        check::csr_well_formed(L0.A, "AMGSolver::solve A0"));
  HPAMG_CHECK_INVARIANT(check::Depth::kFull, check_hierarchy(h_));
  const bool optimized = h_.opts.variant == Variant::kOptimized;
  const bool permuted = optimized && !L0.perm.perm.empty();
  PhaseTimes& pt = res.solve_times;
  WorkCounters* wc = &res.solve_work;

  // Keep working vectors permuted across the whole solve; gather once.
  Vector bw(L0.n), xw(L0.n), r(L0.n);
  {
    Timer t;
    if (permuted) {
      const std::vector<Int>& perm = L0.perm.perm;
      parallel_for(0, L0.n, [&](Int i) {
        bw[i] = b[perm[i]];
        xw[i] = x[perm[i]];
      });
    } else {
      copy(b, bw);
      copy(x, xw);
    }
    pt.add("Solve_etc", t.seconds());
  }

  Timer t_blas;
  double normb = norm2(bw, wc);
  pt.add("BLAS1", t_blas.seconds());
  if (normb == 0.0) normb = 1.0;

  double relres = 0.0;
  {
    // Initial residual (x may be a nonzero initial guess).
    Timer t;
    if (optimized) {
      relres = std::sqrt(spmv_residual_norm2sq_fused(L0.A, xw, bw, r, wc)) /
               normb;
      pt.add("SpMV", t.seconds());
    } else {
      spmv_residual(L0.A, xw, bw, r, wc);
      pt.add("SpMV", t.seconds());
      Timer t2;
      relres = norm2(r, wc) / normb;
      pt.add("BLAS1", t2.seconds());
    }
  }
  if (relres < rtol) {
    res.converged = true;
    res.status = Status::kOk;
    res.final_relres = relres;
    return res;
  }

  // Last good iterate for scrub-and-restart recovery: refreshed on every
  // improving iteration (a plain copy — cheap next to a V-cycle and not
  // counted as solve work). `x_best_relres` mirrors the snapshot.
  ConvergenceMonitor monitor;
  Vector x_best(xw);
  double x_best_relres = relres;
  Int x_best_iteration = 0;

  // Per-iteration telemetry rides along only when the metrics registry is
  // on (--json bench runs); the hook is loaned to the hierarchy so the
  // cycle can deposit per-level times without a signature change.
  const bool telemetry_on = metrics::enabled();
  CycleTelemetryHook tel;
  tel.measure_smoother = telemetry_on;
  TelemetryLoan loan(h_, telemetry_on ? &tel : nullptr);
  double prev_relres = relres;
  Timer t_iter;

  for (Int it = 1; it <= max_iterations; ++it) {
    // Deadline check once per V-cycle, at the same cadence as the
    // heartbeat beat site below: an expired budget unwinds cleanly with
    // the partial history/iterate instead of running to max_iterations.
    if (deadline.expired()) {
      res.status = Status::kDeadlineExceeded;
      res.events.push_back(
          "deadline expired before iteration " + std::to_string(it) +
          " (partial result: relres " + std::to_string(relres) + " after " +
          std::to_string(res.iterations) + " iterations)");
      break;
    }
    if (fault::enabled())
      fault::maybe_poison("amg.solve.poison", xw.data(), xw.size());
    if (telemetry_on) {
      tel.begin_cycle(h_.levels.size());
      t_iter.reset();
    }
    vcycle_workspace(h_, bw, xw, &pt, wc);
    Timer t;
    if (optimized) {
      // Fused residual + norm (§3.3): one pass instead of SpMV then dot.
      relres = std::sqrt(spmv_residual_norm2sq_fused(L0.A, xw, bw, r, wc)) /
               normb;
      pt.add("SpMV", t.seconds());
    } else {
      spmv_residual(L0.A, xw, bw, r, wc);
      pt.add("SpMV", t.seconds());
      Timer t2;
      relres = norm2(r, wc) / normb;
      pt.add("BLAS1", t2.seconds());
    }
    res.history.push_back(relres);
    res.iterations = it;
    live::beat_iteration(it, relres);
    if (telemetry_on) {
      res.telemetry.push_back(make_iteration_entry(
          it, relres, prev_relres, t_iter.seconds(), normb, &tel));
    }
    prev_relres = relres;
    HPAMG_LOG_DEBUG("amg it %d relres %.3e", int(it), relres);
    if (relres < rtol) {
      res.converged = true;
      res.status = res.recoveries > 0 ? Status::kRecovered : Status::kOk;
      break;
    }
    const Status verdict = monitor.observe(it, relres);
    if (verdict == Status::kOk) {
      if (relres < x_best_relres) {
        copy(xw, x_best);
        x_best_relres = relres;
        x_best_iteration = it;
      }
      continue;
    }
    // Non-finite or diverging residual: scrub the iterate (restore the
    // last good snapshot) and resume, up to the recovery budget. Transient
    // corruption is absorbed; a persistent failure exhausts the budget and
    // surfaces as the terminal status.
    if (verdict == Status::kNonFinite && res.nonfinite_iteration < 0)
      res.nonfinite_iteration = it;
    if (res.recoveries < kMaxRecoveries) {
      ++res.recoveries;
      copy(x_best, xw);
      relres = x_best_relres;
      monitor.note_recovery();
      std::string ev = "recovered at iteration " + std::to_string(it) + " (" +
                       status_name(verdict) + "): restored iterate from " +
                       "iteration " + std::to_string(x_best_iteration);
      HPAMG_LOG_WARN("amg %s", ev.c_str());
      trace::instant("amg.recovery", "fault");
      res.events.push_back(std::move(ev));
      continue;
    }
    res.status = verdict;
    res.events.push_back(std::string("recovery budget exhausted; stopped (") +
                         status_name(verdict) + ") at iteration " +
                         std::to_string(it));
    break;
  }
  if (!res.converged && res.status == Status::kMaxIterations &&
      monitor.stagnated())
    res.status = Status::kStagnated;
  res.final_relres = relres;

  Timer t;
  if (permuted) {
    const std::vector<Int>& perm = L0.perm.perm;
    parallel_for(0, L0.n, [&](Int i) { x[perm[i]] = xw[i]; });
  } else {
    copy(xw, x);
  }
  pt.add("Solve_etc", t.seconds());
  return res;
}

MultiSolveResult AMGSolver::solve_multi(const MultiVector& B, MultiVector& X,
                                        double rtol, Int max_iterations,
                                        const Deadline& deadline) {
  TRACE_SPAN("amg.solve_multi", "phase");
  live::ActivityScope live_scope;
  MultiSolveResult res;
  Level& L0 = h_.levels[0];
  const Int m = B.m;
  require(B.n == L0.n && X.n == L0.n && X.m == m,
          "AMGSolver::solve_multi: shape mismatch");
  require(m > 0, "AMGSolver::solve_multi: no right-hand sides");
  HPAMG_CHECK_INVARIANT(
      check::Depth::kCheap,
      check::csr_well_formed(L0.A, "AMGSolver::solve_multi A0"));
  HPAMG_CHECK_INVARIANT(check::Depth::kFull, check_hierarchy(h_));
  const bool optimized = h_.opts.variant == Variant::kOptimized;
  const bool permuted = optimized && !L0.perm.perm.empty();
  PhaseTimes& pt = res.solve_times;
  WorkCounters* wc = &res.solve_work;
  ensure_multi_workspace(h_, m);

  // Keep working multivectors permuted across the whole solve, exactly as
  // the scalar solve does with its bw/xw pair.
  MultiVector BW(L0.n, m), XW(L0.n, m), R(L0.n, m);
  {
    Timer t;
    if (permuted) {
      const std::vector<Int>& perm = L0.perm.perm;
      parallel_for(0, L0.n, [&](Int i) {
        const std::size_t src = std::size_t(perm[i]) * m;
        const std::size_t dst = std::size_t(i) * m;
        for (Int j = 0; j < m; ++j) {
          BW.data[dst + j] = B.data[src + j];
          XW.data[dst + j] = X.data[src + j];
        }
      });
    } else {
      copy(B, BW);
      copy(X, XW);
    }
    pt.add("Solve_etc", t.seconds());
  }

  Timer t_blas;
  std::vector<double> normb = norm2sq_columns(BW, wc);
  pt.add("BLAS1", t_blas.seconds());
  for (double& nb : normb) nb = nb > 0.0 ? std::sqrt(nb) : 1.0;

  std::vector<double> norms2sq;
  std::vector<double> relres(std::size_t(m), 0.0);
  res.col_iterations.assign(std::size_t(m), -1);
  auto update_relres = [&](Int it) {
    bool all_done = true;
    bool finite = true;
    for (Int j = 0; j < m; ++j) {
      relres[std::size_t(j)] =
          std::sqrt(norms2sq[std::size_t(j)]) / normb[std::size_t(j)];
      if (!std::isfinite(relres[std::size_t(j)])) finite = false;
      if (relres[std::size_t(j)] < rtol) {
        if (res.col_iterations[std::size_t(j)] < 0)
          res.col_iterations[std::size_t(j)] = it;
      } else {
        all_done = false;
      }
    }
    if (!finite && res.nonfinite_iteration < 0) res.nonfinite_iteration = it;
    return finite ? (all_done ? Status::kOk : Status::kMaxIterations)
                  : Status::kNonFinite;
  };

  {
    Timer t;
    spmv_residual_norms2sq_fused_multi(L0.A, XW, BW, R, norms2sq, wc);
    pt.add("SpMV", t.seconds());
  }
  Status st = update_relres(0);
  if (st == Status::kOk) {
    res.converged = true;
    res.status = Status::kOk;
    res.final_relres = relres;
    return res;
  }

  for (Int it = 1; it <= max_iterations && st != Status::kNonFinite; ++it) {
    // Same per-V-cycle deadline contract as the scalar solve: stop with
    // whatever the columns have converged to so far.
    if (deadline.expired()) {
      res.status = Status::kDeadlineExceeded;
      res.events.push_back("deadline expired before iteration " +
                           std::to_string(it) + " (partial result after " +
                           std::to_string(res.iterations) + " iterations)");
      res.final_relres = relres;
      break;
    }
    vcycle_workspace_multi(h_, BW, XW, &pt, wc);
    Timer t;
    spmv_residual_norms2sq_fused_multi(L0.A, XW, BW, R, norms2sq, wc);
    pt.add("SpMV", t.seconds());
    res.iterations = it;
    st = update_relres(it);
    if (live::enabled()) {
      // Heartbeat carries the worst column's residual — the one that
      // decides when this multi-RHS solve finishes.
      double worst = 0.0;
      for (double rr : relres)
        if (rr > worst) worst = rr;
      live::beat_iteration(it, worst);
    }
    if (st == Status::kOk) {
      res.converged = true;
      res.status = Status::kOk;
      break;
    }
  }
  if (st == Status::kNonFinite) res.status = Status::kNonFinite;
  res.final_relres = relres;

  Timer t;
  if (permuted) {
    const std::vector<Int>& perm = L0.perm.perm;
    parallel_for(0, L0.n, [&](Int i) {
      const std::size_t src = std::size_t(i) * m;
      const std::size_t dst = std::size_t(perm[i]) * m;
      for (Int j = 0; j < m; ++j) X.data[dst + j] = XW.data[src + j];
    });
  } else {
    copy(XW, X);
  }
  pt.add("Solve_etc", t.seconds());
  return res;
}

SolveReport AMGSolver::report(const SolveResult* sr) const {
  SolveReport rep;
  rep.solver = "amg";
  rep.variant =
      h_.opts.variant == Variant::kOptimized ? "optimized" : "baseline";
  rep.num_levels = h_.num_levels();
  rep.operator_complexity = h_.operator_complexity();
  rep.grid_complexity = h_.grid_complexity();
  rep.levels.reserve(h_.stats.size());
  const std::vector<LevelMemory> mem = h_.memory_by_level();
  for (std::size_t l = 0; l < h_.stats.size(); ++l) {
    const LevelStats& s = h_.stats[l];
    LevelReportEntry e;
    e.level = Int(l);
    e.rows = Long(s.rows);
    e.nnz = s.nnz;
    e.nnz_per_row = s.rows > 0 ? double(s.nnz) / double(s.rows) : 0.0;
    e.coarse = Long(s.coarse);
    e.interp_nnz = s.interp_nnz;
    if (l < mem.size()) {
      e.operator_bytes = mem[l].operator_bytes;
      e.interp_bytes = mem[l].interp_bytes;
      e.smoother_bytes = mem[l].smoother_bytes;
      e.workspace_bytes = mem[l].workspace_bytes;
    }
    rep.levels.push_back(e);
  }
  rep.has_memory = true;
  for (const LevelMemory& m : mem) {
    rep.memory.setup_bytes +=
        m.operator_bytes + m.interp_bytes + m.smoother_bytes;
    rep.memory.solve_bytes += m.workspace_bytes;
  }
  rep.memory.solve_bytes += rep.memory.setup_bytes;
  rep.memory.peak_rss_bytes = metrics::peak_rss_bytes();
  rep.setup_phases = h_.setup_times;
  rep.setup_work = h_.setup_work;
  rep.setup_seconds = h_.setup_times.total();
  rep.status.events = h_.events;  // setup incidents first, then solve's
  // Roofline attribution accumulated by the cycle's attrib scopes; empty
  // (and omitted from the JSON) unless metrics were on during the solve.
  rep.roofline = attrib::snapshot();
  attrib::publish_metrics(rep.roofline);
  if (sr) {
    rep.iterations = sr->telemetry;
    rep.solve_phases = sr->solve_times;
    rep.solve_work = sr->solve_work;
    rep.solve_seconds = sr->solve_times.total();
    rep.convergence.iterations = sr->iterations;
    rep.convergence.converged = sr->converged;
    rep.convergence.final_relres = sr->final_relres;
    rep.convergence.convergence_factor = sr->convergence_factor();
    rep.convergence.residual_history = sr->history;
    rep.status.status = status_name(sr->status);
    rep.status.nonfinite_iteration = sr->nonfinite_iteration;
    rep.status.recoveries = sr->recoveries;
    rep.status.events.insert(rep.status.events.end(), sr->events.begin(),
                             sr->events.end());
  }
  return rep;
}

void AMGSolver::precondition(const Vector& b, Vector& x, PhaseTimes* pt,
                             WorkCounters* wc) {
  set_zero(x);
  vcycle(h_, b, x, pt, wc);
}

void AMGSolver::refresh_values(const CSRMatrix& A_new) {
  require(!h_.levels.empty(), "refresh_values: empty hierarchy");
  require(A_new.nrows == h_.levels[0].n && A_new.nrows == A_new.ncols,
          "refresh_values: size mismatch");
  const bool optimized = h_.opts.variant == Variant::kOptimized;
  ScopedPhase sp(h_.setup_times, "Setup_refresh");

  CSRMatrix A_work = A_new;
  if (!A_work.rows_sorted()) A_work.sort_rows();
  for (std::size_t l = 0; l + 1 < h_.levels.size(); ++l) {
    Level& L = h_.levels[l];
    CSRMatrix A_level;
    if (optimized && !L.perm.perm.empty()) {
      A_level = permute_symmetric(A_work, L.perm);
      A_level.sort_rows();
    } else {
      A_level = std::move(A_work);
    }
    if (l == 0) {
      require(A_level.rowptr == L.A.rowptr && A_level.colidx == L.A.colidx,
              "refresh_values: sparsity pattern differs from setup");
    }
    L.A = std::move(A_level);
    // Frozen transfers, fresh Galerkin product.
    CSRMatrix A_next =
        optimized ? rap_cf_block(L.A, L.Pf, L.PfT, L.nc)
                  : rap_fused_hypre(transpose_serial(L.P), L.A, L.P);
    A_next.sort_rows();
    // Smoother plans depend on the values (inverse diagonals).
    L.gs_base.reset();
    L.gs_opt.reset();
    L.lexgs.reset();
    L.mcgs.reset();
    switch (h_.opts.smoother) {
      case SmootherKind::kHybridGS:
        if (optimized)
          L.gs_opt =
              std::make_unique<HybridGSOptimized>(L.A, h_.opts.gs_partitions);
        else
          L.gs_base =
              std::make_unique<HybridGSBaseline>(L.A, h_.opts.gs_partitions);
        break;
      case SmootherKind::kLexGS:
        L.lexgs = std::make_unique<LexGS>(L.A);
        break;
      case SmootherKind::kMultiColorGS:
        L.mcgs = std::make_unique<MultiColorGS>(L.A);
        break;
      case SmootherKind::kJacobi:
        break;
    }
    A_work = std::move(A_next);
  }
  Level& C = h_.levels.back();
  C.A = std::move(A_work);
  if (h_.coarse_lu.size() == C.n && C.n > 0) {
    h_.coarse_lu = LUSolver(C.A);
  } else if (C.gs_opt || C.gs_base || C.lexgs || C.mcgs) {
    C.gs_opt.reset();
    C.gs_base.reset();
    C.lexgs.reset();
    C.mcgs.reset();
    if (h_.opts.smoother == SmootherKind::kHybridGS) {
      if (optimized)
        C.gs_opt =
            std::make_unique<HybridGSOptimized>(C.A, h_.opts.gs_partitions);
      else
        C.gs_base =
            std::make_unique<HybridGSBaseline>(C.A, h_.opts.gs_partitions);
    } else if (h_.opts.smoother == SmootherKind::kLexGS) {
      C.lexgs = std::make_unique<LexGS>(C.A);
    } else if (h_.opts.smoother == SmootherKind::kMultiColorGS) {
      C.mcgs = std::make_unique<MultiColorGS>(C.A);
    }
  }
}

}  // namespace hpamg
