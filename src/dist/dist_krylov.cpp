#include "dist/dist_krylov.hpp"

#include <cmath>
#include <string>

#include "amg/telemetry.hpp"
#include "krylov/fgmres_core.hpp"
#include "matrix/vector_ops.hpp"
#include "support/check.hpp"
#include "support/fault.hpp"
#include "support/live.hpp"
#include "support/log.hpp"
#include "support/metrics.hpp"
#include "support/trace.hpp"

namespace hpamg {

namespace {

/// Detaches the telemetry hook on every exit path (the hook lives on the
/// solve's stack frame; the hierarchy outlives it).
struct TelemetryLoan {
  DistHierarchy& h;
  TelemetryLoan(DistHierarchy& hier, CycleTelemetryHook* hook) : h(hier) {
    h.telemetry = hook;
  }
  ~TelemetryLoan() { h.telemetry = nullptr; }
  TelemetryLoan(const TelemetryLoan&) = delete;
  TelemetryLoan& operator=(const TelemetryLoan&) = delete;
};

/// FGMRES backend over one rank's slice: halo-exchanged SpMV, allreduced
/// inner products, one AMG V-cycle as the preconditioner. Owns what only
/// the distributed solve has: phase timing, per-iteration telemetry, the
/// `dist.solve.poison` fault site and the rank-0 log.
class DistBackend final : public FgmresBackend {
 public:
  DistBackend(simmpi::Comm& comm, const DistMatrix& A, DistHierarchy& h,
              PhaseTimes& pt)
      : comm_(comm),
        A_(A),
        h_(h),
        pt_(pt),
        halo_(comm, A.colmap, A.row_starts, true),
        telemetry_on_(metrics::enabled()),
        loan_(h, telemetry_on_ ? &tel_ : nullptr) {}

  void apply(const Vector& z, Vector& w) override {
    spmv(z, w);
    charge("SpMV");
    if (fault::enabled())
      fault::maybe_poison("dist.solve.poison", w.data(), w.size());
  }
  void precondition(const Vector& v, Vector& z) override {
    charge("BLAS1");
    if (telemetry_on_) {
      tel_.begin_cycle(h_.levels.size());
      t_iter_.reset();
    }
    std::fill(z.begin(), z.end(), 0.0);
    dist_vcycle(comm_, h_, v, z, &pt_);  // charges its own phases
    clock_.reset();
  }
  double dot(const Vector& a, const Vector& b) override {
    return dist_dot(comm_, a, b);
  }
  double norm(const Vector& a) override { return dist_norm2(comm_, a); }
  void residual(const Vector& x, const Vector& b, Vector& r) override {
    spmv(x, r);
    for (std::size_t i = 0; i < r.size(); ++i) r[i] = b[i] - r[i];
    charge("SpMV");
  }
  void iteration_done(Int it, double relres, double prev_relres) override {
    charge("BLAS1");
    // normb only scales the smoother-effectiveness fields, which the dist
    // cycle does not measure (extra collectives would perturb the
    // comm-stat baselines).
    if (telemetry_on_)
      telemetry.push_back(make_iteration_entry(
          it, relres, prev_relres, t_iter_.seconds(), 0.0, &tel_));
    if (comm_.rank() == 0)
      HPAMG_LOG_DEBUG("fgmres it %d relres %.3e", int(it), relres);
    clock_.reset();
  }
  void recovered(const std::string& event) override {
    if (comm_.rank() == 0) HPAMG_LOG_WARN("fgmres %s", event.c_str());
  }

  /// Charges the CPU time since the last charge to `phase`. The time the
  /// core spends between backend calls is its own vector work: BLAS1.
  void charge(const char* phase) {
    pt_.add(phase, clock_.seconds());
    clock_.reset();
  }

  std::vector<IterationReportEntry> telemetry;  ///< metrics-on only

 private:
  void spmv(const Vector& x, Vector& y) {
    charge("BLAS1");
    dist_spmv(comm_, A_, halo_, x, x_ext_, y);
  }

  simmpi::Comm& comm_;
  const DistMatrix& A_;
  DistHierarchy& h_;
  PhaseTimes& pt_;
  HaloExchange halo_;
  Vector x_ext_;
  const bool telemetry_on_;
  CycleTelemetryHook tel_;
  TelemetryLoan loan_;
  CpuTimer t_iter_;
  CpuTimer clock_;  ///< last declared: starts once the halo is built
};

}  // namespace

DistSolveResult dist_fgmres(simmpi::Comm& comm, const DistMatrix& A,
                            DistHierarchy& h, const Vector& b, Vector& x,
                            double rtol, Int max_iterations, Int restart) {
  // Solver-entry invariants: ownership partition and vector shapes.
  HPAMG_CHECK_INVARIANT(check::Depth::kCheap,
                        A.check_partition(comm.size()));
  HPAMG_CHECK_INVARIANT(
      check::Depth::kCheap,
      check::vectors_match(std::size_t(A.local_rows()), b.size(), x.size(),
                           "dist_fgmres"));
  DistSolveResult res;
  DistBackend backend(comm, A, h, res.solve_times);
  KrylovOptions opt;
  opt.rtol = rtol;
  opt.max_iterations = max_iterations;
  opt.restart = restart;
  // opt.deadline never expires: a rank-local clock check would split the
  // ranks' branches.
  FgmresBasis basis;
  static_cast<KrylovResult&>(res) = fgmres_solve(backend, b, x, opt, basis);
  backend.charge("BLAS1");
  res.telemetry = std::move(backend.telemetry);
  return res;
}

DistSolveResult dist_amg_solve(simmpi::Comm& comm, const DistMatrix& A,
                               DistHierarchy& h, const Vector& b, Vector& x,
                               double rtol, Int max_iterations) {
  TRACE_SPAN("krylov.amg_richardson", "phase");
  DistSolveResult res;
  HPAMG_CHECK_INVARIANT(check::Depth::kCheap,
                        A.check_partition(comm.size()));
  HPAMG_CHECK_INVARIANT(
      check::Depth::kCheap,
      check::vectors_match(std::size_t(A.local_rows()), b.size(), x.size(),
                           "dist_amg_solve"));
  PhaseTimes& pt = res.solve_times;
  HaloExchange halo(comm, A.colmap, A.row_starts, true);
  Vector x_ext, r(A.local_rows());

  double normb = dist_norm2(comm, b);
  if (normb == 0.0) normb = 1.0;
  double relres = 0.0;
  // Scrub-and-restart recovery, mirroring AMGSolver::solve: the monitor
  // classifies the globally reduced residual (identical on every rank), a
  // non-finite/diverging iteration restores the last improving snapshot.
  ConvergenceMonitor monitor;
  Vector x_best(x);
  double x_best_relres = -1.0;
  Int x_best_iteration = 0;
  const bool telemetry_on = metrics::enabled();
  CycleTelemetryHook tel;
  TelemetryLoan loan(h, telemetry_on ? &tel : nullptr);
  double prev_relres = -1.0;
  CpuTimer t_iter;
  for (Int it = 1; it <= max_iterations; ++it) {
    if (fault::enabled())
      fault::maybe_poison("dist.solve.poison", x.data(), x.size());
    if (telemetry_on) {
      tel.begin_cycle(h.levels.size());
      t_iter.reset();
    }
    dist_vcycle(comm, h, b, x, &pt);
    CpuTimer t;
    dist_spmv(comm, A, halo, x, x_ext, r);
    for (std::size_t i = 0; i < r.size(); ++i) r[i] = b[i] - r[i];
    pt.add("SpMV", t.seconds());
    CpuTimer t2;
    relres = dist_norm2(comm, r) / normb;
    pt.add("BLAS1", t2.seconds());
    res.iterations = it;
    res.history.push_back(relres);
    live::beat_iteration(it, relres);
    if (telemetry_on) {
      res.telemetry.push_back(make_iteration_entry(it, relres, prev_relres,
                                                   t_iter.seconds(), normb,
                                                   &tel));
    }
    prev_relres = relres;
    if (comm.rank() == 0)
      HPAMG_LOG_DEBUG("amg it %d relres %.3e", int(it), relres);
    if (relres < rtol) {
      res.converged = true;
      res.status = res.recoveries > 0 ? Status::kRecovered : Status::kOk;
      break;
    }
    const Status verdict = monitor.observe(it, relres);
    if (verdict == Status::kOk) {
      if (x_best_relres < 0.0 || relres < x_best_relres) {
        copy(x, x_best);
        x_best_relres = relres;
        x_best_iteration = it;
      }
      continue;
    }
    if (verdict == Status::kNonFinite && res.nonfinite_iteration < 0)
      res.nonfinite_iteration = it;
    if (res.recoveries < kDistMaxRecoveries) {
      ++res.recoveries;
      copy(x_best, x);
      monitor.note_recovery();
      std::string ev = "recovered at iteration " + std::to_string(it) + " (" +
                       status_name(verdict) + "): restored iterate from " +
                       "iteration " + std::to_string(x_best_iteration);
      if (comm.rank() == 0) HPAMG_LOG_WARN("amg %s", ev.c_str());
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
  return res;
}

}  // namespace hpamg
