// simmpi_fgmres: the Table-4 ei(4) FGMRES+AMG solver over simmpi, 4 ranks,
// on the Fig-6a 27-point weak-scaling operator (an n^3 block per rank,
// stacked along z). Each round distributes the operator, runs one
// distributed set-up and several seeded solves.
#include <algorithm>
#include <mutex>

#include "bench.hpp"
#include "dist/dist_krylov.hpp"
#include "gen/stencil.hpp"
#include "replay.hpp"

namespace perfbench {

using namespace hpamg;

namespace {

constexpr int kRanks = 4;
constexpr int kSolvesPerRound = 8;

DistAMGOptions table4_ei_options() {
  DistAMGOptions o;
  o.variant = Variant::kOptimized;
  o.max_levels = 16;
  o.strength.threshold = 0.25;
  o.strength.max_row_sum = 0.8;
  o.truncation.trunc_fact = 0.1;
  o.truncation.max_elmts = 4;
  o.interp = InterpKind::kExtPI;
  return o;
}

/// Seconds between two barriers, timed on rank 0.
template <typename F>
double barrier_timed(simmpi::Comm& c, F&& f) {
  c.barrier();
  const double t0 = now_s();
  f();
  c.barrier();
  return now_s() - t0;
}

struct SolveLog {
  double seconds = 0.0;
  Int iterations = 0;
  std::uint64_t messages = 0, bytes = 0;  ///< summed over ranks
  bool ok = false;
  double relres = 0.0;
};

}  // namespace

Result run_simmpi_fgmres(const Config& cfg) {
  Result res;
  const Int n = cfg.small ? 6 : 32;
  const CSRMatrix A = lap3d_27pt(n, n, n * kRanks);
  const DistAMGOptions opts = table4_ei_options();
  res.shape = std::to_string(kRanks) + " ranks x " + std::to_string(n) +
              "^3 rows: " + std::to_string(A.nrows) + " rows, " +
              std::to_string(A.nnz()) + " nnz";

  std::mutex mu;  // guards the logs below across rank threads
  std::vector<double> setups;
  std::vector<SolveLog> solves;
  double shape_bytes = 0.0, levels = 0.0, opcx = 0.0, gridcx = 0.0;
  std::uint64_t halo_sent = 0, ghost_cols = 0;

  // One round on the ranks. `cold` adds the output checks of the built
  // hierarchy; `traced` adds the kernel replays.
  auto round = [&](long r, bool cold, bool traced) {
    double work = 0.0;
    simmpi::run(kRanks, [&](simmpi::Comm& c) {
      const int rank = c.rank();
      DistMatrix dA;
      {
        Span s("dist.distribute", rank);
        dA = distribute_csr(c, A);
      }
      DistHierarchy h;
      const double setup_sec = barrier_timed(c, [&] {
        Span s("dist.setup", rank);
        h = dist_amg_setup(c, dA, opts);
      });
      if (rank == 0) {
        std::lock_guard<std::mutex> lk(mu);
        setups.push_back(setup_sec);
        if (!cold) work += setup_sec;
      }
      const Int lo = Int(dA.first_row()), nloc = dA.local_rows();
      for (int s = 0; s < kSolvesPerRound; ++s) {
        const Vector bg = random_vector(
            A.nrows, cfg.seed, std::uint64_t(r + 1) * kSolvesPerRound + std::uint64_t(s));
        const Vector b(bg.begin() + lo, bg.begin() + lo + nloc);
        Vector x(std::size_t(nloc), 0.0);
        const simmpi::CommStats before = c.stats();
        DistSolveResult sr;
        const double sec = barrier_timed(c, [&] {
          Span sp("dist.fgmres", rank);
          sr = dist_fgmres(c, dA, h, b, x, kRtol, 200);
          sp.set_count(double(sr.iterations));
        });
        const simmpi::CommStats d = c.stats().delta_since(before);
        const Vector xg = gather_vector(c, x, dA.row_starts);
        if (rank == 0) {
          SolveLog log;
          log.seconds = sec;
          log.iterations = sr.iterations;
          log.ok = status_ok(sr.status);
          log.relres = true_relres(A, bg, xg);
          std::lock_guard<std::mutex> lk(mu);
          solves.push_back(log);
          if (!cold) work += sec;
        }
        // Every rank adds its traffic to the entry rank 0 just pushed.
        c.barrier();
        {
          std::lock_guard<std::mutex> lk(mu);
          solves.back().messages += d.messages_sent;
          solves.back().bytes += d.bytes_sent;
        }
        c.barrier();
      }
      if (cold) {
        // Halo volume of one level-0 SpMV against the ghost columns.
        DistLevel& L0 = h.levels[0];
        Vector xx(std::size_t(nloc), 1.0), x_ext, y;
        const std::uint64_t before = c.stats().bytes_sent;
        dist_spmv(c, L0.A, *L0.halo_A, xx, x_ext, y);
        const std::uint64_t sent = c.stats().bytes_sent - before;
        // Galerkin identity per level on the gathered operators, one level
        // at a time; level 0 is the input operator itself.
        CSRMatrix Af;
        for (std::size_t l = 0; l + 1 < h.levels.size(); ++l) {
          const CSRMatrix P = gather_csr(c, h.levels[l].P);
          CSRMatrix Ac = gather_csr(c, h.levels[l + 1].A);
          if (rank == 0)
            res.checks.galerkin(l == 0 ? A : Af, P, Ac, cfg.seed + l,
                                "dist level " + std::to_string(l));
          Af = std::move(Ac);
        }
        std::lock_guard<std::mutex> lk(mu);
        halo_sent += sent;
        ghost_cols += L0.A.colmap.size();
        for (const DistLevel& L : h.levels)
          shape_bytes += double(L.A.footprint_bytes() + L.P.footprint_bytes() +
                                L.R.footprint_bytes());
        if (rank == 0) {
          levels = double(h.levels.size());
          opcx = h.operator_complexity();
          gridcx = h.grid_complexity();
        }
      }
      if (traced) {
        DistLevel& L0 = h.levels[0];
        Vector xx(std::size_t(nloc), 1.0), x_ext, y, xv(std::size_t(nloc), 0.0);
        for (int k = 0; k < 5; ++k) {
          Span s("dist.spmv", rank);
          dist_spmv(c, L0.A, *L0.halo_A, xx, x_ext, y);
        }
        for (int k = 0; k < 5; ++k) {
          Span s("dist.dot", rank);
          (void)dist_dot(c, xx, y);
        }
        for (int k = 0; k < 3; ++k) {
          Span s("dist.vcycle", rank);
          dist_vcycle(c, h, xx, xv);
        }
      }
    });
    return work;
  };

  round(-1, true, false);
  const double setup_cold = setups.front();
  res.checks.expect(halo_sent == 8 * ghost_cols,
                    "dist_spmv sent " + std::to_string(halo_sent) +
                        " bytes for " + std::to_string(ghost_cols) +
                        " ghost columns");
  const std::size_t cold_solves = solves.size();
  const Rounds rounds = run_rounds(cfg, [&](long r, bool traced) {
    return round(r, false, traced);
  });

  std::vector<double> solve_s, iters, msgs, bytes;
  double work = 0.0;
  for (std::size_t i = 0; i < solves.size(); ++i) {
    const SolveLog& s = solves[i];
    ++res.attempted;
    if (!s.ok) {
      ++res.failed;
      continue;
    }
    res.checks.relres(s.relres, kRtol, "gathered simmpi solution");
    if (i < cold_solves) continue;
    solve_s.push_back(s.seconds);
    iters.push_back(double(s.iterations));
    msgs.push_back(double(s.messages) / std::max<Int>(s.iterations, 1));
    bytes.push_back(double(s.bytes) / std::max<Int>(s.iterations, 1));
  }
  for (double s : rounds.plain) work += s;
  for (double s : rounds.traced) work += s;
  if (!cfg.trace) {
    res.metrics = {{"setup_s", setup_cold},
                   {"solve_s", median(solve_s)},
                   {"rhs_per_s", work > 0 ? double(solve_s.size()) / work : 0.0}};
    return res;
  }

  const std::vector<SpanRecord> sp = recorded_spans();
  auto max_over_ranks = [&](const char* name) {
    double mx = 0.0;
    for (const auto& [rank, v] : key_medians(sp, name)) mx = std::max(mx, v);
    return mx;
  };
  std::vector<Metric>& m = res.metrics;
  m.push_back({"amg.levels", levels});
  m.push_back({"amg.operator_complexity", opcx});
  m.push_back({"amg.grid_complexity", gridcx});
  m.push_back({"amg.hier_bytes", shape_bytes});
  m.push_back({"dist.distribute_s", max_over_ranks("dist.distribute")});
  m.push_back({"dist.spmv_s", max_over_ranks("dist.spmv")});
  m.push_back({"dist.dot_s", max_over_ranks("dist.dot")});
  m.push_back({"dist.vcycle_s", max_over_ranks("dist.vcycle")});
  double lo = 0.0, hi = 0.0;
  for (const auto& [rank, v] : key_medians(sp, "dist.vcycle")) {
    lo = lo == 0.0 ? v : std::min(lo, v);
    hi = std::max(hi, v);
  }
  m.push_back({"dist.vcycle_imbalance", lo > 0 ? hi / lo : 0.0});
  m.push_back({"dist.iterations", median(iters)});
  m.push_back({"dist.msgs_per_iter", median(msgs)});
  m.push_back({"dist.bytes_per_iter", median(bytes)});
  m.push_back({"dist.halo_bytes", double(halo_sent)});
  m.push_back({"trace.overhead_s", rounds.overhead()});
  return res;
}

}  // namespace perfbench
