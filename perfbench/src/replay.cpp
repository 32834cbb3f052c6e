#include "replay.hpp"

#include <map>

#include "amg/cycle.hpp"
#include "amg/interp_extpi.hpp"
#include "amg/pmis.hpp"
#include "amg/strength.hpp"
#include "matrix/dense.hpp"
#include "matrix/permute.hpp"
#include "matrix/transpose.hpp"
#include "perfmodel/attrib.hpp"
#include "spgemm/rap.hpp"
#include "spgemm/spgemm.hpp"
#include "support/metrics.hpp"

namespace perfbench {

using namespace hpamg;

void replay_setup(const CSRMatrix& A_in, const AMGOptions& o, int key,
                  const Hierarchy* built, Checks& checks) {
  Span root("amg.setup_replay", key);
  CSRMatrix A_work = A_in;
  if (!A_work.rows_sorted()) A_work.sort_rows();
  Int l = 0;
  for (; l < o.max_levels - 1 && A_work.nrows > o.coarse_size; ++l) {
    const Int n = A_work.nrows;
    CSRMatrix S, ST;
    {
      Span s("amg.strength", key);
      S = strength_matrix(A_work, o.strength);
    }
    {
      Span s("matrix.transpose", key);
      ST = transpose_parallel(S);
    }
    CFMarker cf;
    {
      Span s("amg.pmis", key);
      PmisOptions po;
      po.seed = o.seed + std::uint64_t(l) * 0x1000193;
      po.rng = o.rng;
      cf = pmis_coarsen(S, ST, po);
    }
    const Int nc = count_coarse(cf);
    if (nc == 0 || nc == n) break;
    CSRMatrix Ap, Sp;
    {
      Span s("matrix.reorder", key);
      const CFPermutation perm = cf_permutation(cf);
      Ap = permute_symmetric(A_work, perm);
      Ap.sort_rows();
      Sp = permute_symmetric(S, perm);
      Sp.sort_rows();
    }
    CFMarker cf_perm(std::size_t(n), -1);
    for (Int i = 0; i < nc; ++i) cf_perm[std::size_t(i)] = 1;
    CSRMatrix P;
    {
      Span s("amg.interp", key);
      ExtPIOptions eo;
      eo.truncation = o.truncation;
      eo.fused_truncation = true;
      P = extpi_interp_partitioned(Ap, Sp, cf_perm, eo);
    }
    const CSRMatrix Pf = csr_block(P, nc, n, 0, nc);
    CSRMatrix PfT;
    {
      Span s("matrix.transpose", key);
      PfT = transpose_parallel(Pf);
    }
    CSRMatrix A_next;
    {
      Span s("spgemm.rap", key);
      WorkCounters wc;
      A_next = rap_cf_block(Ap, Pf, PfT, nc, {}, &wc);
      A_next.sort_rows();
      s.set_count(double(wc.flops));
    }
    {
      Span s("amg.smoother_plan", key);
      HybridGSOptimized plan(Ap, o.gs_partitions);
    }
    if (built) {
      const bool same = std::size_t(l) < built->levels.size() &&
                        built->levels[std::size_t(l)].A.nnz() == Ap.nnz() &&
                        built->levels[std::size_t(l)].nc == nc;
      checks.expect(same, "set-up replay diverged from the built hierarchy "
                          "at level " + std::to_string(l));
    }
    A_work = std::move(A_next);
  }
  if (A_work.nrows <= o.coarse_size * 4 && A_work.nrows <= 2048) {
    Span s("matrix.coarse_lu", key);
    LUSolver lu(A_work);
  }
  if (built)
    checks.expect(std::size_t(l) + 1 == built->levels.size() &&
                      built->levels.back().A.nnz() == A_work.nnz(),
                  "set-up replay ended with a different coarsest level");
}

void measure_cycles(Hierarchy& h, int cycles, std::uint64_t seed, int key) {
  const Int n = h.levels[0].n;
  const Vector b = random_vector(n, seed, 500 + std::uint64_t(key));
  Vector x(std::size_t(n), 0.0);
  // The attribution cells record only while the metrics registry is on.
  metrics::enable();
  for (int c = 0; c < cycles; ++c) {
    attrib::reset();
    PhaseTimes pt;
    WorkCounters wc;
    Span root("amg.vcycle", key);
    vcycle_workspace(h, b, x, &pt, &wc);
    root.stop();
    std::map<std::string, std::pair<double, double>> cell;  // seconds, bytes
    for (const RooflineEntry& e : attrib::snapshot()) {
      cell[e.kernel].first += e.seconds;
      cell[e.kernel].second += double(e.bytes);
    }
    const std::pair<const char*, const char*> split[] = {
        {"amg.gs_sweep", "smoother"},
        {"amg.residual_restrict", "residual_restrict"},
        {"amg.interp_apply", "prolong"}};
    for (const auto& [name, kernel] : split)
      record_child(name, key, root.id(), cell[kernel].first,
                   cell[kernel].second);
    record_child("amg.coarse_solve", key, root.id(), pt.get("Solve_etc"), 0.0);
  }
  metrics::disable();
  attrib::reset();
}

void measure_multi(AMGSolver& amg, const CSRMatrix& A, int reps,
                   std::uint64_t seed, int key, Checks& checks) {
  Hierarchy& h = amg.hierarchy();
  const Int n = A.nrows;
  MultiVector B1(n, 1), X1(n, 1), B8(n, kMultiCols), X8(n, kMultiCols);
  scatter_column(random_vector(n, seed, 3000 + std::uint64_t(key)), 0, B1);
  for (Int j = 0; j < kMultiCols; ++j)
    scatter_column(random_vector(n, seed, 3100 + std::uint64_t(key) * kMultiCols +
                                              std::uint64_t(j)),
                   j, B8);
  for (int c = 0; c < reps; ++c) {
    {
      Span s("multivector.vcycle_m1", key);
      vcycle_multi(h, B1, X1);
    }
    Span s("multivector.vcycle_m8", key);
    vcycle_multi(h, B8, X8);
  }
  X8.resize(n, kMultiCols);
  Span s("multivector.solve_m8", key);
  const MultiSolveResult mr = amg.solve_multi(B8, X8, kRtol, 500);
  s.stop();
  checks.expect(status_ok(mr.status), "traced solve_multi did not converge");
  Vector b, x;
  for (Int j = 0; j < kMultiCols; ++j) {
    gather_column(B8, j, b);
    gather_column(X8, j, x);
    checks.residual(A, b, x, kRtol, "traced solve_multi column");
  }
}

void replay_baseline(Hierarchy& base, int key) {
  {
    Span root("base.setup_replay", key);
    for (std::size_t l = 0; l + 1 < base.levels.size(); ++l) {
      const Level& L = base.levels[l];
      Span s("base.rap", key);
      const CSRMatrix R = transpose_serial(L.P);
      CSRMatrix Ac = rap_fused_hypre(R, L.A, L.P);
      Ac.sort_rows();
    }
  }
  Span root("base.vcycle_replay", key);
  for (std::size_t l = 0; l + 1 < base.levels.size(); ++l) {
    Level& L = base.levels[l];
    const signed char* cf = L.cf.empty() ? nullptr : L.cf.data();
    for (signed char want : {1, -1, -1, 1}) {
      Span s("base.gs_sweep", key);
      L.gs_base->sweep(L.A, L.b, L.x, L.temp, true, cf, want);
    }
  }
}

void put_setup_metrics(const std::vector<SpanRecord>& sp,
                       std::vector<Metric>& m) {
  for (const char* k : {"amg.strength", "amg.pmis", "matrix.reorder",
                        "amg.interp", "matrix.transpose", "spgemm.rap",
                        "amg.smoother_plan", "matrix.coarse_lu"})
    m.push_back({std::string(k) + "_s",
                 sum_of_key_medians(sp, k, "amg.setup_replay")});
  m.push_back({"spgemm.rap_flops",
               sum_of_key_medians(sp, "spgemm.rap", "amg.setup_replay", true)});
}

void put_cycle_metrics(const std::vector<SpanRecord>& sp,
                       std::vector<Metric>& m) {
  m.push_back({"amg.vcycle_s", sum_of_key_medians(sp, "amg.vcycle")});
  for (const char* k : {"amg.gs_sweep", "amg.residual_restrict",
                        "amg.interp_apply", "amg.coarse_solve"})
    m.push_back({std::string(k) + "_s", sum_of_key_medians(sp, k, "amg.vcycle")});
  m.push_back({"amg.gs_gbps", rate_of(sp, "amg.gs_sweep") / 1e9});
  m.push_back({"amg.residual_restrict_gbps",
               rate_of(sp, "amg.residual_restrict") / 1e9});
}

void put_multi_metrics(const std::vector<SpanRecord>& sp,
                       std::vector<Metric>& m) {
  m.push_back({"multivector.vcycle_m1_s", median_of(sp, "multivector.vcycle_m1")});
  m.push_back({"multivector.vcycle_m8_per_rhs_s",
               median_of(sp, "multivector.vcycle_m8") / kMultiCols});
  m.push_back({"multivector.solve_m8_per_rhs_s",
               median_of(sp, "multivector.solve_m8") / kMultiCols});
}

void Shape::add(const Hierarchy& h) {
  levels += double(h.num_levels());
  for (const Level& L : h.levels) {
    nnz += double(L.A.nnz());
    rows += double(L.n);
  }
  nnz0 += double(h.levels[0].A.nnz());
  rows0 += double(h.levels[0].n);
  for (const LevelMemory& m : h.memory_by_level())
    bytes += double(m.operator_bytes + m.interp_bytes + m.smoother_bytes +
                    m.workspace_bytes);
}

void Shape::put(std::vector<Metric>& out) const {
  out.push_back({"amg.levels", levels});
  out.push_back({"amg.operator_complexity", nnz0 > 0 ? nnz / nnz0 : 0.0});
  out.push_back({"amg.grid_complexity", rows0 > 0 ? rows / rows0 : 0.0});
  out.push_back({"amg.hier_bytes", bytes});
}

}  // namespace perfbench
