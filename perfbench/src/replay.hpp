// Per-kernel measurements for traced runs. The set-up split is a replay:
// build_hierarchy is one call, so the same public kernels are called in the
// same order, each inside a span. The V-cycle split is read from the
// program's own cycle.
#pragma once

#include "bench.hpp"

namespace perfbench {

/// Re-runs the optimized Table-3 set-up chain on A, one span per kernel
/// (children of one "amg.setup_replay" span with the given key). When
/// `built` is given, checks that every replayed level operator has the
/// built level's size and nonzero count.
void replay_setup(const CSRMatrix& A, const hpamg::AMGOptions& opts, int key,
                  const hpamg::Hierarchy* built, Checks& checks);

/// Runs `cycles` of the program's own V-cycle (vcycle_workspace) from a
/// seeded right-hand side, each inside one "amg.vcycle" span. The split
/// comes from the program's per-(kernel, level) attribution cells, summed
/// over levels: smoother, residual + restriction and prolongation (seconds
/// and WorkCounters bytes), and the coarse solve from its phase times.
void measure_cycles(hpamg::Hierarchy& h, int cycles, std::uint64_t seed,
                    int key);

/// Batched-cycle spans on a built solver: `reps` m=1 and m=8 vcycle_multi
/// calls, and one 8-column solve_multi whose columns are residual-checked.
void measure_multi(hpamg::AMGSolver& amg, const CSRMatrix& A, int reps,
                   std::uint64_t seed, int key, Checks& checks);
inline constexpr Int kMultiCols = 8;

/// Baseline-variant kernels for the Fig-5 control: the fused HYPRE-style
/// RAP with its per-level transpose, and one V-cycle's worth of branchy
/// hybrid-GS sweeps (pre and post on every level but the coarsest).
void replay_baseline(hpamg::Hierarchy& base, int key);

/// Per-layer metrics of the replays above: the set-up kernels (sum over
/// keys of each key's median replay), and the per-V-cycle split with the
/// batched-cycle figures of measure_cycles and measure_multi.
void put_setup_metrics(const std::vector<SpanRecord>& spans,
                       std::vector<Metric>& out);
void put_cycle_metrics(const std::vector<SpanRecord>& spans,
                       std::vector<Metric>& out);
void put_multi_metrics(const std::vector<SpanRecord>& spans,
                       std::vector<Metric>& out);

/// Aggregate hierarchy shape over any number of hierarchies.
struct Shape {
  double levels = 0, nnz = 0, nnz0 = 0, rows = 0, rows0 = 0, bytes = 0;
  void add(const hpamg::Hierarchy& h);
  void put(std::vector<Metric>& out) const;
};

}  // namespace perfbench
