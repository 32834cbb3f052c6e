// table2_oneshot: every Table-2 stand-in matrix at one scale, one
// hierarchy build and one solve per case, round-robin over the cases.
// Set-up is most of the time to solution here.
#include <cmath>

#include "bench.hpp"
#include "gen/suite.hpp"
#include "perfmodel/machine.hpp"
#include "replay.hpp"

namespace perfbench {

using namespace hpamg;

namespace {

struct Case {
  std::string name;
  AMGOptions opts;
  CSRMatrix A;
  Vector b;
  std::vector<double> solve;  ///< timed-phase solve seconds
  double setup_cold = 0.0;    ///< the first build of this case
  double modeled_speedup = 0.0;
};

}  // namespace

Result run_table2_oneshot(const Config& cfg) {
  Result res;
  const double scale = cfg.small ? 0.002 : 0.05;
  std::vector<Case> cases;
  Long rows = 0, nnz = 0;
  for (const SuiteEntry& e : table2_suite()) {
    Case c;
    c.name = e.name;
    c.opts = table3_options(e.strength_threshold);
    c.A = generate_suite_matrix(e.name, scale);
    c.b = random_vector(c.A.nrows, cfg.seed, cases.size());
    rows += c.A.nrows;
    nnz += c.A.nnz();
    cases.push_back(std::move(c));
  }
  res.shape = std::to_string(cases.size()) + " Table-2 matrices at scale " +
              std::to_string(scale) + ": " + std::to_string(rows) + " rows, " +
              std::to_string(nnz) + " nnz";

  const MachineModel hsw = haswell_socket();
  Shape shape;
  bool traced_once = false;
  long solves = 0;
  double op_seconds = 0.0;

  // One build + one solve of case k; returns their seconds. Checks and the
  // traced replays run outside the timed operations.
  auto one = [&](int k, bool first, bool traced) {
    Case& c = cases[std::size_t(k)];
    Span setup_span("amg.setup", k);
    AMGSolver amg(c.A, c.opts);
    double sec = setup_span.stop();
    if (first) c.setup_cold = sec;
    Vector x(c.b.size(), 0.0);
    Span solve_span("amg.solve", k);
    const SolveResult sr = amg.solve(c.b, x, kRtol, 200);
    solve_span.set_count(double(sr.iterations));
    const double solve_sec = solve_span.stop();
    sec += solve_sec;
    ++res.attempted;
    if (!status_ok(sr.status)) {
      ++res.failed;
    } else {
      res.checks.residual(c.A, c.b, x, kRtol, c.name + " solve");
      c.solve.push_back(solve_sec);
      ++solves;
      op_seconds += sec;
    }
    if (first) res.checks.hierarchy(amg.hierarchy(), cfg.seed, c.name);
    if (!traced) return sec;

    replay_setup(c.A, c.opts, k, traced_once ? nullptr : &amg.hierarchy(),
                 res.checks);
    measure_cycles(amg.hierarchy(), 3, cfg.seed, k);
    AMGOptions bo = c.opts;
    bo.variant = Variant::kBaseline;
    Span base_setup("base.setup", k);
    AMGSolver base(c.A, bo);
    base_setup.stop();
    Vector xb(c.b.size(), 0.0);
    Span base_solve("base.solve", k);
    const SolveResult sb = base.solve(c.b, xb, kRtol, 200);
    base_solve.stop();
    res.checks.expect(status_ok(sb.status), c.name + " baseline solve failed");
    replay_baseline(base.hierarchy(), k);
    if (!traced_once) {
      shape.add(amg.hierarchy());
      WorkCounters wo = amg.hierarchy().setup_work, wb = base.hierarchy().setup_work;
      wo += sr.solve_work;
      wb += sb.solve_work;
      c.modeled_speedup = hsw.seconds(wb) / hsw.seconds(wo);
    }
    return sec;
  };

  bool first = true;
  const Rounds rounds = run_rounds(cfg, [&](long, bool traced) {
    double sec = 0.0;
    for (int k = 0; k < int(cases.size()); ++k)
      sec += one(k, first, traced);
    first = false;
    if (traced) traced_once = true;
    return sec;
  });

  if (!cfg.trace) {
    // setup_s: the first, cold build of every case in this process (the
    // first round); a later build of the same case is a warm one.
    double setup_cold = 0.0, solve = 0.0;
    for (const Case& c : cases) {
      setup_cold += c.setup_cold;
      solve += median(c.solve);
    }
    res.metrics = {{"setup_s", setup_cold},
                   {"solve_s", solve},
                   {"rhs_per_s", op_seconds > 0 ? solves / op_seconds : 0.0}};
    return res;
  }

  const std::vector<SpanRecord> sp = recorded_spans();
  std::vector<Metric>& m = res.metrics;
  m.push_back({"amg.setup_s", sum_of_key_medians(sp, "amg.setup")});
  put_setup_metrics(sp, m);
  shape.put(m);
  m.push_back({"amg.iterations", sum_of_key_medians(sp, "amg.solve", "", true)});
  put_cycle_metrics(sp, m);
  m.push_back({"base.setup_s", sum_of_key_medians(sp, "base.setup")});
  m.push_back({"base.solve_s", sum_of_key_medians(sp, "base.solve")});
  m.push_back({"base.rap_s", sum_of_key_medians(sp, "base.rap", "base.setup_replay")});
  m.push_back({"base.gs_sweep_s",
               sum_of_key_medians(sp, "base.gs_sweep", "base.vcycle_replay")});

  // Fig-5 speedup: geomean over cases of baseline over optimized time to
  // solution (measured), and of the roofline model's projection (modeled).
  const auto os = key_medians(sp, "amg.setup"), ov = key_medians(sp, "amg.solve");
  const auto bs = key_medians(sp, "base.setup"), bv = key_medians(sp, "base.solve");
  double log_meas = 0.0, log_model = 0.0;
  for (int k = 0; k < int(cases.size()); ++k) {
    log_meas += std::log((bs.at(k) + bv.at(k)) / (os.at(k) + ov.at(k)));
    log_model += std::log(cases[std::size_t(k)].modeled_speedup);
  }
  m.push_back({"fig5.speedup_measured", std::exp(log_meas / double(cases.size()))});
  m.push_back({"fig5.speedup_modeled", std::exp(log_model / double(cases.size()))});
  m.push_back({"trace.overhead_s", rounds.overhead()});
  return res;
}

}  // namespace perfbench
