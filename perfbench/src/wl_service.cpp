// service_closed: a SolverService with two workers, driven by two
// closed-loop clients over six distinct operators. Each client sends its
// next request only when the previous one has returned. A round is every
// operator once per client, in a seeded order; every fifth request of a
// client is a 2-column batch. The pool holds every operator, there are no
// deadlines and at most two requests are queued, so nothing is shed,
// degraded or evicted and every run does the same work.
#include <future>
#include <map>
#include <thread>

#include "bench.hpp"
#include "gen/reservoir.hpp"
#include "gen/stencil.hpp"
#include "gen/suite.hpp"
#include "replay.hpp"
#include "service/service.hpp"

namespace perfbench {

using namespace hpamg;

namespace {

constexpr int kClients = 2;
constexpr Int kBatchCols = 2;

struct Request {
  int op = 0;
  bool cold = false;
  bool ok = false;
  Int cols = 1;
  Int iterations = 0;
  double latency = 0.0, queue = 0.0, in_solve = 0.0, relres = 0.0;
};

std::vector<CSRMatrix> operators(bool small) {
  std::vector<CSRMatrix> ops;
  const Int s = small ? 10 : 32;
  ReservoirOptions ro;
  ops.push_back(reservoir_matrix(s, s, s, ro));
  ro.seed = 7;
  ro.sigma = 1.5;
  ops.push_back(reservoir_matrix(s, s, s, ro));
  ops.push_back(lap3d_27pt(small ? 8 : 24, small ? 8 : 24, small ? 8 : 24));
  ops.push_back(lap3d_7pt(s, s, s, 1.0, 0.1));
  ops.push_back(lap2d_5pt(small ? 30 : 200, small ? 30 : 200));
  ops.push_back(generate_suite_matrix("thermal2", small ? 0.001 : 0.03));
  return ops;
}

}  // namespace

Result run_service_closed(const Config& cfg) {
  Result res;
  const std::vector<CSRMatrix> ops = operators(cfg.small);
  const int nops = int(ops.size());
  Long rows = 0, nnz = 0;
  for (const CSRMatrix& A : ops) {
    rows += A.nrows;
    nnz += A.nnz();
  }
  res.shape = std::to_string(nops) + " operators: " + std::to_string(rows) +
              " rows, " + std::to_string(nnz) + " nnz; 2 clients, 2 workers";

  service::ServiceOptions so;
  so.workers = 2;
  so.queue_capacity = 32;
  so.max_hierarchies = std::size_t(nops) + 2;
  so.amg = table3_options(0.25);
  service::SolverService svc(so);
  service::RequestOptions ropts;
  ropts.rtol = kRtol;
  ropts.max_iterations = 500;

  long sent[kClients] = {0, 0};
  // One client's share of a round: every operator once, in a seeded order.
  // The cold round (round < 0) has a fixed order, client c starting at
  // operator c * nops / kClients, so which builds run side by side, and with
  // it the cold latencies, does not depend on the seed.
  auto client = [&](int c, long round, std::vector<Request>& out) {
    std::vector<int> order(static_cast<std::size_t>(nops));
    for (int k = 0; k < nops; ++k) order[std::size_t(k)] = (k + c * nops / kClients) % nops;
    Rng rng(cfg.seed, 7000 + std::uint64_t(round) * kClients + std::uint64_t(c));
    for (int k = nops - 1; k > 0 && round >= 0; --k)
      std::swap(order[std::size_t(k)], order[rng.next() % std::uint64_t(k + 1)]);
    for (int k : order) {
      const CSRMatrix& A = ops[std::size_t(k)];
      const std::uint64_t stream = 100000 * std::uint64_t(c + 1) + std::uint64_t(sent[c]);
      Request rq;
      rq.op = k;
      rq.cols = sent[c]++ % 5 == 4 ? kBatchCols : 1;
      MultiVector B(A.nrows, rq.cols);
      for (Int j = 0; j < rq.cols; ++j)
        scatter_column(random_vector(A.nrows, cfg.seed, stream * 8 + std::uint64_t(j)), j, B);
      Vector b;
      gather_column(B, 0, b);
      const double t0 = now_s();
      std::future<service::RequestReport> fut;
      {
        Span s("service.submit", k);
        fut = rq.cols > 1 ? svc.submit_multi(A, B, ropts) : svc.submit(A, b, ropts);
      }
      const service::RequestReport rep = fut.get();
      rq.latency = now_s() - t0;
      rq.ok = status_ok(rep.status);
      rq.cold = !rep.cache_hit;
      rq.iterations = rep.iterations;
      rq.queue = rep.queue_seconds;
      rq.in_solve = rep.solve_seconds;
      if (rq.ok) {
        Vector x;
        for (Int j = 0; j < rq.cols; ++j) {
          gather_column(B, j, b);
          if (rq.cols > 1) gather_column(rep.X, j, x);
          rq.relres = std::max(rq.relres, true_relres(A, b, rq.cols > 1 ? x : rep.x));
        }
      }
      out.push_back(rq);
    }
  };

  // One round: both clients concurrently; returns its wall seconds.
  std::vector<Request> timed;
  auto round = [&](long r, std::vector<Request>& log) {
    std::vector<Request> per[kClients];
    const double t0 = now_s();
    std::thread other([&] { client(1, r, per[1]); });
    client(0, r, per[0]);
    other.join();
    const double sec = now_s() - t0;
    for (const std::vector<Request>& p : per)
      for (const Request& rq : p) {
        ++res.attempted;
        if (!rq.ok) {
          ++res.failed;
          continue;
        }
        res.checks.relres(rq.relres, kRtol,
                          "service reply for operator " + std::to_string(rq.op));
        log.push_back(rq);
      }
    return sec;
  };

  // Cold set-up: the first round builds every operator's hierarchy.
  std::vector<Request> cold_round;
  round(-1, cold_round);
  std::vector<double> cold;
  for (const Request& rq : cold_round)
    if (rq.cold) cold.push_back(rq.latency);

  Shape shape;
  bool shaped = false;
  std::vector<Request> traced_log;
  const Rounds rounds = run_rounds(cfg, [&](long r, bool traced) {
    const std::size_t before = timed.size();
    const double sec = round(r, timed);
    if (!traced) return sec;
    traced_log.insert(traced_log.end(), timed.begin() + long(before), timed.end());
    for (int k = 0; k < nops; ++k) {
      const CSRMatrix& A = ops[std::size_t(k)];
      {
        Span s("service.fingerprint", k);
        (void)matrix_fingerprint(A);
      }
      Span s("amg.setup", k);
      AMGSolver amg(A, so.amg);
      s.stop();
      replay_setup(A, so.amg, k, shaped ? nullptr : &amg.hierarchy(), res.checks);
      if (!shaped) {
        shape.add(amg.hierarchy());
        res.checks.hierarchy(amg.hierarchy(), cfg.seed, "service operator " + std::to_string(k));
      }
      // The workers are idle between rounds: the cycle and batched-cycle
      // figures are taken on this operator's own hierarchy, built with the
      // service's options.
      measure_cycles(amg.hierarchy(), 3, cfg.seed + std::uint64_t(r), k);
      measure_multi(amg, A, 3, cfg.seed + std::uint64_t(r), k, res.checks);
    }
    shaped = true;
    return sec;
  });
  svc.stop();

  const service::ServiceStats st = svc.stats();
  res.checks.expect(st.setup_builds == std::uint64_t(nops),
                    "service built " + std::to_string(st.setup_builds) +
                        " hierarchies for " + std::to_string(nops) + " operators");
  res.checks.expect(st.setup_builds + st.cache_hits == st.completed_ok,
                    "service builds + cache hits != requests completed");
  res.checks.expect(st.completed_ok == std::uint64_t(res.attempted - res.failed),
                    "service completed count differs from the replies");
  res.checks.expect(st.rejected == 0 && st.degraded == 0 && st.evictions == 0,
                    "service rejected, degraded or evicted a request");
  res.checks.expect(cold.size() == std::size_t(nops),
                    "cold round did not build every operator once");

  std::vector<double> warm, queue, in_solve;
  std::map<int, std::vector<double>> iterations;  // per operator
  long cols = 0;
  for (const Request& rq : timed) cols += rq.cols;
  for (const Request& rq : cfg.trace ? traced_log : timed) {
    res.checks.expect(!rq.cold, "a timed-phase request built a hierarchy");
    warm.push_back(rq.latency);
    queue.push_back(rq.queue);
    in_solve.push_back(rq.in_solve);
    iterations[rq.op].push_back(double(rq.iterations));
  }
  double wall = 0.0;
  for (double s : rounds.plain) wall += s;
  if (!cfg.trace) {
    res.metrics = {{"setup_s", median(cold)},
                   {"solve_s", median(warm)},
                   {"rhs_per_s", wall > 0 ? double(cols) / wall : 0.0}};
    return res;
  }

  const std::vector<SpanRecord> sp = recorded_spans();
  std::vector<Metric>& m = res.metrics;
  m.push_back({"amg.setup_s", sum_of_key_medians(sp, "amg.setup")});
  put_setup_metrics(sp, m);
  shape.put(m);
  double iters = 0.0;
  for (const auto& [op, v] : iterations) iters += median(v);
  m.push_back({"amg.iterations", iters});
  put_cycle_metrics(sp, m);
  put_multi_metrics(sp, m);
  m.push_back({"service.submit_s", median_of(sp, "service.submit")});
  m.push_back({"service.fingerprint_s", median_of(sp, "service.fingerprint")});
  m.push_back({"service.queue_wait_s", median(queue)});
  m.push_back({"service.in_solve_s", median(in_solve)});
  m.push_back({"service.latency_p90_s", quantile(warm, 0.9)});
  m.push_back({"service.setup_builds", double(st.setup_builds)});
  m.push_back({"service.cache_hits", double(st.cache_hits)});
  m.push_back({"trace.overhead_s", rounds.overhead()});
  return res;
}

}  // namespace perfbench
