#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <map>
#include <mutex>

#include "bench.hpp"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;
const Clock::time_point kStart = Clock::now();

std::mutex g_span_mu;
std::vector<SpanRecord> g_spans;
std::atomic<bool> g_tracing{false};
thread_local int t_current_span = -1;

}  // namespace

double now_s() {
  return std::chrono::duration<double>(Clock::now() - kStart).count();
}

void set_tracing(bool on) { g_tracing.store(on, std::memory_order_relaxed); }
bool tracing() { return g_tracing.load(std::memory_order_relaxed); }

Span::Span(const char* name, int key) {
  start_ = now_s();
  if (!tracing()) return;
  std::lock_guard<std::mutex> lk(g_span_mu);
  id_ = int(g_spans.size());
  g_spans.push_back({name, key, t_current_span, start_, start_, 0.0});
  saved_parent_ = t_current_span;
  t_current_span = id_;
}

double Span::stop() {
  if (elapsed_ >= 0.0) return elapsed_;
  const double end = now_s();
  elapsed_ = end - start_;
  if (id_ >= 0) {
    std::lock_guard<std::mutex> lk(g_span_mu);
    g_spans[std::size_t(id_)].end = end;
    g_spans[std::size_t(id_)].count = count_;
    t_current_span = saved_parent_;
  }
  return elapsed_;
}

void record_child(const char* name, int key, int parent, double seconds,
                  double count) {
  if (!tracing()) return;
  std::lock_guard<std::mutex> lk(g_span_mu);
  g_spans.push_back({name, key, parent, 0.0, seconds, count});
}

std::vector<SpanRecord> recorded_spans() {
  std::lock_guard<std::mutex> lk(g_span_mu);
  return g_spans;
}

std::map<int, double> key_medians(const std::vector<SpanRecord>& spans,
                                  const std::string& name,
                                  const std::string& group, bool use_count) {
  // One sample per enclosing `group` span (the sum of its `name` children),
  // or one per span when no group is named.
  std::map<int, double> per_group;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    if (s.name != name) continue;
    int g = int(i);
    if (!group.empty()) {
      if (s.parent < 0 || spans[std::size_t(s.parent)].name != group) continue;
      g = s.parent;
    }
    per_group[g] += use_count ? s.count : s.seconds();
  }
  std::map<int, std::vector<double>> per_key;
  for (const auto& [g, v] : per_group)
    per_key[spans[std::size_t(g)].key].push_back(v);
  std::map<int, double> out;
  for (auto& [k, v] : per_key) out[k] = median(v);
  return out;
}

double sum_of_key_medians(const std::vector<SpanRecord>& spans,
                          const std::string& name, const std::string& group,
                          bool use_count) {
  double total = 0.0;
  for (const auto& [k, v] : key_medians(spans, name, group, use_count))
    total += v;
  return total;
}

double median_of(const std::vector<SpanRecord>& spans, const std::string& name,
                 bool use_count) {
  std::vector<double> v;
  for (const SpanRecord& s : spans)
    if (s.name == name) v.push_back(use_count ? s.count : s.seconds());
  return median(std::move(v));
}

double rate_of(const std::vector<SpanRecord>& spans, const std::string& name) {
  double count = 0.0, sec = 0.0;
  for (const SpanRecord& s : spans)
    if (s.name == name) {
      count += s.count;
      sec += s.seconds();
    }
  return sec > 0.0 ? count / sec : 0.0;
}

Rng::Rng(std::uint64_t seed, std::uint64_t stream)
    : s_(seed * 0x9E3779B97F4A7C15ull ^ (stream + 0x632BE59BD9B4E019ull)) {}

std::uint64_t Rng::next() {  // splitmix64
  std::uint64_t z = (s_ += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

double Rng::uniform() { return double(next() >> 11) * 0x1.0p-52 - 1.0; }

Vector random_vector(Int n, std::uint64_t seed, std::uint64_t stream) {
  Rng r(seed, stream);
  Vector v(static_cast<std::size_t>(n));
  for (double& x : v) x = r.uniform();
  return v;
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * double(v.size() - 1);
  const std::size_t lo = std::size_t(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - double(lo)) * (v[hi] - v[lo]);
}

Rounds run_rounds(const Config& cfg,
                  const std::function<double(long, bool)>& round) {
  Rounds r;
  const double t0 = now_s();
  do {
    for (int half = 0; half < (cfg.trace ? 2 : 1); ++half) {
      const bool traced = half == 1;
      set_tracing(traced);
      const double sec = round(r.count++, traced);
      set_tracing(false);
      (traced ? r.traced : r.plain).push_back(sec);
    }
  } while (now_s() - t0 < cfg.seconds);
  return r;
}

hpamg::AMGOptions table3_options(double strength_threshold) {
  hpamg::AMGOptions o;
  o.variant = hpamg::Variant::kOptimized;
  o.max_levels = 7;
  o.strength.threshold = strength_threshold;
  o.strength.max_row_sum = 0.8;
  o.interp = hpamg::InterpKind::kExtPI;
  o.truncation.trunc_fact = 0.1;
  o.truncation.max_elmts = 4;
  o.smoother = hpamg::SmootherKind::kHybridGS;
  o.gs_partitions = kGsPartitions;
  return o;
}

double true_relres(const CSRMatrix& A, const Vector& b, const Vector& x) {
  double rr = 0.0, bb = 0.0;
  for (Int i = 0; i < A.nrows; ++i) {
    double ax = 0.0;
    for (Int k = A.rowptr[i]; k < A.rowptr[i + 1]; ++k)
      ax += A.values[k] * x[std::size_t(A.colidx[k])];
    const double r = b[std::size_t(i)] - ax;
    rr += r * r;
    bb += b[std::size_t(i)] * b[std::size_t(i)];
  }
  return bb > 0.0 ? std::sqrt(rr / bb) : std::sqrt(rr);
}

void Checks::expect(bool ok, const std::string& what) {
  if (ok) return;
  ++failures_;
  if (failures_ <= 20) std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n",
                                    what.c_str());
}

void Checks::residual(const CSRMatrix& A, const Vector& b, const Vector& x,
                      double rtol, const std::string& what) {
  relres(true_relres(A, b, x), rtol, what);
}

void Checks::relres(double rr, double rtol, const std::string& what) {
  // The solvers stop on their own residual estimate; allow round-off.
  char buf[96];
  std::snprintf(buf, sizeof buf, ": relres %.3e > rtol %.1e", rr, rtol);
  expect(std::isfinite(rr) && rr <= rtol * 1.01 + 1e-13, what + buf);
}

namespace {

/// y = M x and its magnitude bound |M| |x|.
void apply(const CSRMatrix& M, const Vector& x, Vector& y, Vector& ya,
           const Vector& xa) {
  y.assign(std::size_t(M.nrows), 0.0);
  ya.assign(std::size_t(M.nrows), 0.0);
  for (Int i = 0; i < M.nrows; ++i)
    for (Int k = M.rowptr[i]; k < M.rowptr[i + 1]; ++k) {
      y[std::size_t(i)] += M.values[k] * x[std::size_t(M.colidx[k])];
      ya[std::size_t(i)] += std::abs(M.values[k]) * xa[std::size_t(M.colidx[k])];
    }
}

/// y = M^T x (scatter) and its magnitude bound.
void apply_t(const CSRMatrix& M, const Vector& x, Vector& y, Vector& ya,
             const Vector& xa) {
  y.assign(std::size_t(M.ncols), 0.0);
  ya.assign(std::size_t(M.ncols), 0.0);
  for (Int i = 0; i < M.nrows; ++i)
    for (Int k = M.rowptr[i]; k < M.rowptr[i + 1]; ++k) {
      y[std::size_t(M.colidx[k])] += M.values[k] * x[std::size_t(i)];
      ya[std::size_t(M.colidx[k])] += std::abs(M.values[k]) * xa[std::size_t(i)];
    }
}

Vector absv(const Vector& v) {
  Vector a(v.size());
  for (std::size_t i = 0; i < v.size(); ++i) a[i] = std::abs(v[i]);
  return a;
}

double dotv(const Vector& a, const Vector& b) {
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
  return s;
}

/// |u^T M v - v^T M u| relative to |u|^T |M| |v|.
double asymmetry(const CSRMatrix& M, const Vector& u, const Vector& v) {
  Vector mv, mva, mu, mua;
  apply(M, v, mv, mva, absv(v));
  apply(M, u, mu, mua, absv(u));
  const double scale = dotv(absv(u), mva) + 1e-300;
  return std::abs(dotv(u, mv) - dotv(v, mu)) / scale;
}

}  // namespace

void Checks::galerkin(const CSRMatrix& Af, const CSRMatrix& P,
                      const CSRMatrix& Ac, std::uint64_t seed,
                      const std::string& what) {
  if (P.nrows != Af.nrows || P.ncols != Ac.nrows || Ac.nrows != Ac.ncols) {
    expect(false, what + ": Galerkin shapes disagree");
    return;
  }
  for (std::uint64_t probe = 0; probe < 2; ++probe) {
    const Vector v = random_vector(Ac.nrows, seed, 1000 + probe);
    const Vector va = absv(v);
    Vector w, wa, y, ya, z, za, t, ta;
    apply(Ac, v, w, wa, va);
    apply(P, v, y, ya, va);
    apply(Af, y, z, za, ya);
    apply_t(P, z, t, ta, za);
    double err = 0.0, scale = 0.0;
    for (std::size_t i = 0; i < t.size(); ++i) {
      err = std::max(err, std::abs(t[i] - w[i]));
      scale = std::max(scale, ta[i]);
    }
    char buf[96];
    std::snprintf(buf, sizeof buf, ": |A_c v - P^T A_f P v| = %.3e of %.3e",
                  err, scale);
    expect(err <= 1e-11 * scale, what + buf);
  }
  const Vector u = random_vector(Ac.nrows, seed, 2000);
  const Vector v = random_vector(Ac.nrows, seed, 2001);
  const Vector uf = random_vector(Af.nrows, seed, 2002);
  const Vector vf = random_vector(Af.nrows, seed, 2003);
  if (asymmetry(Af, uf, vf) <= 1e-12)
    expect(asymmetry(Ac, u, v) <= 1e-11,
           what + ": coarse operator of a symmetric operator is not symmetric");
}

void Checks::hierarchy(const hpamg::Hierarchy& h, std::uint64_t seed,
                       const std::string& what) {
  const bool optimized = h.opts.variant == hpamg::Variant::kOptimized;
  for (std::size_t l = 0; l + 1 < h.levels.size(); ++l) {
    const hpamg::Level& L = h.levels[l];
    const hpamg::Level& N = h.levels[l + 1];
    const std::string where = what + " level " + std::to_string(l);
    if (!optimized) {
      galerkin(L.A, L.P, N.A, seed + l, where);
      continue;
    }
    // P = [I; Pf] maps the next level's A_next ordering to this level's;
    // the stored next operator is A_next permuted by N.perm, so fold that
    // permutation into P's columns: every level stays in its own ordering.
    const std::vector<Int>& inv = N.perm.inv;
    auto col = [&](Int j) { return inv.empty() ? j : inv[std::size_t(j)]; };
    CSRMatrix P(L.n, L.nc);
    P.rowptr.assign(std::size_t(L.n) + 1, 0);
    for (Int r = 0; r < L.nc; ++r) {
      P.colidx.push_back(col(r));
      P.values.push_back(1.0);
      P.rowptr[std::size_t(r) + 1] = Int(P.colidx.size());
    }
    for (Int k = 0; k < L.n - L.nc; ++k) {
      for (Int q = L.Pf.rowptr[k]; q < L.Pf.rowptr[k + 1]; ++q) {
        P.colidx.push_back(col(L.Pf.colidx[q]));
        P.values.push_back(L.Pf.values[q]);
      }
      P.rowptr[std::size_t(L.nc + k) + 1] = Int(P.colidx.size());
    }
    galerkin(L.A, P, N.A, seed + l, where);
  }
}

}  // namespace perfbench
