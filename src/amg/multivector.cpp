#include "amg/multivector.hpp"

#include <algorithm>

#include "support/parallel.hpp"
#include "support/trace.hpp"

namespace hpamg {

namespace {

void require_same_shape(const MultiVector& a, const MultiVector& b,
                        const char* what) {
  require(a.n == b.n && a.m == b.m, std::string(what) + ": shape mismatch");
}

// lint: counted-no-span(accounting helper; traced entry points own spans)
void count_blas1(WorkCounters* wc, const MultiVector& X, int reads,
                 int writes, int flops_per_elem) {
  if (!wc) return;
  const std::uint64_t elems = std::uint64_t(X.n) * std::uint64_t(X.m);
  wc->flops += flops_per_elem * elems;
  wc->bytes_read += reads * elems * sizeof(double);
  wc->bytes_written += writes * elems * sizeof(double);
}

}  // namespace

void set_zero(MultiVector& X) {
  std::fill(X.data.begin(), X.data.end(), 0.0);
}

void copy(const MultiVector& src, MultiVector& dst) {
  require_same_shape(src, dst, "multivector copy");
  const double* HPAMG_RESTRICT s = src.data.data();
  double* HPAMG_RESTRICT d = dst.data.data();
  parallel_for(0, src.n, [&](Int i) {
    const std::size_t off = std::size_t(i) * src.m;
    for (Int j = 0; j < src.m; ++j) d[off + j] = s[off + j];
  });
}

void gather_column(const MultiVector& X, Int j, Vector& out) {
  require(j >= 0 && j < X.m, "gather_column: column out of range");
  out.resize(X.n);
  const double* HPAMG_RESTRICT xp = X.data.data();
  double* HPAMG_RESTRICT op = out.data();
  parallel_for(0, X.n, [&](Int i) { op[i] = xp[std::size_t(i) * X.m + j]; });
}

void scatter_column(const Vector& in, Int j, MultiVector& X) {
  require(j >= 0 && j < X.m, "scatter_column: column out of range");
  require(Int(in.size()) >= X.n, "scatter_column: input too small");
  const double* HPAMG_RESTRICT ip = in.data();
  double* HPAMG_RESTRICT xp = X.data.data();
  parallel_for(0, X.n, [&](Int i) { xp[std::size_t(i) * X.m + j] = ip[i]; });
}

void axpy_columns(const std::vector<double>& alpha, const MultiVector& X,
                  MultiVector& Y, WorkCounters* wc) {
  require_same_shape(X, Y, "axpy_columns");
  require(Int(alpha.size()) == X.m, "axpy_columns: alpha size mismatch");
  const double* HPAMG_RESTRICT a = alpha.data();
  const double* HPAMG_RESTRICT xp = X.data.data();
  double* HPAMG_RESTRICT yp = Y.data.data();
  parallel_for(0, X.n, [&](Int i) {
    const std::size_t off = std::size_t(i) * X.m;
    for (Int j = 0; j < X.m; ++j) yp[off + j] += a[j] * xp[off + j];
  });
  count_blas1(wc, X, 2, 1, 2);
}

std::vector<double> norm2sq_columns(const MultiVector& X, WorkCounters* wc) {
  TRACE_SPAN("multivector.norm2sq_columns", "kernel", "rows",
             std::int64_t(X.n));
  std::vector<double> out(X.m, 0.0);
  const double* HPAMG_RESTRICT xp = X.data.data();
#pragma omp parallel
  {
    std::vector<double> local(X.m, 0.0);
#pragma omp for schedule(static) nowait
    for (Int i = 0; i < X.n; ++i) {
      const std::size_t off = std::size_t(i) * X.m;
      for (Int j = 0; j < X.m; ++j) local[j] += xp[off + j] * xp[off + j];
    }
#pragma omp critical(hpamg_norm2sq_columns)
    for (Int j = 0; j < X.m; ++j) out[j] += local[j];
  }
  count_blas1(wc, X, 1, 0, 2);
  return out;
}

}  // namespace hpamg
