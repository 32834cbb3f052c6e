#include "matrix/permute.hpp"

#include "support/parallel.hpp"

namespace hpamg {

CFPermutation cf_permutation(const CFMarker& cf) {
  const Int n = Int(cf.size());
  CFPermutation p;
  p.perm.resize(n);
  p.inv.resize(n);
  Int nc = 0;
  for (Int i = 0; i < n; ++i)
    if (cf[i] > 0) p.perm[nc++] = i;
  p.ncoarse = nc;
  Int nf = nc;
  for (Int i = 0; i < n; ++i)
    if (cf[i] <= 0) p.perm[nf++] = i;
  for (Int ni = 0; ni < n; ++ni) p.inv[p.perm[ni]] = ni;
  return p;
}

CSRMatrix permute_rows(const CSRMatrix& A, const std::vector<Int>& perm) {
  const Int n = Int(perm.size());
  CSRMatrix B(n, A.ncols);
  for (Int ni = 0; ni < n; ++ni) B.rowptr[ni + 1] = A.row_nnz(perm[ni]);
  exclusive_scan(B.rowptr);
  B.colidx.resize(B.rowptr[n]);
  B.values.resize(B.rowptr[n]);
  parallel_for(0, n, [&](Int ni) {
    const Int oi = perm[ni];
    Int pos = B.rowptr[ni];
    for (Int k = A.rowptr[oi]; k < A.rowptr[oi + 1]; ++k, ++pos) {
      B.colidx[pos] = A.colidx[k];
      B.values[pos] = A.values[k];
    }
  });
  return B;
}

CSRMatrix permute_symmetric(const CSRMatrix& A, const CFPermutation& p) {
  require(A.nrows == A.ncols, "permute_symmetric: matrix must be square");
  CSRMatrix B = permute_rows(A, p.perm);
  parallel_for(0, Int(B.colidx.size()), [&](Int k) {
    B.colidx[k] = p.inv[B.colidx[k]];
  });
  return B;
}

std::vector<double> permute_vector(const std::vector<double>& v,
                                   const std::vector<Int>& perm) {
  std::vector<double> out(perm.size());
  parallel_for(0, Int(perm.size()), [&](Int i) { out[i] = v[perm[i]]; });
  return out;
}

RowPartition three_way_partition_rows(
    CSRMatrix& A, const std::function<int(Int, Int, double)>& classify) {
  RowPartition rp;
  rp.ptr1.resize(A.nrows);
  rp.ptr2.resize(A.nrows);
  parallel_for_dynamic(0, A.nrows, [&](Int i) {
    const Int lo = A.rowptr[i], hi = A.rowptr[i + 1];
    // One counting sweep then one placement sweep: O(nnz(row)), no sort.
    Int cnt[3] = {0, 0, 0};
    for (Int k = lo; k < hi; ++k)
      ++cnt[classify(i, A.colidx[k], A.values[k])];
    Int start[3] = {lo, lo + cnt[0], lo + cnt[0] + cnt[1]};
    rp.ptr1[i] = start[1];
    rp.ptr2[i] = start[2];
    std::vector<Int> c(hi - lo);
    std::vector<double> v(hi - lo);
    Int fill[3] = {start[0], start[1], start[2]};
    for (Int k = lo; k < hi; ++k) {
      const int cls = classify(i, A.colidx[k], A.values[k]);
      const Int pos = fill[cls]++ - lo;
      c[pos] = A.colidx[k];
      v[pos] = A.values[k];
    }
    std::copy(c.begin(), c.end(), A.colidx.begin() + lo);
    std::copy(v.begin(), v.end(), A.values.begin() + lo);
  });
  return rp;
}

}  // namespace hpamg
