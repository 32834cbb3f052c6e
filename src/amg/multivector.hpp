// Row-major multivector X[n][m]: m right-hand sides stored interleaved so
// the batched kernels (amg/spmv, amg/smoother, amg/cycle, dist/halo) read
// each matrix row once and apply it to all m columns — the XAMG-style
// multi-RHS generalization (ROADMAP item 1). Row-major layout is the one
// that amortizes matrix traffic: the m values of one vector row share the
// cache lines the row's nonzeros touch.
//
// Column j of a MultiVector corresponds to one scalar Vector; the batched
// kernels are written so each column's arithmetic order is identical to the
// scalar kernel's, making batched and scalar results bitwise-equal
// (tests/test_multirhs.cpp pins this).
#pragma once

#include <vector>

#include "matrix/vector_ops.hpp"
#include "support/common.hpp"
#include "support/counters.hpp"

namespace hpamg {

struct MultiVector {
  Int n = 0;  ///< rows (vector length)
  Int m = 0;  ///< columns (number of right-hand sides)
  std::vector<double> data;  ///< row-major: data[i * m + j]

  MultiVector() = default;
  MultiVector(Int rows, Int cols) { resize(rows, cols); }

  /// Reshapes to rows x cols and zero-fills.
  void resize(Int rows, Int cols) {
    n = rows;
    m = cols;
    data.assign(std::size_t(rows) * std::size_t(cols), 0.0);
  }

  double& at(Int i, Int j) { return data[std::size_t(i) * m + j]; }
  double at(Int i, Int j) const { return data[std::size_t(i) * m + j]; }
  double* row(Int i) { return data.data() + std::size_t(i) * m; }
  const double* row(Int i) const { return data.data() + std::size_t(i) * m; }
};

/// Largest column count the batched kernels process per pass over the
/// matrix; wider multivectors are handled in blocks of this many columns
/// (keeps the per-row accumulators in registers/stack).
inline constexpr Int kMaxRhsBlock = 32;

/// X = 0
void set_zero(MultiVector& X);

/// dst = src (shapes must match)
void copy(const MultiVector& src, MultiVector& dst);

/// out = column j of X (out resized to X.n)
void gather_column(const MultiVector& X, Int j, Vector& out);

/// column j of X = in (in.size() must be >= X.n)
void scatter_column(const Vector& in, Int j, MultiVector& X);

/// Per-column axpy: Y_j += alpha[j] * X_j for every column j.
void axpy_columns(const std::vector<double>& alpha, const MultiVector& X,
                  MultiVector& Y, WorkCounters* wc = nullptr);

/// Per-column squared norms: out[j] = <X_j, X_j>.
std::vector<double> norm2sq_columns(const MultiVector& X,
                                    WorkCounters* wc = nullptr);

}  // namespace hpamg
