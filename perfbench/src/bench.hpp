// Shared pieces of the perfbench driver: run configuration, the in-memory
// span recorder, seeded inputs, statistics, output checks and the metric
// list every workload fills.
//
// The driver reaches the program only through its public headers. Spans are
// recorded here, around each call into a layer of the program, and are kept
// in memory until the run ends; per-layer metrics are computed from them.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "amg/solver.hpp"
#include "matrix/csr.hpp"

namespace perfbench {

using hpamg::CSRMatrix;
using hpamg::Int;
using hpamg::Long;
using hpamg::Vector;

struct Config {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool small = false;  ///< tiny inputs: a quick check of every workload
};

/// Seconds on the steady clock since the driver started.
double now_s();

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

struct SpanRecord {
  std::string name;
  int key = 0;          ///< case / operator / rank the span belongs to
  int parent = -1;      ///< index of the enclosing span on the same thread
  double start = 0.0;
  double end = 0.0;
  double count = 0.0;   ///< work attached to the span (bytes, flops, iters)
  double seconds() const { return end - start; }
};

/// Turns span recording on or off for the whole process. Off by default;
/// the end-to-end runs never turn it on.
void set_tracing(bool on);
bool tracing();

/// A timed region. Always measures its own duration (the workloads use it as
/// their stopwatch); records a SpanRecord only while tracing is on.
class Span {
 public:
  explicit Span(const char* name, int key = 0);
  ~Span() { stop(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Ends the span (idempotent) and returns its duration in seconds.
  double stop();
  void set_count(double c) { count_ = c; }
  /// Index of the recorded span, -1 when tracing is off.
  int id() const { return id_; }

 private:
  int id_ = -1;
  int saved_parent_ = -1;
  double start_ = 0.0;
  double elapsed_ = -1.0;
  double count_ = 0.0;
};

/// Records a span measured by the program itself (seconds and work it
/// reported) as a child of span `parent`. No-op while tracing is off.
void record_child(const char* name, int key, int parent, double seconds,
                  double count);

/// Copy of every span recorded so far.
std::vector<SpanRecord> recorded_spans();

/// Aggregations over recorded spans. A sample is either one span of that
/// name or, when `group` is given, the sum of the `name` spans that are
/// direct children of one `group` span (one replayed set-up, one V-cycle).
/// key_medians gives the median sample per key; sum_of_key_medians sums
/// those medians over the keys (cases, operators).
std::map<int, double> key_medians(const std::vector<SpanRecord>& spans,
                                  const std::string& name,
                                  const std::string& group = "",
                                  bool use_count = false);
double sum_of_key_medians(const std::vector<SpanRecord>& spans,
                          const std::string& name,
                          const std::string& group = "",
                          bool use_count = false);
/// Median duration (or count) over all spans of that name.
double median_of(const std::vector<SpanRecord>& spans, const std::string& name,
                 bool use_count = false);
/// Total count / total seconds over all spans of that name.
double rate_of(const std::vector<SpanRecord>& spans, const std::string& name);

// ---------------------------------------------------------------------------
// Inputs, statistics, checks, metrics
// ---------------------------------------------------------------------------

/// Deterministic stream: the same (seed, stream) gives the same numbers.
class Rng {
 public:
  Rng(std::uint64_t seed, std::uint64_t stream);
  std::uint64_t next();
  double uniform();  ///< in [-1, 1)

 private:
  std::uint64_t s_;
};

Vector random_vector(Int n, std::uint64_t seed, std::uint64_t stream);

double median(std::vector<double> v);
double quantile(std::vector<double> v, double q);

/// Table 3 standalone-AMG options with the partition count pinned, so
/// iteration counts do not follow the host's core count.
hpamg::AMGOptions table3_options(double strength_threshold);
inline constexpr int kGsPartitions = 4;
inline constexpr double kRtol = 1e-7;

/// ||b - A x|| / ||b||, computed by a plain loop over the CSR arrays.
double true_relres(const CSRMatrix& A, const Vector& b, const Vector& x);

/// Collects failed output checks; a run is correct when none failed.
class Checks {
 public:
  void expect(bool ok, const std::string& what);
  /// Residual check with round-off slack over the solver's tolerance.
  void residual(const CSRMatrix& A, const Vector& b, const Vector& x,
                double rtol, const std::string& what);
  /// The same check on a relative residual computed elsewhere.
  void relres(double rr, double rtol, const std::string& what);
  /// Galerkin identity A_c v = P^T A_f P v (and symmetry of A_c when A_f
  /// is symmetric) on seeded probe vectors. P maps coarse vectors in A_c's
  /// ordering to fine vectors in A_f's ordering.
  void galerkin(const CSRMatrix& Af, const CSRMatrix& P, const CSRMatrix& Ac,
                std::uint64_t seed, const std::string& what);
  /// Every level of an optimized hierarchy, each in its own CF ordering.
  void hierarchy(const hpamg::Hierarchy& h, std::uint64_t seed,
                 const std::string& what);
  bool ok() const { return failures_ == 0; }

 private:
  int failures_ = 0;
};

/// A named value. run.py attaches the unit BENCHMARK.json gives the name.
struct Metric {
  std::string name;
  double value = 0.0;
};

/// What a workload hands back to main().
struct Result {
  long attempted = 0;
  long failed = 0;
  std::vector<Metric> metrics;  ///< end-to-end (untraced) or per-layer
  Checks checks;
  std::string shape;  ///< one line: rows, nnz, ranks, ...
};

/// Runs whole rounds until `cfg.seconds` have passed (at least one).
/// `round(index, traced)` runs one round and returns the seconds its
/// workload operations took (replays and checks excluded). Untraced runs
/// trace nothing; traced runs alternate an untraced and a traced round, in
/// whole pairs, so trace.overhead_s compares the two in one process.
struct Rounds {
  long count = 0;
  std::vector<double> plain, traced;  ///< workload seconds per round
  double overhead() const { return median(traced) - median(plain); }
};
Rounds run_rounds(const Config& cfg,
                  const std::function<double(long, bool)>& round);

Result run_table2_oneshot(const Config& cfg);
Result run_reservoir_resolve(const Config& cfg);
Result run_service_closed(const Config& cfg);
Result run_simmpi_fgmres(const Config& cfg);

}  // namespace perfbench
