// perfbench driver: runs one workload for a fixed time and prints its
// metrics as one JSON object on the last line of standard output.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--small 1]
//
// Normally started by perfbench/run.py, which builds this binary, fixes the
// OpenMP thread count per workload, adds the process's peak RSS and
// attaches the units BENCHMARK.json gives.
#include <omp.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "bench.hpp"

namespace {

std::string json_escape(const std::string& s) {
  std::string o;
  for (char c : s) {
    if (c == '"' || c == '\\') o += '\\';
    if (c == '\n') {
      o += "\\n";
      continue;
    }
    o += c;
  }
  return o;
}

int usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "table2_oneshot|reservoir_resolve|service_closed|simmpi_fgmres"
               " --seed N --seconds S --trace 0|1 [--small 0|1]\n",
               msg);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  Config cfg;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") cfg.workload = v;
    else if (k == "--seed") cfg.seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--seconds") cfg.seconds = std::atof(v.c_str());
    else if (k == "--trace") cfg.trace = v == "1";
    else if (k == "--small") cfg.small = v == "1";
    else return usage(("unknown option " + k).c_str());
  }
  if (argc % 2 == 0) return usage("options come in pairs");
  if (!(cfg.seconds > 0.0)) return usage("--seconds must be positive");

  Result r;
  try {
    if (cfg.workload == "table2_oneshot") r = run_table2_oneshot(cfg);
    else if (cfg.workload == "reservoir_resolve") r = run_reservoir_resolve(cfg);
    else if (cfg.workload == "service_closed") r = run_service_closed(cfg);
    else if (cfg.workload == "simmpi_fgmres") r = run_simmpi_fgmres(cfg);
    else return usage(("unknown workload '" + cfg.workload + "'").c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", cfg.workload.c_str(),
                 e.what());
    return 1;
  }

  // Only the metrics the workload measured; run.py attaches the units and
  // fills the per-layer names of layers the workload does not run.
  bool finite = true;
  std::string metrics;
  for (const Metric& m : r.metrics) {
    finite = finite && std::isfinite(m.value);
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(m.value) ? m.value : 0.0);
    if (!metrics.empty()) metrics += ", ";
    metrics += "\"" + m.name + "\": " + buf;
  }
  r.checks.expect(finite, "a metric is not finite");
  r.checks.expect(r.attempted > 0, "no operation was attempted");
#if defined(__clang__)
  const std::string compiler = "clang " __clang_version__;
#else
  const std::string compiler = "gcc " __VERSION__;
#endif
  std::printf(
      "{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, \"metrics\": "
      "{%s}, \"env\": {\"compiler\": \"%s\", \"omp_threads\": %d, "
      "\"shape\": \"%s\"}}\n",
      r.checks.ok() ? "true" : "false", r.attempted, r.failed, metrics.c_str(),
      json_escape(compiler).c_str(), omp_get_max_threads(),
      json_escape(r.shape).c_str());
  return 0;
}
