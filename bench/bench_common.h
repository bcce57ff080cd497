// Shared utilities for the paper-reproduction benchmarks.
//
// Scale control (parsed by SweepMessageBytes, src/experiment_service/grids.h):
//   THEMIS_FULL_SCALE=1   use the paper's 300 MB collectives (slow!)
//   THEMIS_BENCH_MB=<n>   override the per-collective message size in MiB
// Default sizes are scaled down so the whole suite runs in minutes; the
// completion-time *ratios* between schemes are what the paper's figures
// compare, and those are preserved (see EXPERIMENTS.md).
//
// Benchmarks report the *simulated* completion time as the manual benchmark
// time, so google-benchmark's "Time" column is the figure's y-axis.

#ifndef THEMIS_BENCH_BENCH_COMMON_H_
#define THEMIS_BENCH_BENCH_COMMON_H_

#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>
#include <vector>

#include "src/core/experiment.h"
#include "src/core/sweep_runner.h"
#include "src/stats/report.h"

namespace themis {
namespace benchutil {

// Row of the paper-style summary table printed after all benchmarks ran.
struct ResultRow {
  std::string config;
  std::string scheme;
  double completion_ms = 0.0;
  double rtx_ratio = 0.0;
  uint64_t nacks_to_sender = 0;
  uint64_t nacks_blocked = 0;
  uint64_t drops = 0;
};

inline std::vector<ResultRow>& Rows() {
  static std::vector<ResultRow> rows;
  return rows;
}

// One sweep point's outcome, as produced inside a SweepRunner worker. The
// sweep binaries fan their cases out with SweepRunner::Map and collect these
// in input order, so the printed table is identical for any thread count.
struct CaseResult {
  std::string name;
  ResultRow row;
  double sim_seconds = 0.0;
  bool ok = false;
  std::string error;
};

// Prints per-case lines in sweep order, files successful rows for the
// summary table, and returns the number of failed cases.
inline int EmitCaseResults(const std::vector<CaseResult>& results) {
  int failures = 0;
  for (const CaseResult& r : results) {
    if (!r.ok) {
      std::printf("%-48s SKIPPED: %s\n", r.name.c_str(), r.error.c_str());
      ++failures;
      continue;
    }
    std::printf("%-48s sim=%.3f ms\n", r.name.c_str(), r.sim_seconds * 1e3);
    Rows().push_back(r.row);
  }
  return failures;
}

inline void PrintSummary(const std::string& title) {
  Table table({"config", "scheme", "completion_ms", "rtx_ratio", "nacks@sender",
               "nacks_blocked", "drops"});
  for (const ResultRow& row : Rows()) {
    table.AddRow({row.config, row.scheme, FormatDouble(row.completion_ms, 3),
                  FormatDouble(row.rtx_ratio, 4), std::to_string(row.nacks_to_sender),
                  std::to_string(row.nacks_blocked), std::to_string(row.drops)});
  }
  std::printf("\n=== %s ===\n", title.c_str());
  table.Print();
}

}  // namespace benchutil
}  // namespace themis

#endif  // THEMIS_BENCH_BENCH_COMMON_H_
