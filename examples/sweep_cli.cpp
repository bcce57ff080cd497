// sweep_cli — launcher for the sharded experiment service: split a builtin
// sweep grid across N shards, run one shard (resumably), and merge the
// shards' journals back into the exact CSV a single-process run would write.
//
//   # one machine per shard (any order, any time):
//   $ ./build/examples/sweep_cli --grid=fct-smoke --shards=3 --shard-index=0 --dir=out
//   $ ./build/examples/sweep_cli --grid=fct-smoke --shards=3 --shard-index=1 --dir=out
//   $ ./build/examples/sweep_cli --grid=fct-smoke --shards=3 --shard-index=2 --dir=out
//   # reassemble (byte-identical to --single for any shard count/order):
//   $ ./build/examples/sweep_cli --grid=fct-smoke --shards=3 --dir=out --merge --out=fct.csv
//
// A preempted shard restarts with --resume and recomputes only the points
// its journal is missing; points are keyed on a config hash, so editing one
// grid point invalidates exactly that point. Run with --help for the flags.

#include <climits>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "examples/flags.h"
#include "src/core/sweep_runner.h"
#include "src/experiment_service/grids.h"
#include "src/experiment_service/merge.h"
#include "src/experiment_service/shard_executor.h"
#include "src/telemetry/counters.h"

namespace {

using namespace themis;

enum class Mode {
  kShard,         // default: run one shard's slice
  kSingle,        // single-process reference run
  kMerge,         // reassemble shard journals into the final CSV
  kManifestOnly,  // write the manifest and exit
};

struct CliOptions {
  std::string grid = "fct-smoke";
  Mode mode = Mode::kShard;
  ShardOptions shard;
  std::string out;  // --single / --merge output; default <dir>/<grid>.csv
  bool counters = false;
};

CliOptions Parse(int argc, char** argv) {
  CliOptions opts;
  FlagTable flags("sweep_cli — sharded, resumable sweep launcher with byte-identical merge");
  flags.Text("--grid", "NAME", &opts.grid, "builtin grid to run");
  flags.Switch("--list-grids", "print the builtin grid names and exit", [] {
    for (const std::string& name : BuiltinGridNames()) {
      std::printf("%s\n", name.c_str());
    }
    std::exit(0);
  });
  // The shard executor checks --shard-index < --shards.
  flags.Number("--shards", &opts.shard.shard_count, 1, INT_MAX, "total shard count");
  flags.Number("--shard-index", &opts.shard.shard_index, 0, INT_MAX, "this shard, 0-based");
  flags.Switch("--resume", "replay this shard's journal and run only missing points",
               [&opts] { opts.shard.resume = true; });
  flags.Number("--threads", &opts.shard.threads, 0, SweepRunner::kMaxThreads,
               "SweepRunner threads (0: THEMIS_SWEEP_THREADS, then\n"
               "hardware concurrency)");
  flags.Text("--dir", "PATH", &opts.shard.dir, "manifest/journal/CSV directory; must exist");
  flags.Switch("--merge",
               "merge the --shards journals in --dir into --out instead\n"
               "of running; fails if any grid point is missing",
               [&opts] { opts.mode = Mode::kMerge; });
  flags.Switch("--single",
               "run the whole grid in-process and write --out: the\n"
               "reference byte stream every merge must equal",
               [&opts] { opts.mode = Mode::kSingle; });
  flags.Switch("--manifest-only", "write <dir>/<grid>.manifest and exit",
               [&opts] { opts.mode = Mode::kManifestOnly; });
  flags.Text("--out", "PATH", &opts.out,
             "output CSV for --single/--merge (default <dir>/<grid>.csv)");
  flags.Switch("--counters", "after a shard run, print the sweep.* telemetry counters",
               [&opts] { opts.counters = true; });
  flags.Parse(argc, argv);
  return opts;
}

std::string JoinPath(const std::string& dir, const std::string& file) {
  if (dir.empty() || dir.back() == '/') {
    return dir + file;
  }
  return dir + "/" + file;
}

int Run(const CliOptions& opts) {
  std::string error;
  const GridDef grid = MakeBuiltinGrid(opts.grid, &error);
  if (grid.cases.empty() && !error.empty()) {
    std::fprintf(stderr, "sweep_cli: %s\n", error.c_str());
    return 2;
  }
  const SweepManifest manifest = GridManifest(grid);
  const std::string out_csv =
      opts.out.empty() ? JoinPath(opts.shard.dir, grid.name + ".csv") : opts.out;

  switch (opts.mode) {
    case Mode::kManifestOnly: {
      const std::string path = JoinPath(opts.shard.dir, grid.name + ".manifest");
      if (!manifest.Write(path, &error)) {
        std::fprintf(stderr, "sweep_cli: %s\n", error.c_str());
        return 1;
      }
      std::printf("sweep_cli: wrote %s (%zu points)\n", path.c_str(), manifest.points.size());
      return 0;
    }

    case Mode::kSingle: {
      if (!RunGridSingleProcess(grid, opts.shard.threads, out_csv, &error)) {
        std::fprintf(stderr, "sweep_cli: %s\n", error.c_str());
        return 1;
      }
      std::printf("sweep_cli: single-process %s (%zu points) -> %s\n", grid.name.c_str(),
                  grid.cases.size(), out_csv.c_str());
      return 0;
    }

    case Mode::kMerge: {
      if (!MergeShardDir(manifest, opts.shard.dir, opts.shard.shard_count, out_csv, &error)) {
        std::fprintf(stderr, "sweep_cli: %s\n", error.c_str());
        return 1;
      }
      std::printf("sweep_cli: merged %d shard(s) of %s -> %s\n", opts.shard.shard_count,
                  grid.name.c_str(), out_csv.c_str());
      return 0;
    }

    case Mode::kShard:
      break;
  }

  // Shard mode. The manifest is (re)written first so the artifact directory
  // is self-describing: a later --merge or an out-of-band inspection can
  // check hashes without rebuilding the binary's grid.
  const std::string manifest_path = JoinPath(opts.shard.dir, grid.name + ".manifest");
  if (!manifest.Write(manifest_path, &error)) {
    std::fprintf(stderr, "sweep_cli: %s\n", error.c_str());
    return 1;
  }

  ShardExecutor executor(manifest, opts.shard);
  const bool ok = executor.Run(
      [&grid](const ManifestPoint& point) { return grid.cases[point.index].run(); }, &error);

  const ShardStats& stats = executor.stats();
  std::printf(
      "sweep[%s]: shard %d/%d points_done=%llu points_skipped=%llu points_failed=%llu "
      "wall_ms=%llu -> %s\n",
      grid.name.c_str(), opts.shard.shard_index, opts.shard.shard_count,
      static_cast<unsigned long long>(stats.points_done),
      static_cast<unsigned long long>(stats.points_skipped),
      static_cast<unsigned long long>(stats.points_failed),
      static_cast<unsigned long long>(stats.shard_wall_ms), executor.CsvPath().c_str());

  if (opts.counters) {
    CounterRegistry registry;
    executor.RegisterCounters(&registry);
    for (size_t i = 0; i < registry.size(); ++i) {
      std::printf("%s=%.0f\n", registry.at(i).name.c_str(), registry.Read(i));
    }
  }

  if (!ok) {
    std::fprintf(stderr, "sweep_cli: %s\n", error.c_str());
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return Run(Parse(argc, argv)); }
