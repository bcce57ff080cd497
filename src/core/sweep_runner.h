// A thread-pool runner for parameter sweeps.
//
// Every figure in the paper is a grid of independent {ExperimentConfig,
// seed} points, and each Experiment owns a single-threaded, self-contained
// Simulator — no globals, no shared mutable state. That makes sweeps
// embarrassingly parallel: SweepRunner fans the points out over a pool of
// std::threads and writes each result into its own slot, so the output is a
// pure function of the inputs and is byte-identical for 1 or N workers (the
// determinism_test pins this).
//
// Thread count resolution: explicit argument > THEMIS_SWEEP_THREADS env var
// > std::thread::hardware_concurrency(). Pass 1 to force serial execution
// (useful when bisecting a sweep under a debugger).

#ifndef THEMIS_SRC_CORE_SWEEP_RUNNER_H_
#define THEMIS_SRC_CORE_SWEEP_RUNNER_H_

#include <atomic>
#include <exception>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/sim/parse_number.h"

namespace themis {

class SweepRunner {
 public:
  // `num_threads` <= 0 means auto (env var, then hardware concurrency).
  explicit SweepRunner(int num_threads = 0) : threads_(ResolveThreadCount(num_threads)) {}

  int threads() const { return threads_; }

  // Calls fn(i) for every i in [0, count), distributing indices over the
  // pool via an atomic work counter. Blocks until all items finish.
  //
  // Contract (the experiment service's shard executor leans on all three):
  //   * count == 0 is a no-op; count == 1 runs inline with no pool.
  //   * At most min(threads, count) workers are spawned, and every index is
  //     invoked exactly once — threads > count never double-runs an item.
  //   * A throwing item never aborts the sweep: every other index still
  //     runs, and the first exception (by completion order) is rethrown on
  //     the calling thread after the drain. Serial and parallel execution
  //     behave identically here, so results computed for non-throwing items
  //     survive regardless of thread count.
  template <typename Fn>
  void RunIndexed(size_t count, Fn&& fn) const {
    if (count == 0) {
      return;
    }
    const size_t workers = std::min(static_cast<size_t>(threads_), count);
    if (workers <= 1) {
      std::exception_ptr first_error;
      for (size_t i = 0; i < count; ++i) {
        try {
          fn(i);
        } catch (...) {
          if (!first_error) {
            first_error = std::current_exception();
          }
        }
      }
      if (first_error) {
        std::rethrow_exception(first_error);
      }
      return;
    }
    std::atomic<size_t> next{0};
    std::exception_ptr first_error;
    std::mutex error_mutex;
    auto worker = [&] {
      for (;;) {
        const size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= count) {
          return;
        }
        try {
          fn(i);
        } catch (...) {
          std::lock_guard<std::mutex> lock(error_mutex);
          if (!first_error) {
            first_error = std::current_exception();
          }
        }
      }
    };
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (size_t w = 0; w < workers; ++w) {
      pool.emplace_back(worker);
    }
    for (std::thread& t : pool) {
      t.join();
    }
    if (first_error) {
      std::rethrow_exception(first_error);
    }
  }

  // Maps fn over `items`, returning results in input order regardless of
  // which worker ran which item. fn must be callable concurrently from
  // multiple threads (it is, for anything that only touches its own item).
  template <typename Item, typename Fn>
  auto Map(const std::vector<Item>& items, Fn&& fn) const
      -> std::vector<std::invoke_result_t<Fn&, const Item&>> {
    std::vector<std::invoke_result_t<Fn&, const Item&>> results(items.size());
    RunIndexed(items.size(), [&](size_t i) { results[i] = fn(items[i]); });
    return results;
  }

  // The most workers THEMIS_SWEEP_THREADS (or sweep_cli --threads) may ask
  // for; every sweep point is a whole simulation, so more than this only
  // thrashes memory.
  static constexpr int kMaxThreads = 256;

  // A THEMIS_SWEEP_THREADS outside [0, kMaxThreads] (0 = auto) or with any
  // non-digit prints `THEMIS_SWEEP_THREADS='value': reason` and exits 1
  // before a thread is spawned.
  static int ResolveThreadCount(int requested) {
    if (requested > 0) {
      return requested;
    }
    int env = 0;
    if (NumberFromEnv("THEMIS_SWEEP_THREADS", 0, kMaxThreads, &env) && env > 0) {
      return env;
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? static_cast<int>(hw) : 1;
  }

 private:
  int threads_;
};

}  // namespace themis

#endif  // THEMIS_SRC_CORE_SWEEP_RUNNER_H_
