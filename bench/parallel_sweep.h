// Deterministic parallel sweep harness for the benchmark drivers.
//
// Each sweep point builds its own SystemModel + EventQueue, so points share no
// mutable state and every point's simulation is bit-identical no matter how
// many threads run it or in what order they claim points. Results are
// collected into a vector indexed by point and printed by the caller in point
// order after the join, so stdout is also byte-identical across thread counts
// (the property the BENCH determinism check relies on).
//
// Every sweep spawns its own threads and joins them before it returns: a bench
// program runs one sweep of points that each simulate for milliseconds to
// seconds, so spawning a handful of threads per sweep costs nothing it could
// measure, and a sweep nested inside a point just spawns threads of its own.
#pragma once

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "bench/bench_util.h"

namespace ndp::bench {

/// Thread count for sweeps: NDP_BENCH_THREADS if set (0 means serial, i.e.
/// 1), else the hardware concurrency.
inline unsigned SweepThreads() {
  uint64_t n = EnvU64("NDP_BENCH_THREADS", 0);
  if (n == 0) {
    unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : hw;
  }
  return static_cast<unsigned>(n);
}

/// Runs `fn(point_index)` for every index in [0, num_points) on
/// min(num_threads, num_points) threads (the caller is one of them), which
/// claim points from one shared ticket, and returns the results in point
/// order. `fn` must be self-contained per point: it builds its own model state
/// and returns a result value; it must not touch shared mutable state (stdout
/// included — print from the returned results instead).
template <typename Result, typename Fn>
std::vector<Result> ParallelSweep(size_t num_points, Fn&& fn,
                                  unsigned num_threads = SweepThreads()) {
  std::vector<Result> results(num_points);
  std::atomic<size_t> next_point{0};
  auto drain = [&] {
    for (size_t i = next_point++; i < num_points; i = next_point++) {
      results[i] = fn(i);
    }
  };
  std::vector<std::thread> threads;
  for (size_t t = 1; t < num_threads && t < num_points; ++t) {
    threads.emplace_back(drain);
  }
  drain();
  for (std::thread& t : threads) t.join();
  return results;
}

}  // namespace ndp::bench
