// Hierarchical statistics registry (gem5-style dotted paths): every
// simulation component registers its counters, gauges, and histograms under a
// stable path like "system.dram.ctrl0.rc_busy_cycles" at construction time.
//
// Design constraints, in order:
//   1. Free on the hot path. Components keep incrementing the plain uint64_t
//      fields of their existing *Stats structs; the registry only stores
//      pointers (or thunks) to those cells. Registration cost is paid once,
//      at construction.
//   2. Runs never mutate shared counters. Timed regions take a StatsSnapshot
//      before and after; the per-run result is the delta. Nothing calls
//      Reset*() between runs, so nested and repeated runs compose.
//   3. Deterministic output. Walks are in sorted path order, so two identical
//      simulations produce byte-identical dumps.
//
// Lifetime: the registry reads through the registered pointers at snapshot /
// dump time. Owners must keep the backing cells alive for as long as the
// registry is read (SystemModel declares its registry before its components,
// so the components are destroyed first but the registry is never read after).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <variant>

#include "util/json.h"
#include "util/stats.h"
#include "util/status.h"

namespace ndp {

/// \brief Point-in-time capture of every scalar stat in a registry.
///
/// Counters (monotonic) subtract under DeltaSince; gauges (level values like
/// a per-run max or a histogram mean) carry the "after" value through.
class StatsSnapshot {
 public:
  struct Entry {
    double value = 0.0;
    bool monotonic = true;  ///< counter: delta = after - before
  };
  using Map = std::map<std::string, Entry>;

  // ndp-lint: test-only-ok tests probe snapshot paths
  bool Has(const std::string& path) const { return entries_.count(path) > 0; }
  /// Value at `path`, or `fallback` when absent.
  double Value(const std::string& path, double fallback = 0.0) const {
    auto it = entries_.find(path);
    return it == entries_.end() ? fallback : it->second.value;
  }
  uint64_t Count(const std::string& path) const {
    return static_cast<uint64_t>(Value(path));
  }

  /// Per-run delta: counters are subtracted entry-wise (a path missing from
  /// `before` counts from zero), gauges keep this snapshot's value.
  StatsSnapshot DeltaSince(const StatsSnapshot& before) const;

  /// "path value" lines in sorted path order.
  std::string ToText() const;
  /// Flat JSON object {path: value}, sorted path order.
  json::Value ToJson() const;

  const Map& entries() const { return entries_; }
  Map& mutable_entries() { return entries_; }
  size_t size() const { return entries_.size(); }

 private:
  Map entries_;
};

/// \brief The registry: dotted-path name -> stat source.
class StatsRegistry {
 public:
  StatsRegistry() = default;
  StatsRegistry(const StatsRegistry&) = delete;
  StatsRegistry& operator=(const StatsRegistry&) = delete;

  // -- Registration (once, at component construction). Rejects empty and
  //    duplicate paths with InvalidArgument / AlreadyExists. ----------------

  /// Monotonic counter backed by a component-owned cell.
  Status RegisterCounter(std::string path, const uint64_t* cell);
  /// Monotonic counter computed on demand (e.g. busy time settled to "now").
  Status RegisterCounter(std::string path, std::function<uint64_t()> fn);
  /// Monotonic accumulator with fractional units (e.g. energy in fJ).
  Status RegisterCounter(std::string path, const double* cell);
  /// Level value: snapshot deltas report the "after" value unchanged.
  Status RegisterGauge(std::string path, const uint64_t* cell);
  Status RegisterGauge(std::string path, std::function<double()> fn);
  /// Histogram: expands to <path>.count/.sum (counters) and
  /// <path>.mean/.p50/.p90/.p99 (gauges) in snapshots and dumps.
  Status RegisterHistogram(std::string path, const Histogram* hist);

  // ndp-lint: test-only-ok stats_coverage_test pins the registered paths
  bool Contains(const std::string& path) const { return stats_.count(path) > 0; }
  size_t size() const { return stats_.size(); }

  // -- Walks ----------------------------------------------------------------

  StatsSnapshot Snapshot() const;
  /// Live read of a single stat by path, without walking the whole registry
  /// (the online scheduling path samples controller counters once per host
  /// window). Histogram sub-paths resolve like snapshot entries:
  /// "<hist>.count/.sum/.mean/.p50/.p90/.p99". Returns `fallback` when the
  /// path names nothing.
  double ReadValue(const std::string& path, double fallback = 0.0) const;
  /// "path value" lines in sorted path order (the DumpStats() body).
  std::string DumpText() const { return Snapshot().ToText(); }
  /// Flat JSON object {path: value}.
  // ndp-lint: test-only-ok determinism tests compare the registry as JSON
  json::Value DumpJson() const { return Snapshot().ToJson(); }

 private:
  struct HistSource {
    const Histogram* hist;
  };
  using Source = std::variant<const uint64_t*, const double*,
                              std::function<uint64_t()>,
                              std::function<double()>, HistSource>;
  struct Stat {
    Source source;
    bool monotonic = true;
  };

  Status Add(std::string path, Stat stat);

  std::map<std::string, Stat> stats_;
};

/// \brief A registry handle carrying a path prefix; components register
/// relative names through it. A default-constructed scope is inert, so every
/// component can be built without a registry (tests, throwaway models).
class StatsScope {
 public:
  StatsScope() = default;
  StatsScope(StatsRegistry* registry, std::string prefix)
      : registry_(registry), prefix_(std::move(prefix)) {}

  bool active() const { return registry_ != nullptr; }
  const std::string& prefix() const { return prefix_; }

  /// Child scope: "<prefix>.<name>".
  StatsScope Sub(std::string_view name) const {
    return StatsScope(registry_, Path(name));
  }

  // Registration helpers. Component stat names are compile-time constants, so
  // a duplicate means two components were mounted at one path — a wiring bug;
  // these check-fail rather than return a Status every caller would ignore.
  void Counter(std::string_view name, const uint64_t* cell) const;
  void Counter(std::string_view name, std::function<uint64_t()> fn) const;
  void Counter(std::string_view name, const double* cell) const;
  void Gauge(std::string_view name, const uint64_t* cell) const;
  void Gauge(std::string_view name, std::function<double()> fn) const;
  void Histogram(std::string_view name, const ndp::Histogram* hist) const;

 private:
  std::string Path(std::string_view name) const {
    return prefix_.empty() ? std::string(name) : prefix_ + "." + std::string(name);
  }

  StatsRegistry* registry_ = nullptr;
  std::string prefix_;
};

}  // namespace ndp
