#include "util/stats_registry.h"

#include <cmath>
#include <cstdio>

#include "util/macros.h"

namespace ndp {

StatsSnapshot StatsSnapshot::DeltaSince(const StatsSnapshot& before) const {
  StatsSnapshot delta;
  for (const auto& [path, entry] : entries_) {
    Entry d = entry;
    if (entry.monotonic) {
      auto it = before.entries_.find(path);
      if (it != before.entries_.end()) d.value -= it->second.value;
    }
    delta.entries_.emplace(path, d);
  }
  return delta;
}

std::string StatsSnapshot::ToText() const {
  std::string out;
  char line[192];
  for (const auto& [path, entry] : entries_) {
    double v = entry.value;
    if (v == std::floor(v) && std::fabs(v) < 9007199254740992.0) {
      std::snprintf(line, sizeof(line), "%-48s %lld\n", path.c_str(),
                    static_cast<long long>(v));
    } else {
      std::snprintf(line, sizeof(line), "%-48s %.3f\n", path.c_str(), v);
    }
    out += line;
  }
  return out;
}

json::Value StatsSnapshot::ToJson() const {
  json::Value obj = json::Value::Object();
  for (const auto& [path, entry] : entries_) {
    obj.Set(path, json::Value::Number(entry.value));
  }
  return obj;
}

Status StatsRegistry::Add(std::string path, Stat stat) {
  if (path.empty()) {
    return Status::InvalidArgument("stat path must not be empty");
  }
  auto [it, inserted] = stats_.emplace(std::move(path), std::move(stat));
  if (!inserted) {
    return Status::AlreadyExists("stat path already registered: " + it->first);
  }
  return Status::OK();
}

Status StatsRegistry::RegisterCounter(std::string path, const uint64_t* cell) {
  NDP_CHECK(cell != nullptr);
  return Add(std::move(path), Stat{Source{cell}, /*monotonic=*/true});
}

Status StatsRegistry::RegisterCounter(std::string path,
                                      std::function<uint64_t()> fn) {
  NDP_CHECK(fn != nullptr);
  return Add(std::move(path), Stat{Source{std::move(fn)}, /*monotonic=*/true});
}

Status StatsRegistry::RegisterCounter(std::string path, const double* cell) {
  NDP_CHECK(cell != nullptr);
  return Add(std::move(path), Stat{Source{cell}, /*monotonic=*/true});
}

Status StatsRegistry::RegisterGauge(std::string path, const uint64_t* cell) {
  NDP_CHECK(cell != nullptr);
  return Add(std::move(path), Stat{Source{cell}, /*monotonic=*/false});
}

Status StatsRegistry::RegisterGauge(std::string path,
                                    std::function<double()> fn) {
  NDP_CHECK(fn != nullptr);
  return Add(std::move(path), Stat{Source{std::move(fn)}, /*monotonic=*/false});
}

Status StatsRegistry::RegisterHistogram(std::string path,
                                        const Histogram* hist) {
  NDP_CHECK(hist != nullptr);
  return Add(std::move(path), Stat{Source{HistSource{hist}}, false});
}

StatsSnapshot StatsRegistry::Snapshot() const {
  StatsSnapshot snap;
  auto& out = snap.mutable_entries();
  for (const auto& [path, stat] : stats_) {
    if (const auto* hs = std::get_if<HistSource>(&stat.source)) {
      const RunningStats& rs = hs->hist->stats();
      out[path + ".count"] = {static_cast<double>(rs.count()), true};
      out[path + ".sum"] = {rs.sum(), true};
      out[path + ".mean"] = {rs.mean(), false};
      out[path + ".p50"] = {hs->hist->Quantile(0.50), false};
      out[path + ".p90"] = {hs->hist->Quantile(0.90), false};
      out[path + ".p99"] = {hs->hist->Quantile(0.99), false};
      continue;
    }
    StatsSnapshot::Entry e;
    e.monotonic = stat.monotonic;
    if (const auto* cell = std::get_if<const uint64_t*>(&stat.source)) {
      e.value = static_cast<double>(**cell);
    } else if (const auto* dcell = std::get_if<const double*>(&stat.source)) {
      e.value = **dcell;
    } else if (const auto* ufn =
                   std::get_if<std::function<uint64_t()>>(&stat.source)) {
      e.value = static_cast<double>((*ufn)());
    } else {
      e.value = std::get<std::function<double()>>(stat.source)();
    }
    out[path] = e;
  }
  return snap;
}

double StatsRegistry::ReadValue(const std::string& path,
                                double fallback) const {
  auto eval = [](const Stat& stat) {
    if (const auto* cell = std::get_if<const uint64_t*>(&stat.source)) {
      return static_cast<double>(**cell);
    }
    if (const auto* dcell = std::get_if<const double*>(&stat.source)) {
      return **dcell;
    }
    if (const auto* ufn = std::get_if<std::function<uint64_t()>>(&stat.source)) {
      return static_cast<double>((*ufn)());
    }
    return std::get<std::function<double()>>(stat.source)();
  };
  auto it = stats_.find(path);
  if (it != stats_.end()) {
    if (std::get_if<HistSource>(&it->second.source) != nullptr) {
      return fallback;  // a bare histogram path has no scalar value
    }
    return eval(it->second);
  }
  // "<hist>.<field>": the histogram is registered under the parent path.
  size_t dot = path.rfind('.');
  if (dot == std::string::npos) return fallback;
  auto parent = stats_.find(path.substr(0, dot));
  if (parent == stats_.end()) return fallback;
  const auto* hs = std::get_if<HistSource>(&parent->second.source);
  if (hs == nullptr) return fallback;
  std::string field = path.substr(dot + 1);
  const RunningStats& rs = hs->hist->stats();
  if (field == "count") return static_cast<double>(rs.count());
  if (field == "sum") return rs.sum();
  if (field == "mean") return rs.mean();
  if (field == "p50") return hs->hist->Quantile(0.50);
  if (field == "p90") return hs->hist->Quantile(0.90);
  if (field == "p99") return hs->hist->Quantile(0.99);
  return fallback;
}

void StatsScope::Counter(std::string_view name, const uint64_t* cell) const {
  if (!registry_) return;
  NDP_CHECK(registry_->RegisterCounter(Path(name), cell).ok());
}

void StatsScope::Counter(std::string_view name,
                         std::function<uint64_t()> fn) const {
  if (!registry_) return;
  NDP_CHECK(registry_->RegisterCounter(Path(name), std::move(fn)).ok());
}

void StatsScope::Counter(std::string_view name, const double* cell) const {
  if (!registry_) return;
  NDP_CHECK(registry_->RegisterCounter(Path(name), cell).ok());
}

void StatsScope::Gauge(std::string_view name, const uint64_t* cell) const {
  if (!registry_) return;
  NDP_CHECK(registry_->RegisterGauge(Path(name), cell).ok());
}

void StatsScope::Gauge(std::string_view name,
                       std::function<double()> fn) const {
  if (!registry_) return;
  NDP_CHECK(registry_->RegisterGauge(Path(name), std::move(fn)).ok());
}

void StatsScope::Histogram(std::string_view name,
                           const ndp::Histogram* hist) const {
  if (!registry_) return;
  NDP_CHECK(registry_->RegisterHistogram(Path(name), hist).ok());
}

}  // namespace ndp
