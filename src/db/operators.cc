#include "db/operators.h"

#include <algorithm>
#include <queue>
#include <unordered_map>

#include "util/logging.h"

namespace ndp::db {

namespace {
// Trace-model compute costs, in µops per value, mirroring the µop structure
// of cpu::SelectScanStream and friends.
constexpr uint64_t kSelectComputeUops = 5;
constexpr uint64_t kGatherComputeUops = 3;
constexpr uint64_t kHashBuildUops = 12;
constexpr uint64_t kHashProbeUops = 10;
constexpr uint64_t kAggUops = 3;
constexpr uint64_t kGroupAggUops = 8;
}  // namespace

// Pushdown declines split into "the device broke" (IsDeviceFault: a
// dispatched JAFAR job failed past its retry budget, or the breaker is open)
// vs. "not applicable" (unsupported predicate, planner said CPU is cheaper).
// The former is the graceful-degradation path and gets its own operator stat.

PositionList ScanSelect(QueryContext* ctx, const Column& col, const Pred& pred) {
  bool device_fallback = false;
  if (ctx->ndp_select) {
    auto pushed = ctx->ndp_select(col, pred);
    if (pushed.ok()) {
      ctx->Record("scan_select[jafar]", col.size(), pushed.value().size());
      return std::move(pushed).value();
    }
    device_fallback = IsDeviceFault(pushed.status().code());
    NDP_LOG_DEBUG("NDP pushdown declined, CPU fallback: %s",
                  pushed.status().ToString().c_str());
  }
  PositionList out;
  out.reserve(col.size() / 4);
  uint64_t col_base = 0, out_base = 0;
  if (ctx->trace) {
    col_base = ctx->trace->LayoutColumn(col);
    out_base = ctx->trace->AllocRegion(col.size() * 4, "positions");
  }
  const int64_t* data = col.data();
  const size_t n = col.size();
  if (ctx->select_mode == SelectMode::kPredicated) {
    out.resize(n);
    size_t k = 0;
    for (size_t i = 0; i < n; ++i) {
      out[k] = static_cast<uint32_t>(i);
      k += pred.Eval(data[i]) ? 1 : 0;
      if (ctx->trace) {
        ctx->trace->Compute(kSelectComputeUops + 1);
        ctx->trace->Load(col_base + i * 8);
        ctx->trace->Store(out_base + k * 4);
      }
    }
    out.resize(k);
  } else {
    for (size_t i = 0; i < n; ++i) {
      if (ctx->trace) {
        ctx->trace->Compute(kSelectComputeUops);
        ctx->trace->Load(col_base + i * 8);
      }
      if (pred.Eval(data[i])) {
        out.push_back(static_cast<uint32_t>(i));
        if (ctx->trace) ctx->trace->Store(out_base + out.size() * 4);
      }
    }
  }
  ctx->Record(device_fallback ? "scan_select[cpu_fallback]" : "scan_select", n,
              out.size());
  return out;
}

PositionList Refine(QueryContext* ctx, const Column& col, const Pred& pred,
                    const PositionList& positions) {
  PositionList out;
  out.reserve(positions.size());
  uint64_t col_base = ctx->trace ? ctx->trace->LayoutColumn(col) : 0;
  uint64_t pos_base =
      ctx->trace ? ctx->trace->AllocRegion(positions.size() * 4, "pos") : 0;
  for (size_t j = 0; j < positions.size(); ++j) {
    uint32_t p = positions[j];
    if (ctx->trace) {
      ctx->trace->Compute(kSelectComputeUops);
      ctx->trace->Load(pos_base + j * 4);
      ctx->trace->Load(col_base + static_cast<uint64_t>(p) * 8);
    }
    if (pred.Eval(col[p])) out.push_back(p);
  }
  ctx->Record("refine", positions.size(), out.size());
  return out;
}

std::vector<int64_t> Gather(QueryContext* ctx, const Column& col,
                            const PositionList& positions) {
  std::vector<int64_t> out;
  out.reserve(positions.size());
  uint64_t col_base = ctx->trace ? ctx->trace->LayoutColumn(col) : 0;
  uint64_t out_base =
      ctx->trace ? ctx->trace->AllocRegion(positions.size() * 8, "mat") : 0;
  for (size_t j = 0; j < positions.size(); ++j) {
    uint32_t p = positions[j];
    out.push_back(col[p]);
    if (ctx->trace) {
      ctx->trace->Compute(kGatherComputeUops);
      ctx->trace->Load(col_base + static_cast<uint64_t>(p) * 8);
      ctx->trace->Store(out_base + j * 8);
    }
  }
  ctx->Record("gather[" + col.name() + "]", positions.size(), out.size());
  return out;
}

JoinResult HashJoin(QueryContext* ctx, const Column& left_col,
                    const PositionList& left_pos, const Column& right_col,
                    const PositionList& right_pos) {
  JoinResult out;
  std::unordered_multimap<int64_t, uint32_t> ht;
  ht.reserve(left_pos.size());
  uint64_t ht_base =
      ctx->trace ? ctx->trace->AllocRegion(left_pos.size() * 16, "hashtable") : 0;
  uint64_t left_base = ctx->trace ? ctx->trace->LayoutColumn(left_col) : 0;
  uint64_t right_base = ctx->trace ? ctx->trace->LayoutColumn(right_col) : 0;
  uint64_t ht_slots = std::max<uint64_t>(1, left_pos.size());
  for (uint32_t p : left_pos) {
    int64_t key = left_col[p];
    ht.emplace(key, p);
    if (ctx->trace) {
      ctx->trace->Compute(kHashBuildUops);
      ctx->trace->Load(left_base + static_cast<uint64_t>(p) * 8);
      ctx->trace->Store(ht_base +
                        (static_cast<uint64_t>(key) % ht_slots) * 16);
    }
  }
  for (uint32_t p : right_pos) {
    int64_t key = right_col[p];
    if (ctx->trace) {
      ctx->trace->Compute(kHashProbeUops);
      ctx->trace->Load(right_base + static_cast<uint64_t>(p) * 8);
      ctx->trace->Load(ht_base + (static_cast<uint64_t>(key) % ht_slots) * 16);
    }
    auto [first, last] = ht.equal_range(key);
    for (auto it = first; it != last; ++it) {
      out.left.push_back(it->second);
      out.right.push_back(p);
    }
  }
  ctx->Record("hash_join", left_pos.size() + right_pos.size(),
              out.left.size());
  return out;
}

PositionList HashSemiJoin(QueryContext* ctx, const Column& build_col,
                          const PositionList& build_pos,
                          const Column& probe_col,
                          const PositionList& probe_pos, bool anti) {
  bool device_fallback = false;
  if (!anti && ctx->ndp_semi_join) {
    auto pushed =
        ctx->ndp_semi_join(build_col, build_pos, probe_col, probe_pos);
    if (pushed.ok()) {
      ctx->Record("semi_join[jafar]", build_pos.size() + probe_pos.size(),
                  pushed.value().size());
      return std::move(pushed).value();
    }
    device_fallback = IsDeviceFault(pushed.status().code());
    NDP_LOG_DEBUG("NDP semijoin declined, CPU fallback: %s",
                  pushed.status().ToString().c_str());
  }
  std::unordered_map<int64_t, bool> keys;
  keys.reserve(build_pos.size());
  uint64_t ht_base =
      ctx->trace ? ctx->trace->AllocRegion(build_pos.size() * 16, "semiht") : 0;
  uint64_t build_base = ctx->trace ? ctx->trace->LayoutColumn(build_col) : 0;
  uint64_t probe_base = ctx->trace ? ctx->trace->LayoutColumn(probe_col) : 0;
  uint64_t slots = std::max<uint64_t>(1, build_pos.size());
  for (uint32_t p : build_pos) {
    keys.emplace(build_col[p], true);
    if (ctx->trace) {
      ctx->trace->Compute(kHashBuildUops);
      ctx->trace->Load(build_base + static_cast<uint64_t>(p) * 8);
      ctx->trace->Store(
          ht_base + (static_cast<uint64_t>(build_col[p]) % slots) * 16);
    }
  }
  PositionList out;
  for (uint32_t p : probe_pos) {
    if (ctx->trace) {
      ctx->trace->Compute(kHashProbeUops);
      ctx->trace->Load(probe_base + static_cast<uint64_t>(p) * 8);
      ctx->trace->Load(ht_base +
                       (static_cast<uint64_t>(probe_col[p]) % slots) * 16);
    }
    bool found = keys.count(probe_col[p]) != 0;
    if (found != anti) out.push_back(p);
  }
  ctx->Record(anti ? "anti_join"
                   : (device_fallback ? "semi_join[cpu_fallback]"
                                      : "semi_join"),
              build_pos.size() + probe_pos.size(), out.size());
  return out;
}

int64_t Aggregate(QueryContext* ctx, AggFn fn, const std::vector<int64_t>& v) {
  uint64_t base = ctx->trace ? ctx->trace->AllocRegion(v.size() * 8, "agg") : 0;
  int64_t acc = 0;
  switch (fn) {
    case AggFn::kSum:
    case AggFn::kAvgNum:
    case AggFn::kCount: acc = 0; break;
    case AggFn::kMin: acc = INT64_MAX; break;
    case AggFn::kMax: acc = INT64_MIN; break;
  }
  for (size_t i = 0; i < v.size(); ++i) {
    if (ctx->trace) {
      ctx->trace->Compute(kAggUops);
      ctx->trace->Load(base + i * 8);
    }
    switch (fn) {
      case AggFn::kSum:
      case AggFn::kAvgNum: acc += v[i]; break;
      case AggFn::kCount: acc += 1; break;
      case AggFn::kMin: acc = std::min(acc, v[i]); break;
      case AggFn::kMax: acc = std::max(acc, v[i]); break;
    }
  }
  ctx->Record("aggregate", v.size(), 1);
  return acc;
}

std::map<int64_t, std::vector<int64_t>> GroupAggregate(
    QueryContext* ctx, const std::vector<int64_t>& keys,
    const std::vector<AggSpec>& specs) {
  for (const AggSpec& s : specs) {
    NDP_CHECK(s.fn == AggFn::kCount ||
              (s.input != nullptr && s.input->size() == keys.size()));
  }
  std::map<int64_t, std::vector<int64_t>> groups;
  uint64_t ht_base = ctx->trace ? ctx->trace->AllocRegion(4096 * 64, "groups") : 0;
  for (size_t i = 0; i < keys.size(); ++i) {
    if (ctx->trace) {
      ctx->trace->Compute(kGroupAggUops * specs.size());
      ctx->trace->Load(ht_base + (static_cast<uint64_t>(keys[i]) % 4096) * 64);
      ctx->trace->Store(ht_base + (static_cast<uint64_t>(keys[i]) % 4096) * 64);
    }
    auto it = groups.find(keys[i]);
    if (it == groups.end()) {
      std::vector<int64_t> init;
      for (const AggSpec& s : specs) {
        switch (s.fn) {
          case AggFn::kSum:
          case AggFn::kAvgNum:
          case AggFn::kCount: init.push_back(0); break;
          case AggFn::kMin: init.push_back(INT64_MAX); break;
          case AggFn::kMax: init.push_back(INT64_MIN); break;
        }
      }
      it = groups.emplace(keys[i], std::move(init)).first;
    }
    for (size_t s = 0; s < specs.size(); ++s) {
      int64_t v = specs[s].input ? (*specs[s].input)[i] : 0;
      switch (specs[s].fn) {
        case AggFn::kSum:
        case AggFn::kAvgNum: it->second[s] += v; break;
        case AggFn::kCount: it->second[s] += 1; break;
        case AggFn::kMin: it->second[s] = std::min(it->second[s], v); break;
        case AggFn::kMax: it->second[s] = std::max(it->second[s], v); break;
      }
    }
  }
  ctx->Record("group_aggregate", keys.size(), groups.size());
  return groups;
}

std::map<int64_t, std::pair<int64_t, int64_t>> GroupSumFullColumn(
    QueryContext* ctx, const Column& key_col, const Column& val_col) {
  NDP_CHECK(key_col.size() == val_col.size());
  bool device_fallback = false;
  if (ctx->ndp_group_by) {
    auto pushed = ctx->ndp_group_by(key_col, val_col);
    if (pushed.ok()) {
      ctx->Record("group_aggregate[jafar]", key_col.size(),
                  pushed.value().size());
      return std::move(pushed).value();
    }
    device_fallback = IsDeviceFault(pushed.status().code());
    NDP_LOG_DEBUG("NDP group-by declined, CPU fallback: %s",
                  pushed.status().ToString().c_str());
  }
  std::map<int64_t, std::pair<int64_t, int64_t>> groups;
  uint64_t key_base = ctx->trace ? ctx->trace->LayoutColumn(key_col) : 0;
  uint64_t val_base = ctx->trace ? ctx->trace->LayoutColumn(val_col) : 0;
  uint64_t ht_base =
      ctx->trace ? ctx->trace->AllocRegion(4096 * 64, "groups") : 0;
  for (size_t i = 0; i < key_col.size(); ++i) {
    if (ctx->trace) {
      ctx->trace->Compute(kGroupAggUops);
      ctx->trace->Load(key_base + i * 8);
      ctx->trace->Load(val_base + i * 8);
      ctx->trace->Load(ht_base + (static_cast<uint64_t>(key_col[i]) % 4096) * 64);
      ctx->trace->Store(ht_base + (static_cast<uint64_t>(key_col[i]) % 4096) * 64);
    }
    auto& slot = groups[key_col[i]];
    slot.first += val_col[i];
    slot.second += 1;
  }
  ctx->Record(device_fallback ? "group_aggregate[cpu_fallback]"
                              : "group_aggregate",
              key_col.size(), groups.size());
  return groups;
}

std::vector<int64_t> MergeSortedRuns(
    QueryContext* ctx, const std::vector<std::vector<int64_t>>& runs) {
  // Heap-based k-way merge: (value, run, offset).
  using Entry = std::tuple<int64_t, size_t, size_t>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;
  size_t total = 0;
  for (size_t r = 0; r < runs.size(); ++r) {
    total += runs[r].size();
    if (!runs[r].empty()) heap.emplace(runs[r][0], r, 0);
  }
  std::vector<int64_t> out;
  out.reserve(total);
  uint64_t out_base = ctx->trace ? ctx->trace->AllocRegion(total * 8, "merge") : 0;
  while (!heap.empty()) {
    auto [v, r, off] = heap.top();
    heap.pop();
    out.push_back(v);
    if (ctx->trace) {
      ctx->trace->Compute(6);  // heap sift + cursor updates
      ctx->trace->Load(out_base + off * 8);
      ctx->trace->Store(out_base + (out.size() - 1) * 8);
    }
    if (off + 1 < runs[r].size()) heap.emplace(runs[r][off + 1], r, off + 1);
  }
  ctx->Record("merge_runs", total, out.size());
  return out;
}

BitVector PositionsToBitmap(const PositionList& positions, size_t num_rows) {
  BitVector bm(num_rows);
  for (uint32_t p : positions) bm.Set(p);
  return bm;
}

PositionList BitmapToPositions(const BitVector& bm) {
  PositionList out;
  out.reserve(bm.CountOnes());
  bm.AppendSetPositions(&out);
  return out;
}

}  // namespace ndp::db
