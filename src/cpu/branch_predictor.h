// Branch prediction model: a gshare-style table of 2-bit saturating counters.
// For the select loop's data-dependent branch this organically produces the
// mispredict behaviour the paper attributes to non-predicated CPU selects
// (§3.2): near-zero mispredicts at 0%/100% selectivity, worst at 50%.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace ndp::cpu {

struct BranchPredictorConfig {
  uint32_t mispredict_penalty_cycles = 12;
};

/// \brief gshare predictor with 2-bit counters.
class BranchPredictor {
 public:
  static constexpr uint32_t kTableBits = 12;   ///< 4096 counters
  static constexpr uint32_t kHistoryBits = 8;  ///< global history length

  explicit BranchPredictor(const BranchPredictorConfig& config)
      : config_(config),
        table_(size_t{1} << kTableBits, 1 /* weakly not-taken */) {}

  /// Predicts, updates with the actual outcome, and reports correctness.
  bool PredictAndUpdate(uint64_t pc, bool taken) {
    size_t idx = Index(pc);
    bool predicted = table_[idx] >= 2;
    // Update 2-bit counter.
    if (taken && table_[idx] < 3) ++table_[idx];
    if (!taken && table_[idx] > 0) --table_[idx];
    // Update global history.
    history_ = ((history_ << 1) | (taken ? 1 : 0)) &
               ((uint64_t{1} << kHistoryBits) - 1);
    if (predicted == taken) {
      ++correct_;
      return true;
    }
    ++mispredicts_;
    return false;
  }

  uint64_t mispredicts() const { return mispredicts_; }
  uint64_t correct() const { return correct_; }
  const BranchPredictorConfig& config() const { return config_; }

  // ndp-lint: test-only-ok tests reset the table between training phases
  void Reset() {
    std::fill(table_.begin(), table_.end(), 1);
    history_ = 0;
    mispredicts_ = 0;
    correct_ = 0;
  }

 private:
  size_t Index(uint64_t pc) const {
    return static_cast<size_t>(((pc >> 2) ^ history_) & (table_.size() - 1));
  }

  BranchPredictorConfig config_;
  std::vector<uint8_t> table_;
  uint64_t history_ = 0;
  uint64_t mispredicts_ = 0;
  uint64_t correct_ = 0;
};

}  // namespace ndp::cpu
