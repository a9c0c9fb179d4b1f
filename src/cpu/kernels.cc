#include "cpu/kernels.h"

namespace ndp::cpu {

bool SelectScanStream::Next(Uop* uop) {
  for (;;) {
    if (row_ >= num_rows_) return false;
    Uop u;
    switch (step_) {
      case 0:  // load col[row]
        u.type = UopType::kLoad;
        u.addr = col_base_ + row_ * elem_bytes_;
        pass_ = values_[row_] >= lo_ && values_[row_] <= hi_;
        break;
      case 1:  // cmp >= lo (depends on the load)
        u.type = UopType::kAlu;
        u.dep_distance = 1;
        break;
      case 2:  // cmp <= hi (depends on the load, two µops back)
        u.type = UopType::kAlu;
        u.dep_distance = 2;
        break;
      case 3:  // and of the two compares
        u.type = UopType::kAlu;
        u.dep_distance = 1;
        break;
      case 4:
        if (predicated_) {
          // Unconditional store of the candidate position; the position-list
          // cursor advances by `pass` with no control dependence.
          u.type = UopType::kStore;
          u.addr = out_base_ + matches_ * 4;
        } else {
          u.type = UopType::kBranch;
          u.pc = kPredicateBranchPc;
          u.taken = pass_;
          u.dep_distance = 1;  // depends on the and
        }
        break;
      case 5:
        if (predicated_) {
          // count += pass (data dependence on the and, 2 µops back).
          u.type = UopType::kAlu;
          u.dep_distance = 2;
          if (pass_) ++matches_;
        } else if (pass_) {
          u.type = UopType::kAlu;  // position-list address computation
        } else {
          step_ = 9;
          continue;  // branch fell through: no bookkeeping µops
        }
        break;
      case 6:
        if (predicated_) {
          u.type = UopType::kAlu;  // cursor address computation
        } else {
          u.type = UopType::kStore;  // out[count] = row
          u.addr = out_base_ + matches_ * 4;
        }
        break;
      case 7:
        if (predicated_) {
          ++step_;
          continue;  // cursor advance already accounted in case 5
        }
        u.type = UopType::kAlu;  // count++
        ++matches_;
        break;
      case 8:
        if (!predicated_ && pass_) {
          u.type = UopType::kAlu;  // pack/extend of the recorded position
        } else {
          ++step_;
          continue;
        }
        break;
      case 9:  // i++
        u.type = UopType::kAlu;
        break;
      case 10:  // loop-back branch, strongly biased taken
        u.type = UopType::kBranch;
        u.pc = kLoopBranchPc;
        u.taken = row_ + 1 < num_rows_;
        break;
      default:
        step_ = 0;
        ++row_;
        continue;
    }
    ++step_;
    if (step_ > 10) {
      step_ = 0;
      ++row_;
    }
    *uop = u;
    return true;
  }
}

bool AggregateScanStream::Next(Uop* uop) {
  for (;;) {
    if (row_ >= num_rows_) return false;
    Uop u;
    switch (step_) {
      case 0:
        u.type = UopType::kLoad;
        u.addr = col_base_ + row_ * elem_bytes_;
        break;
      case 1:  // acc += value (depends on the load)
        u.type = UopType::kAlu;
        u.dep_distance = 1;
        break;
      case 2:  // i++
        u.type = UopType::kAlu;
        break;
      case 3:
        u.type = UopType::kBranch;
        u.pc = kLoopBranchPc;
        u.taken = row_ + 1 < num_rows_;
        break;
      default:
        step_ = 0;
        ++row_;
        continue;
    }
    ++step_;
    if (step_ > 3) {
      step_ = 0;
      ++row_;
    }
    *uop = u;
    return true;
  }
}

bool ProjectGatherStream::Next(Uop* uop) {
  for (;;) {
    if (j_ >= num_positions_) return false;
    Uop u;
    switch (step_) {
      case 0:  // load pos[j]
        u.type = UopType::kLoad;
        u.addr = pos_base_ + j_ * 4;
        break;
      case 1:  // load col[pos[j]] — address depends on the previous load
        u.type = UopType::kLoad;
        u.addr = col_base_ + static_cast<uint64_t>(positions_[j_]) * elem_bytes_;
        u.dep_distance = 1;
        break;
      case 2:  // store out[j]
        u.type = UopType::kStore;
        u.addr = out_base_ + j_ * elem_bytes_;
        break;
      case 3:  // j++
        u.type = UopType::kAlu;
        break;
      case 4:
        u.type = UopType::kBranch;
        u.pc = kLoopBranchPc;
        u.taken = j_ + 1 < num_positions_;
        break;
      default:
        step_ = 0;
        ++j_;
        continue;
    }
    ++step_;
    if (step_ > 4) {
      step_ = 0;
      ++j_;
    }
    *uop = u;
    return true;
  }
}

bool GroupByScanStream::Next(Uop* uop) {
  for (;;) {
    if (row_ >= num_rows_) return false;
    uint64_t bucket =
        static_cast<uint64_t>(keys_[row_]) % num_buckets_;
    Uop u;
    switch (step_) {
      case 0:  // load key
        u.type = UopType::kLoad;
        u.addr = key_base_ + row_ * 8;
        break;
      case 1:  // load value
        u.type = UopType::kLoad;
        u.addr = val_base_ + row_ * 8;
        break;
      case 2:  // hash (depends on the key load)
        u.type = UopType::kAlu;
        u.dep_distance = 2;
        break;
      case 3:  // bucket line load: address depends on the hash
        u.type = UopType::kLoad;
        u.addr = ht_base_ + bucket * 16;
        u.dep_distance = 1;
        break;
      case 4:  // accumulate (depends on bucket + value)
        u.type = UopType::kAlu;
        u.dep_distance = 1;
        break;
      case 5:  // store the bucket back
        u.type = UopType::kStore;
        u.addr = ht_base_ + bucket * 16;
        break;
      case 6:  // i++
        u.type = UopType::kAlu;
        break;
      case 7:  // loop branch
        u.type = UopType::kBranch;
        u.pc = kLoopBranchPc;
        u.taken = row_ + 1 < num_rows_;
        break;
      default:
        step_ = 0;
        ++row_;
        continue;
    }
    ++step_;
    if (step_ > 7) {
      step_ = 0;
      ++row_;
    }
    *uop = u;
    return true;
  }
}

bool HashProbeStream::Next(Uop* uop) {
  for (;;) {
    if (row_ >= num_rows_) return false;
    uint64_t bucket = static_cast<uint64_t>(keys_[row_]) % num_buckets_;
    bool hit = hit_flags_ != nullptr && hit_flags_[row_] != 0;
    Uop u;
    switch (step_) {
      case 0:  // load probe key
        u.type = UopType::kLoad;
        u.addr = key_base_ + row_ * 8;
        break;
      case 1:  // hash (depends on the key load)
        u.type = UopType::kAlu;
        u.dep_distance = 1;
        break;
      case 2:  // hash-table line load: address depends on the hash
        u.type = UopType::kLoad;
        u.addr = ht_base_ + bucket * 16;
        u.dep_distance = 1;
        break;
      case 3:  // key compare (depends on the table load)
        u.type = UopType::kAlu;
        u.dep_distance = 1;
        break;
      case 4:  // match branch: data-dependent, the semijoin's mispredict tax
        u.type = UopType::kBranch;
        u.pc = kPredicateBranchPc;
        u.taken = hit;
        break;
      case 5:  // matched: append the position
        if (!hit) { ++step_; continue; }
        u.type = UopType::kStore;
        u.addr = out_base_ + matches_ * 4;
        ++matches_;
        break;
      case 6:  // i++
        u.type = UopType::kAlu;
        break;
      case 7:  // loop branch
        u.type = UopType::kBranch;
        u.pc = kLoopBranchPc;
        u.taken = row_ + 1 < num_rows_;
        break;
      default:
        step_ = 0;
        ++row_;
        continue;
    }
    ++step_;
    if (step_ > 7) {
      step_ = 0;
      ++row_;
    }
    *uop = u;
    return true;
  }
}

bool MergeSortStream::Next(Uop* uop) {
  for (;;) {
    if (pass_ >= passes_) return false;
    // Ping-pong buffers between passes.
    uint64_t in_base = (pass_ % 2 == 0) ? src_base_ : dst_base_;
    uint64_t out_base = (pass_ % 2 == 0) ? dst_base_ : src_base_;
    Uop u;
    switch (step_) {
      case 0:  // load the next element of one of the two input runs
        u.type = UopType::kLoad;
        u.addr = in_base + i_ * 8;
        break;
      case 1:  // compare the run heads (depends on the load)
        u.type = UopType::kAlu;
        u.dep_distance = 1;
        break;
      case 2:  // which run wins: data-dependent, ~50/50 on random keys
        u.type = UopType::kBranch;
        u.pc = kPredicateBranchPc + pass_ * 8;
        u.taken = NextBit();
        u.dep_distance = 1;
        break;
      case 3:  // store to the output run
        u.type = UopType::kStore;
        u.addr = out_base + i_ * 8;
        break;
      case 4:  // cursor bookkeeping
        u.type = UopType::kAlu;
        break;
      case 5:  // loop branch
        u.type = UopType::kBranch;
        u.pc = kLoopBranchPc;
        u.taken = i_ + 1 < num_rows_;
        break;
      default:
        step_ = 0;
        if (++i_ >= num_rows_) {
          i_ = 0;
          ++pass_;
        }
        continue;
    }
    ++step_;
    if (step_ > 5) {
      step_ = 0;
      if (++i_ >= num_rows_) {
        i_ = 0;
        ++pass_;
      }
    }
    *uop = u;
    return true;
  }
}

bool ReplayStream::Next(Uop* uop) {
  for (;;) {
    if (compute_left_ > 0) {
      --compute_left_;
      *uop = Uop{};  // independent single-cycle ALU op
      return true;
    }
    if (access_pending_) {
      access_pending_ = false;
      const TraceEvent& ev = (*events_)[i_ - 1];
      Uop u;
      u.type = ev.kind == TraceEvent::Kind::kLoad ? UopType::kLoad
                                                  : UopType::kStore;
      u.addr = ev.value;
      *uop = u;
      return true;
    }
    if (i_ >= events_->size()) return false;
    const TraceEvent& ev = (*events_)[i_++];
    if (ev.kind == TraceEvent::Kind::kCompute) {
      compute_left_ = ev.value;
    } else {
      compute_left_ = ev.compute;
      access_pending_ = true;
    }
  }
}

}  // namespace ndp::cpu
