#include "cpu/kernels.h"

namespace ndp::cpu {

bool LoopStream::Next(Uop* uop) {
  while (pos_ == len_) {
    pos_ = len_ = 0;
    if (!EmitIteration(iter_)) return false;
    ++iter_;
  }
  *uop = buf_[pos_++];
  return true;
}

bool SelectScanStream::EmitIteration(uint64_t row) {
  if (row >= num_rows_) return false;
  const bool pass = values_[row] >= lo_ && values_[row] <= hi_;
  Load(col_base_ + row * elem_bytes_);
  Alu(1);  // cmp >= lo (depends on the load)
  Alu(2);  // cmp <= hi (depends on the load, two µops back)
  Alu(1);  // and of the two compares
  if (predicated_) {
    // Unconditional store of the candidate position; the position-list
    // cursor advances by `pass` with no control dependence.
    Store(out_base_ + matches_ * 4);
    Alu(2);  // count += pass (data dependence on the and, 2 µops back)
    if (pass) ++matches_;
    Alu();  // cursor address computation
  } else {
    Branch(kPredicateBranchPc, pass, 1);  // depends on the and
    if (pass) {  // taken: bookkeeping µops
      Alu();  // position-list address computation
      Store(out_base_ + matches_ * 4);  // out[count] = row
      Alu();  // count++
      ++matches_;
      Alu();  // pack/extend of the recorded position
    }
  }
  Alu();  // i++
  Branch(kLoopBranchPc, row + 1 < num_rows_);  // strongly biased taken
  return true;
}

bool AggregateScanStream::EmitIteration(uint64_t row) {
  if (row >= num_rows_) return false;
  Load(col_base_ + row * elem_bytes_);
  Alu(1);  // acc += value (depends on the load)
  Alu();   // i++
  Branch(kLoopBranchPc, row + 1 < num_rows_);
  return true;
}

bool ProjectGatherStream::EmitIteration(uint64_t j) {
  if (j >= num_positions_) return false;
  Load(pos_base_ + j * 4);  // pos[j]
  // col[pos[j]]: the address depends on the previous load.
  Load(col_base_ + static_cast<uint64_t>(positions_[j]) * elem_bytes_, 1);
  Store(out_base_ + j * elem_bytes_);  // out[j]
  Alu();  // j++
  Branch(kLoopBranchPc, j + 1 < num_positions_);
  return true;
}

bool GroupByScanStream::EmitIteration(uint64_t row) {
  if (row >= num_rows_) return false;
  const uint64_t bucket = static_cast<uint64_t>(keys_[row]) % num_buckets_;
  Load(key_base_ + row * 8);
  Load(val_base_ + row * 8);
  Alu(2);  // hash (depends on the key load)
  Load(ht_base_ + bucket * 16, 1);  // bucket line: address depends on the hash
  Alu(1);  // accumulate (depends on bucket + value)
  Store(ht_base_ + bucket * 16);  // store the bucket back
  Alu();  // i++
  Branch(kLoopBranchPc, row + 1 < num_rows_);
  return true;
}

bool HashProbeStream::EmitIteration(uint64_t row) {
  if (row >= num_rows_) return false;
  const uint64_t bucket = static_cast<uint64_t>(keys_[row]) % num_buckets_;
  const bool hit = hit_flags_ != nullptr && hit_flags_[row] != 0;
  Load(key_base_ + row * 8);  // probe key
  Alu(1);  // hash (depends on the key load)
  Load(ht_base_ + bucket * 16, 1);  // table line: address depends on the hash
  Alu(1);  // key compare (depends on the table load)
  // Match branch: data-dependent, the semijoin's mispredict tax.
  Branch(kPredicateBranchPc, hit);
  if (hit) Store(out_base_ + matches_++ * 4);  // append the position
  Alu();  // i++
  Branch(kLoopBranchPc, row + 1 < num_rows_);
  return true;
}

bool MergeSortStream::EmitIteration(uint64_t n) {
  // Checked before dividing: 0 or 1 rows need no pass.
  if (n >= uint64_t{passes_} * num_rows_) return false;
  const uint64_t pass = n / num_rows_, i = n % num_rows_;
  // Ping-pong buffers between passes.
  const uint64_t in_base = pass % 2 == 0 ? src_base_ : dst_base_;
  const uint64_t out_base = pass % 2 == 0 ? dst_base_ : src_base_;
  Load(in_base + i * 8);  // next element of one of the two input runs
  Alu(1);  // compare the run heads (depends on the load)
  // Which run wins: data-dependent, ~50/50 on random keys.
  Branch(kPredicateBranchPc + pass * 8, NextBit(), 1);
  Store(out_base + i * 8);  // to the output run
  Alu();  // cursor bookkeeping
  Branch(kLoopBranchPc, i + 1 < num_rows_);
  return true;
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
      Uop u;
      u.type = pending_.kind == TraceEvent::Kind::kLoad ? UopType::kLoad
                                                        : UopType::kStore;
      u.addr = pending_.value;
      *uop = u;
      return true;
    }
    if (run_left_ > 0) {
      --run_left_;
      pending_ = history_.Predict(run_period_);
    } else if (i_ < events_->size()) {
      const TraceEvent& ev = (*events_)[i_++];
      if (ev.kind == TraceEvent::Kind::kCompute) {
        compute_left_ = ev.value;
        continue;
      }
      if (ev.kind == TraceEvent::Kind::kRun) {
        run_left_ = ev.value;
        run_period_ = ev.compute;
        continue;
      }
      pending_ = ev;
    } else {
      return false;
    }
    history_.Push(pending_);
    compute_left_ = pending_.compute;
    access_pending_ = true;
  }
}

}  // namespace ndp::cpu
