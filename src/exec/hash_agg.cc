#include "exec/hash_agg.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <type_traits>

#include "common/bitutil.h"
#include "exec/key_hash.h"
#include "exec/profile.h"

namespace vwise {

namespace {

constexpr uint32_t kEmptySlot = 0xffffffffu;

bool IntFamily(TypeId t) {
  return t == TypeId::kU8 || t == TypeId::kI32 || t == TypeId::kI64;
}

// State of one aggregate over input type `in`: the value lane's type, whether
// it has a count lane, and the output column's type. Sums keep integer
// inputs in i64 and widen the rest to f64; min/max keep f64 in f64 and other
// inputs in i64, emitting i32 inputs as i32; counts are i64; avg is an f64
// sum over a count.
struct AggLane {
  bool is_i64;
  bool has_count;
  TypeId out_type;
};

AggLane LaneOf(AggSpec::Fn fn, TypeId in) {
  switch (fn) {
    case AggSpec::Fn::kSum:
      return {IntFamily(in), false,
              IntFamily(in) ? TypeId::kI64 : TypeId::kF64};
    case AggSpec::Fn::kMin:
    case AggSpec::Fn::kMax:
      return {in != TypeId::kF64, true,
              in == TypeId::kF64   ? TypeId::kF64
              : in == TypeId::kI32 ? TypeId::kI32
                                   : TypeId::kI64};
    case AggSpec::Fn::kCount:
    case AggSpec::Fn::kCountStar:
      return {true, false, TypeId::kI64};
    case AggSpec::Fn::kAvg:
      return {false, true, TypeId::kF64};
  }
  return {true, false, TypeId::kI64};
}

}  // namespace

HashAggOperator::HashAggOperator(OperatorPtr child,
                                 std::vector<size_t> group_cols,
                                 std::vector<AggSpec> aggs,
                                 const Config& config)
    : child_(InterposeChild(std::move(child), config, "hash_agg.child")),
      group_cols_(std::move(group_cols)),
      aggs_(std::move(aggs)),
      config_(config),
      spill_(config_, 1) {
  const auto& in_types = child_->OutputTypes();
  // A spill state row holds the key columns, then each aggregate's lanes.
  for (size_t c : group_cols_) {
    identity_cols_.push_back(state_types_.size());
    state_types_.push_back(in_types[c]);
    out_types_.push_back(in_types[c]);
  }
  for (const AggSpec& a : aggs_) {
    AggLane lane = LaneOf(
        a.fn, a.fn == AggSpec::Fn::kCountStar ? TypeId::kI64 : in_types[a.col]);
    out_types_.push_back(lane.out_type);
    layout_.push_back({lane.is_i64, state_types_.size(), SIZE_MAX});
    state_types_.push_back(lane.is_i64 ? TypeId::kI64 : TypeId::kF64);
    if (lane.has_count) {
      layout_.back().count_col = state_types_.size();
      state_types_.push_back(TypeId::kI64);
    }
  }
}

HashAggOperator::~HashAggOperator() = default;

Status HashAggOperator::OpenImpl() {
  VWISE_RETURN_IF_ERROR(child_->Open(ctx()));
  const auto& in_types = child_->OutputTypes();
  key_stores_.clear();
  for (size_t c : group_cols_) key_stores_.emplace_back(in_types[c]);
  // Budget accounting: estimated footprint of one group row — owned key
  // copies plus per-aggregate state (i64/f64/count lanes) plus the stored
  // hash and its open-addressing slot.
  mem_.Bind(ctx(), "hash aggregation");
  reserved_groups_ = 0;
  per_group_bytes_ = 16;  // group_hashes_ entry + table slot
  for (size_t c : group_cols_) {
    per_group_bytes_ +=
        in_types[c] == TypeId::kStr ? 32 : TypeWidth(in_types[c]);
  }
  per_group_bytes_ += aggs_.size() * 24;
  states_.assign(aggs_.size(), AggState{});
  // Reset the group count and hashes from a previous execution of a prepared
  // plan BEFORE rebuilding the slot table: ResizeTable re-inserts the first
  // n_groups_ entries of group_hashes_, so stale values would repopulate the
  // fresh table with dangling group indices (and loop forever once the stale
  // count exceeds the bucket count).
  n_groups_ = 0;
  group_hashes_.clear();
  ResizeTable(1024);
  consumed_ = false;
  emit_cursor_ = 0;
  spill_.Bind(ctx());
  hash_scratch_ = ctx()->scratch()->AcquireArray<uint64_t>(config_.vector_size);
  group_idx_ = ctx()->scratch()->AcquireArray<uint32_t>(config_.vector_size);
  emit_idx_ = ctx()->scratch()->AcquireArray<uint32_t>(config_.vector_size);
  return Status::OK();
}

void HashAggOperator::ResizeTable(size_t buckets) {
  slots_.assign(buckets, kEmptySlot);
  slot_mask_ = buckets - 1;
  for (uint32_t g = 0; g < n_groups_; g++) {
    uint64_t s = group_hashes_[g] & slot_mask_;
    while (slots_[s] != kEmptySlot) s = (s + 1) & slot_mask_;
    slots_[s] = g;
  }
}

uint32_t HashAggOperator::FindOrCreateGroup(
    const DataChunk& chunk, sel_t pos, uint64_t hash,
    const std::vector<size_t>& key_cols) {
  uint64_t s = hash & slot_mask_;
  while (true) {
    uint32_t g = slots_[s];
    if (g == kEmptySlot) break;
    if (group_hashes_[g] == hash &&
        KeysEqual(chunk, key_cols, pos, key_stores_, g)) {
      return g;
    }
    s = (s + 1) & slot_mask_;
  }
  // New group.
  uint32_t g = static_cast<uint32_t>(n_groups_);
  slots_[s] = g;
  for (size_t k = 0; k < group_cols_.size(); k++) {
    // vwise-hotpath: allow(cold-call): per-new-group key copy, warm-up only
    key_stores_[k].AppendOne(chunk.column(key_cols[k]), pos);
  }
  // vwise-hotpath: allow(cold-call): per-new-group state, warm-up only
  AppendGroup(hash);
  if (n_groups_ * 10 > slots_.size() * 7) {
    // vwise-hotpath: allow(cold-call): table doubling, amortized O(1)
    ResizeTable(slots_.size() * 2);
  }
  return g;
}

void HashAggOperator::AppendGroup(uint64_t hash) {
  group_hashes_.push_back(hash);
  for (size_t a = 0; a < aggs_.size(); a++) {
    AggState& st = states_[a];
    if (layout_[a].is_i64) {
      st.i64.push_back(0);
    } else {
      st.f64.push_back(0);
    }
    if (layout_[a].count_col != SIZE_MAX) st.count.push_back(0);
  }
  n_groups_++;
}

// VWISE_HOT: the per-chunk aggregation core — hashed, resolved and updated
// without leaving the arena-leased scratch (group creation is the annotated
// warm-up tail in FindOrCreateGroup).
VWISE_HOT Status HashAggOperator::ProcessChunk(DataChunk& chunk) {
  size_t n = chunk.ActiveCount();
  const sel_t* sel = chunk.sel();
  // Compressed execution: group keys are hashed and compared value-at-a-time
  // below, so they always decode; aggregate inputs decode only when the
  // per-run RLE fast path (global aggregate, no selection) does not apply.
  for (size_t k = 0; k < group_cols_.size(); k++) {
    Vector& key = chunk.column(group_cols_[k]);
    if (key.IsEncoded()) {
      // vwise-hotpath: allow(cold-call): per-chunk decode boundary
      key.Normalize(chunk.count());
    }
  }
  for (size_t a = 0; a < aggs_.size(); a++) {
    const AggSpec& spec = aggs_[a];
    if (spec.fn == AggSpec::Fn::kCount || spec.fn == AggSpec::Fn::kCountStar) {
      continue;  // counting never reads the input values
    }
    Vector& agg_in = chunk.column(spec.col);
    bool rle_fast = group_cols_.empty() && sel == nullptr &&
                    agg_in.repr() == VectorRepr::kRle;
    if (agg_in.IsEncoded() && !rle_fast) {
      // vwise-hotpath: allow(cold-call): per-chunk decode boundary
      agg_in.Normalize(chunk.count());
    }
  }
  uint64_t* hashes = hash_scratch_.data<uint64_t>();
  uint32_t* groups = group_idx_.data<uint32_t>();
  // 1. Hash the group keys, a column at a time.
  HashKeys(chunk, group_cols_, hashes);
  // 2. Resolve group indices.
  for (size_t i = 0; i < n; i++) {
    sel_t pos = sel ? sel[i] : static_cast<sel_t>(i);
    groups[i] = FindOrCreateGroup(chunk, pos, hashes[i], group_cols_);
  }
  // 3. Per-aggregate update loops: one type dispatch per aggregate column,
  // then loops over its typed values. Inputs widen to the lane by
  // static_cast (i32 to f64, f64 to i64, ...) and accumulate in row order.
  for (size_t a = 0; a < aggs_.size(); a++) {
    AggState& st = states_[a];
    const AggSpec& spec = aggs_[a];
    if (spec.fn == AggSpec::Fn::kCount || spec.fn == AggSpec::Fn::kCountStar) {
      for (size_t i = 0; i < n; i++) st.i64[groups[i]]++;
      continue;
    }
    const Vector& in = chunk.column(spec.col);
    const bool is_i64 = layout_[a].is_i64;
    const bool is_min = spec.fn == AggSpec::Fn::kMin;
    VisitType(in.type(), [&](auto tag) {
      using T = decltype(tag);
      if constexpr (!std::is_same_v<T, StringVal>) {
        if (in.repr() == VectorRepr::kRle) {
          // Per-run fold: every row is in the single global group (the
          // normalize pass above leaves RLE in place only then).
          const T* vals = in.rle_values<T>();
          const uint32_t* starts = in.rle_starts();
          const uint32_t m = in.rle_runs();
          const uint32_t g = groups[0];
          switch (spec.fn) {
            case AggSpec::Fn::kSum:
              if (is_i64) {
                for (uint32_t r = 0; r < m; r++) {
                  st.i64[g] += static_cast<int64_t>(vals[r]) *
                               static_cast<int64_t>(starts[r + 1] - starts[r]);
                }
              } else {
                for (uint32_t r = 0; r < m; r++) {
                  st.f64[g] +=
                      static_cast<double>(vals[r]) * (starts[r + 1] - starts[r]);
                }
              }
              break;
            case AggSpec::Fn::kMin:
            case AggSpec::Fn::kMax:
              for (uint32_t r = 0; r < m; r++) {
                if (!is_i64) {
                  double v = static_cast<double>(vals[r]);
                  if (!st.count[g] || (is_min ? v < st.f64[g] : v > st.f64[g])) {
                    st.f64[g] = v;
                  }
                } else {
                  int64_t v = static_cast<int64_t>(vals[r]);
                  if (!st.count[g] || (is_min ? v < st.i64[g] : v > st.i64[g])) {
                    st.i64[g] = v;
                  }
                }
                st.count[g] = 1;
              }
              break;
            case AggSpec::Fn::kAvg:
              for (uint32_t r = 0; r < m; r++) {
                st.f64[g] +=
                    static_cast<double>(vals[r]) * (starts[r + 1] - starts[r]);
              }
              st.count[g] += n;
              break;
            case AggSpec::Fn::kCount:
            case AggSpec::Fn::kCountStar:
              break;
          }
          return;
        }
        const T* vals = in.Data<T>();
        switch (spec.fn) {
          case AggSpec::Fn::kSum:
            if (is_i64) {
              for (size_t i = 0; i < n; i++) {
                sel_t pos = sel ? sel[i] : static_cast<sel_t>(i);
                st.i64[groups[i]] += static_cast<int64_t>(vals[pos]);
              }
            } else {
              for (size_t i = 0; i < n; i++) {
                sel_t pos = sel ? sel[i] : static_cast<sel_t>(i);
                st.f64[groups[i]] += static_cast<double>(vals[pos]);
              }
            }
            break;
          case AggSpec::Fn::kMin:
          case AggSpec::Fn::kMax:
            for (size_t i = 0; i < n; i++) {
              sel_t pos = sel ? sel[i] : static_cast<sel_t>(i);
              uint32_t g = groups[i];
              if (!is_i64) {
                double v = static_cast<double>(vals[pos]);
                if (!st.count[g] || (is_min ? v < st.f64[g] : v > st.f64[g])) {
                  st.f64[g] = v;
                }
              } else {
                int64_t v = static_cast<int64_t>(vals[pos]);
                if (!st.count[g] || (is_min ? v < st.i64[g] : v > st.i64[g])) {
                  st.i64[g] = v;
                }
              }
              st.count[g] = 1;
            }
            break;
          case AggSpec::Fn::kAvg:
            for (size_t i = 0; i < n; i++) {
              sel_t pos = sel ? sel[i] : static_cast<sel_t>(i);
              uint32_t g = groups[i];
              st.f64[g] += static_cast<double>(vals[pos]);
              st.count[g]++;
            }
            break;
          case AggSpec::Fn::kCount:
          case AggSpec::Fn::kCountStar:
            break;
        }
      }
    });
  }
  return Status::OK();
}

Status HashAggOperator::ConsumeInput() {
  DataChunk chunk;
  chunk.Init(child_->OutputTypes(), config_.vector_size);
  std::vector<sel_t> orig_sel;  // snapshot of active positions when slicing
  while (true) {
    VWISE_RETURN_IF_ERROR(ctx()->Check());
    chunk.Reset();
    VWISE_RETURN_IF_ERROR(child_->Next(&chunk));
    size_t n = chunk.ActiveCount();
    if (n == 0) break;
    // Budget-accounting fix: reserve a worst-case bound (every incoming row
    // a fresh group) BEFORE ProcessChunk inserts anything, then trim the
    // reservation to the groups actually created. The old reserve-after-
    // insert let a single chunk of fresh groups overshoot the budget — and
    // the spill trigger below must fire before allocation to help at all.
    size_t done = 0;
    bool sliced = false;
    while (done < n) {
      size_t slice = n - done;
      while (true) {
        Status grown = mem_.Grow(slice * per_group_bytes_);
        if (grown.ok()) break;
        if (grown.code() != StatusCode::kResourceExhausted) return grown;
        if (n_groups_ > 0) {
          // Flush the table to the radix partitions and retry with the
          // budget freed up.
          VWISE_RETURN_IF_ERROR(SpillGroups());
          continue;
        }
        if (slice > 1) {
          // Empty table and still over budget: the worst-case bound for the
          // whole slice is what does not fit — narrow the slice instead of
          // failing (the real group count is usually far below worst case).
          slice = (slice + 1) / 2;
          continue;
        }
        return grown;  // budget cannot hold even one group
      }
      if (slice < n) {
        // Narrow the chunk to the active-position window [done, done+slice).
        if (!sliced) {
          orig_sel.resize(n);
          if (chunk.has_selection()) {
            std::memcpy(orig_sel.data(), chunk.sel(), n * sizeof(sel_t));
          } else {
            for (size_t i = 0; i < n; i++) orig_sel[i] = static_cast<sel_t>(i);
          }
          sliced = true;
        }
        std::memcpy(chunk.MutableSel(), orig_sel.data() + done,
                    slice * sizeof(sel_t));
        chunk.SetSelection(slice);
      }
      size_t before = n_groups_;
      VWISE_RETURN_IF_ERROR(ProcessChunk(chunk));
      mem_.Shrink((slice - (n_groups_ - before)) * per_group_bytes_);
      reserved_groups_ = n_groups_;
      done += slice;
    }
    if (ShouldSpill(ctx(), config_, mem_.bytes())) {
      VWISE_RETURN_IF_ERROR(SpillGroups());
    }
  }
  child_->Close();
  if (spill_.active()) {
    // Flush the tail so every group lives in exactly one partition, then
    // close the writers; emission reloads partitions one at a time.
    VWISE_RETURN_IF_ERROR(SpillGroups());
    spill_.CloseWriters();
    return Status::OK();
  }
  // An ungrouped aggregate always emits one row, even on empty input: the
  // single global group, zero-initialized, under a synthetic hash (there
  // are no key columns to compare).
  if (group_cols_.empty() && n_groups_ == 0) {
    slots_[0] = 0;
    AppendGroup(0);
  }
  return Status::OK();
}

void HashAggOperator::ClearTable() {
  n_groups_ = 0;
  emit_cursor_ = 0;
  group_hashes_.clear();
  const auto& in_types = child_->OutputTypes();
  key_stores_.clear();
  for (size_t c : group_cols_) key_stores_.emplace_back(in_types[c]);
  for (AggState& st : states_) {
    st.i64.clear();
    st.f64.clear();
    st.count.clear();
  }
  ResizeTable(1024);
  mem_.Shrink(reserved_groups_ * per_group_bytes_);
  reserved_groups_ = 0;
}

Status HashAggOperator::SpillGroups() {
  if (n_groups_ == 0) return Status::OK();
  if (!spill_.active()) {
    VWISE_RETURN_IF_ERROR(
        spill_.OpenSide(0, "agg_part", state_types_, identity_cols_));
  }
  VWISE_RETURN_IF_ERROR(spill_.Flush(
      0, n_groups_, [this](uint32_t g) { return group_hashes_[g]; },
      [this](const uint32_t* ids, size_t n, DataChunk* out) {
        for (size_t k = 0; k < group_cols_.size(); k++) {
          key_stores_[k].Gather(ids, n, &out->column(k));
        }
        for (size_t a = 0; a < aggs_.size(); a++) {
          const AggState& st = states_[a];
          const AggLayout& lane = layout_[a];
          Vector& value = out->column(lane.value_col);
          for (size_t j = 0; j < n; j++) {
            uint32_t g = ids[j];
            if (lane.is_i64) {
              value.Data<int64_t>()[j] = st.i64[g];
            } else {
              value.Data<double>()[j] = st.f64[g];
            }
            if (lane.count_col != SIZE_MAX) {
              out->column(lane.count_col).Data<int64_t>()[j] = st.count[g];
            }
          }
        }
      }));
  ClearTable();
  return Status::OK();
}

Status HashAggOperator::ProcessStateChunk(const DataChunk& chunk) {
  size_t n = chunk.count();  // state chunks are dense
  uint64_t* hashes = hash_scratch_.data<uint64_t>();
  uint32_t* groups = group_idx_.data<uint32_t>();
  HashKeys(chunk, identity_cols_, hashes);
  for (size_t i = 0; i < n; i++) {
    groups[i] = FindOrCreateGroup(chunk, static_cast<sel_t>(i), hashes[i],
                                  identity_cols_);
  }
  // Merge the partial states: sums/counts add, min/max compare (their count
  // lane is the first-touch marker), avg adds both lanes.
  for (size_t a = 0; a < aggs_.size(); a++) {
    AggState& st = states_[a];
    const AggLayout& lane = layout_[a];
    const Vector& value = chunk.column(lane.value_col);
    switch (aggs_[a].fn) {
      case AggSpec::Fn::kSum:
      case AggSpec::Fn::kCount:
      case AggSpec::Fn::kCountStar:
        for (size_t i = 0; i < n; i++) {
          if (lane.is_i64) {
            st.i64[groups[i]] += value.Data<int64_t>()[i];
          } else {
            st.f64[groups[i]] += value.Data<double>()[i];
          }
        }
        break;
      case AggSpec::Fn::kMin:
      case AggSpec::Fn::kMax: {
        const Vector& cnt = chunk.column(lane.count_col);
        bool is_min = aggs_[a].fn == AggSpec::Fn::kMin;
        for (size_t i = 0; i < n; i++) {
          if (cnt.Data<int64_t>()[i] == 0) continue;  // no-data partial
          uint32_t g = groups[i];
          if (lane.is_i64) {
            int64_t v = value.Data<int64_t>()[i];
            if (!st.count[g] || (is_min ? v < st.i64[g] : v > st.i64[g])) {
              st.i64[g] = v;
            }
          } else {
            double v = value.Data<double>()[i];
            if (!st.count[g] || (is_min ? v < st.f64[g] : v > st.f64[g])) {
              st.f64[g] = v;
            }
          }
          st.count[g] = 1;
        }
        break;
      }
      case AggSpec::Fn::kAvg: {
        const Vector& cnt = chunk.column(lane.count_col);
        for (size_t i = 0; i < n; i++) {
          uint32_t g = groups[i];
          st.f64[g] += value.Data<double>()[i];
          st.count[g] += cnt.Data<int64_t>()[i];
        }
        break;
      }
    }
  }
  return Status::OK();
}

Status HashAggOperator::LoadPartition() {
  ClearTable();
  return spill_.ReadCurrent(0, [this](const DataChunk& chunk) -> Status {
    size_t n = chunk.count();
    // Same reserve-before-insert protocol as the consume path.
    // ResourceExhausted here means one partition's groups alone exceed the
    // budget; the caller re-partitions it instead of failing the query.
    VWISE_RETURN_IF_ERROR(mem_.Grow(n * per_group_bytes_));
    size_t before = n_groups_;
    VWISE_RETURN_IF_ERROR(ProcessStateChunk(chunk));
    mem_.Shrink((n - (n_groups_ - before)) * per_group_bytes_);
    reserved_groups_ = n_groups_;
    return Status::OK();
  });
}

Status HashAggOperator::LoadNextPartition() {
  while (emit_cursor_ >= n_groups_) {
    if (!spill_.NextPartition()) return Status::OK();
    Status load = LoadPartition();
    if (!load.ok()) {
      ClearTable();  // drop the partially merged groups
      VWISE_RETURN_IF_ERROR(spill_.Repartition(load));
      continue;
    }
    spill_.DropCurrent();  // merged; the file is no longer needed
  }
  return Status::OK();
}

Status HashAggOperator::Next(DataChunk* out) {
  if (!consumed_) {
    // vwise-hotpath: allow(cold-call): consumes the whole input once per
    // query; the per-chunk work inside is ProcessChunk, a root of its own
    VWISE_RETURN_IF_ERROR(ConsumeInput());
    consumed_ = true;
    emit_cursor_ = 0;
  }
  if (emit_cursor_ >= n_groups_ && spill_.active()) {
    // Partition-at-a-time emission: the resident table is drained.
    // vwise-hotpath: allow(cold-call): partition reload runs only after
    // the aggregation degraded to disk under a memory budget
    VWISE_RETURN_IF_ERROR(LoadNextPartition());
  }
  size_t batch = std::min(out->capacity(), n_groups_ - emit_cursor_);
  // The emit gather runs through the arena-leased index array, so cap the
  // batch at its size (out may be larger than one vector).
  batch = std::min(batch, config_.vector_size);
  if (batch == 0) {
    out->SetCount(0);
    return Status::OK();
  }
  uint32_t* idx = emit_idx_.data<uint32_t>();
  for (size_t i = 0; i < batch; i++) idx[i] = static_cast<uint32_t>(emit_cursor_ + i);
  for (size_t k = 0; k < group_cols_.size(); k++) {
    key_stores_[k].Gather(idx, batch, &out->column(k));
  }
  for (size_t a = 0; a < aggs_.size(); a++) {
    Vector& dst = out->column(group_cols_.size() + a);
    const AggState& st = states_[a];
    const size_t g = emit_cursor_;
    if (aggs_[a].fn == AggSpec::Fn::kAvg) {
      for (size_t i = 0; i < batch; i++) {
        int64_t count = st.count[g + i];
        dst.Data<double>()[i] =
            count == 0 ? 0.0 : st.f64[g + i] / static_cast<double>(count);
      }
    } else if (!layout_[a].is_i64) {
      for (size_t i = 0; i < batch; i++) dst.Data<double>()[i] = st.f64[g + i];
    } else if (dst.type() == TypeId::kI32) {  // min/max of an i32 input
      for (size_t i = 0; i < batch; i++) {
        dst.Data<int32_t>()[i] = static_cast<int32_t>(st.i64[g + i]);
      }
    } else {
      for (size_t i = 0; i < batch; i++) dst.Data<int64_t>()[i] = st.i64[g + i];
    }
  }
  out->SetCount(batch);
  emit_cursor_ += batch;
  return Status::OK();
}

void HashAggOperator::Close() {
  // The child is normally closed at the end of ConsumeInput; close it again
  // here (idempotent) so an error/cancel unwind that skipped the consume
  // still reaches Xchg fragments running below on pool threads.
  child_->Close();
  key_stores_.clear();
  states_.clear();
  slots_.clear();
  spill_.Drop();
  hash_scratch_.Release();
  group_idx_.Release();
  emit_idx_.Release();
  mem_.ReleaseAll();
  reserved_groups_ = 0;
}

}  // namespace vwise
