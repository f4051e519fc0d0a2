#include "exec/hash_join.h"

#include <algorithm>
#include <cstring>

#include "common/bitutil.h"
#include "exec/key_hash.h"
#include "exec/profile.h"
#include "expr/primitives.h"
#include "storage/spill_file.h"

namespace vwise {

namespace {

constexpr uint32_t kNoRow = 0xffffffffu;  // unmatched-probe sentinel

// Gathers probe-side column values at pair positions into `out`.
void GatherProbe(const Vector& src, const sel_t* positions, size_t n,
                 Vector* out) {
  VisitType(src.type(), [&](auto tag) {
    using T = decltype(tag);
    prim::Gather<T>(src.Data<T>(), positions, n, out->Data<T>());
  });
  if (src.type() == TypeId::kStr) out->AddHeapsFrom(src);
}

void ZeroFill(Vector* out, size_t i) {
  VisitType(out->type(),
            [&](auto tag) { out->Data<decltype(tag)>()[i] = decltype(tag){}; });
}

}  // namespace

HashJoinOperator::HashJoinOperator(OperatorPtr probe, OperatorPtr build,
                                   Spec spec, const Config& config)
    : probe_(InterposeChild(std::move(probe), config, "hash_join.probe")),
      build_(InterposeChild(std::move(build), config, "hash_join.build")),
      spec_(std::move(spec)),
      config_(config),
      spill_(config_, 2) {
  out_types_ = probe_->OutputTypes();
  if (spec_.type == JoinType::kInner || spec_.type == JoinType::kLeftOuter) {
    for (size_t c : spec_.build_payload) {
      out_types_.push_back(build_->OutputTypes()[c]);
    }
    if (spec_.type == JoinType::kLeftOuter) out_types_.push_back(TypeId::kU8);
  }
}

HashJoinOperator::~HashJoinOperator() = default;

Status HashJoinOperator::OpenImpl() {
  VWISE_RETURN_IF_ERROR(probe_->Open(ctx()));
  VWISE_RETURN_IF_ERROR(build_->Open(ctx()));
  mem_.Bind(ctx(), "hash join build side");
  // Reset pipeline-breaker state from a previous execution of a prepared
  // plan: build_rows_ in particular survives Close(), and a stale count
  // would make BuildTable() index past the freshly rebuilt stores.
  build_key_cols_.clear();
  build_payload_cols_.clear();
  build_rows_ = 0;
  build_bytes_ = 0;
  bucket_heads_.clear();
  chain_next_.clear();
  probe_reader_.reset();
  probe_partitioned_ = false;
  spill_.Bind(ctx());
  for (size_t c : spec_.build_keys) {
    build_key_cols_.emplace_back(build_->OutputTypes()[c]);
  }
  for (size_t c : spec_.build_payload) {
    build_payload_cols_.emplace_back(build_->OutputTypes()[c]);
  }
  VWISE_RETURN_IF_ERROR(ConsumeBuildSide());
  input_.Init(probe_->OutputTypes(), config_.vector_size);
  input_exhausted_ = false;
  pair_cursor_ = 0;
  pairs_.clear();
  probe_hashes_ =
      ctx()->scratch()->AcquireArray<uint64_t>(config_.vector_size);
  probe_pos_ = ctx()->scratch()->AcquireArray<sel_t>(config_.vector_size);
  build_row_idx_ =
      ctx()->scratch()->AcquireArray<uint32_t>(config_.vector_size);
  residual_sel_ = ctx()->scratch()->AcquireArray<sel_t>(config_.vector_size);
  if (spec_.residual) {
    VWISE_RETURN_IF_ERROR(spec_.residual->Prepare(config_.vector_size));
    // The residual sees [probe columns..., build payload...].
    std::vector<TypeId> types = probe_->OutputTypes();
    for (size_t c : spec_.build_payload) types.push_back(build_->OutputTypes()[c]);
    residual_scratch_.Init(types, config_.vector_size);
  }
  return Status::OK();
}

Status HashJoinOperator::ConsumeBuildSide() {
  DataChunk chunk;
  chunk.Init(build_->OutputTypes(), config_.vector_size);
  while (true) {
    VWISE_RETURN_IF_ERROR(ctx()->Check());
    chunk.Reset();
    VWISE_RETURN_IF_ERROR(build_->Next(&chunk));
    size_t n = chunk.ActiveCount();
    if (n == 0) break;
    // Key hashing, the column-store copies, and the spill writers all read
    // values positionally; decode any encoded columns first.
    chunk.NormalizeColumns();
    if (spill_.active()) {
      // Already degraded: route the chunk straight to the partition files.
      VWISE_RETURN_IF_ERROR(PartitionBuildChunk(chunk));
      continue;
    }
    size_t grow = EstimateChunkBytes(chunk);
    Status reserve = mem_.Grow(grow);
    if (!reserve.ok()) {
      if (reserve.code() != StatusCode::kResourceExhausted) return reserve;
      // Budget hit: flush the buffered rows to radix partitions (returns
      // their reservation) and stream the rest of the build side to disk.
      VWISE_RETURN_IF_ERROR(SpillBuildRows());
      VWISE_RETURN_IF_ERROR(PartitionBuildChunk(chunk));
      continue;
    }
    build_bytes_ += grow;
    const sel_t* sel = chunk.sel();
    for (size_t k = 0; k < spec_.build_keys.size(); k++) {
      build_key_cols_[k].AppendFrom(chunk.column(spec_.build_keys[k]), sel, n);
    }
    for (size_t k = 0; k < spec_.build_payload.size(); k++) {
      build_payload_cols_[k].AppendFrom(chunk.column(spec_.build_payload[k]), sel, n);
    }
    build_rows_ += n;
    if (ShouldSpill(ctx(), config_, mem_.bytes())) {
      VWISE_RETURN_IF_ERROR(SpillBuildRows());
    }
  }
  build_->Close();
  if (spill_.active()) {
    // Close the partition files; tables are built per partition at probe
    // time (LoadBuildPartition).
    spill_.CloseWriters();
    return Status::OK();
  }
  return BuildTable();
}

Status HashJoinOperator::BuildTable() {
  // Chained hash table over the stored rows.
  size_t buckets = bit::NextPowerOfTwo(build_rows_ * 2 + 1);
  size_t table_bytes = buckets * sizeof(uint32_t) + build_rows_ * sizeof(uint32_t);
  VWISE_RETURN_IF_ERROR(mem_.Grow(table_bytes));
  build_bytes_ += table_bytes;
  bucket_heads_.assign(buckets, kNoRow);
  bucket_mask_ = buckets - 1;
  chain_next_.assign(build_rows_, kNoRow);
  for (size_t row = 0; row < build_rows_; row++) {
    uint64_t h = HashStoredKeys(build_key_cols_, row) & bucket_mask_;
    chain_next_[row] = bucket_heads_[h];
    bucket_heads_[h] = static_cast<uint32_t>(row);
  }
  return Status::OK();
}

Status HashJoinOperator::SpillBuildRows() {
  size_t n_keys = spec_.build_keys.size();
  if (!spill_.active()) {
    std::vector<TypeId> types;  // keys then payload: all the join retains
    std::vector<size_t> key_cols;
    for (size_t c : spec_.build_keys) {
      key_cols.push_back(types.size());
      types.push_back(build_->OutputTypes()[c]);
    }
    for (size_t c : spec_.build_payload) {
      types.push_back(build_->OutputTypes()[c]);
    }
    build_view_.Init(types, config_.vector_size);
    VWISE_RETURN_IF_ERROR(spill_.OpenSide(kBuildSide, "join_build",
                                          std::move(types),
                                          std::move(key_cols)));
  }
  VWISE_RETURN_IF_ERROR(spill_.Flush(
      kBuildSide, build_rows_,
      [this](uint32_t row) { return HashStoredKeys(build_key_cols_, row); },
      [&](const uint32_t* ids, size_t n, DataChunk* out) {
        for (size_t k = 0; k < n_keys; k++) {
          build_key_cols_[k].Gather(ids, n, &out->column(k));
        }
        for (size_t k = 0; k < build_payload_cols_.size(); k++) {
          build_payload_cols_[k].Gather(ids, n, &out->column(n_keys + k));
        }
      }));
  ReleaseBuildSide();
  return Status::OK();
}

Status HashJoinOperator::PartitionBuildChunk(const DataChunk& chunk) {
  // View the chunk through the spill schema (keys then payload);
  // Reference shares the buffers, the selection is copied.
  size_t n_keys = spec_.build_keys.size();
  for (size_t k = 0; k < n_keys; k++) {
    build_view_.column(k).Reference(chunk.column(spec_.build_keys[k]));
  }
  for (size_t k = 0; k < spec_.build_payload.size(); k++) {
    build_view_.column(n_keys + k).Reference(
        chunk.column(spec_.build_payload[k]));
  }
  build_view_.SetCount(chunk.count());
  build_view_.ClearSelection();
  if (chunk.has_selection()) {
    std::memcpy(build_view_.MutableSel(), chunk.sel(),
                chunk.sel_count() * sizeof(sel_t));
    build_view_.SetSelection(chunk.sel_count());
  }
  return spill_.Route(kBuildSide, build_view_);
}

Status HashJoinOperator::PartitionProbeSide() {
  VWISE_RETURN_IF_ERROR(spill_.OpenSide(kProbeSide, "join_probe",
                                        probe_->OutputTypes(),
                                        spec_.probe_keys));
  while (true) {
    VWISE_RETURN_IF_ERROR(ctx()->Check());
    input_.Reset();
    VWISE_RETURN_IF_ERROR(probe_->Next(&input_));
    if (input_.ActiveCount() == 0) break;
    input_.NormalizeColumns();
    VWISE_RETURN_IF_ERROR(spill_.Route(kProbeSide, input_));
  }
  probe_->Close();
  spill_.CloseWriters();  // close the files; readers reopen them
  return Status::OK();
}

void HashJoinOperator::ReleaseBuildSide() {
  // Swap out the resident partition's rows + table and their reservation.
  mem_.Shrink(build_bytes_);
  build_bytes_ = 0;
  build_key_cols_.clear();
  build_payload_cols_.clear();
  for (size_t c : spec_.build_keys) {
    build_key_cols_.emplace_back(build_->OutputTypes()[c]);
  }
  for (size_t c : spec_.build_payload) {
    build_payload_cols_.emplace_back(build_->OutputTypes()[c]);
  }
  build_rows_ = 0;
  bucket_heads_.clear();
  chain_next_.clear();
}

Status HashJoinOperator::LoadBuildPartition() {
  ReleaseBuildSide();
  size_t n_keys = spec_.build_keys.size();
  VWISE_RETURN_IF_ERROR(
      spill_.ReadCurrent(kBuildSide, [&](const DataChunk& chunk) -> Status {
        size_t n = chunk.count();  // spill chunks are dense
        // ResourceExhausted here means this partition alone exceeds the
        // budget; the caller re-partitions it instead of failing the query.
        size_t grow = EstimateChunkBytes(chunk);
        VWISE_RETURN_IF_ERROR(mem_.Grow(grow));
        build_bytes_ += grow;
        for (size_t k = 0; k < n_keys; k++) {
          build_key_cols_[k].AppendFrom(chunk.column(k), nullptr, n);
        }
        for (size_t k = 0; k < build_payload_cols_.size(); k++) {
          build_payload_cols_[k].AppendFrom(chunk.column(n_keys + k), nullptr,
                                            n);
        }
        build_rows_ += n;
        return Status::OK();
      }));
  return BuildTable();
}

Status HashJoinOperator::FetchProbeChunk() {
  if (!spill_.active()) return probe_->Next(&input_);
  if (!probe_partitioned_) {
    VWISE_RETURN_IF_ERROR(PartitionProbeSide());
    probe_partitioned_ = true;
  }
  while (true) {
    if (probe_reader_) {
      bool more = false;
      VWISE_ASSIGN_OR_RETURN(more, probe_reader_->Next(&input_));
      if (more) return Status::OK();
      probe_reader_.reset();  // partition fully joined
    }
    if (!spill_.NextPartition()) return Status::OK();  // input_ empty
    // Peek the probe partition first: if it is empty there is nothing to
    // join (or, for outer joins, to pad), so skip loading its build rows.
    std::unique_ptr<SpillReader> reader;
    VWISE_ASSIGN_OR_RETURN(reader, spill_.OpenCurrent(kProbeSide));
    bool more = false;
    VWISE_ASSIGN_OR_RETURN(more, reader->Next(&input_));
    if (!more) continue;
    Status load = LoadBuildPartition();
    if (!load.ok()) {
      // The peeked probe chunk is re-read from the file if the partition is
      // split and retried.
      ReleaseBuildSide();
      reader.reset();
      VWISE_RETURN_IF_ERROR(spill_.Repartition(load));
      continue;
    }
    probe_reader_ = std::move(reader);
    return Status::OK();
  }
}

Status HashJoinOperator::ProcessProbeChunk() {
  pairs_.clear();
  pair_cursor_ = 0;
  size_t n = input_.ActiveCount();
  const sel_t* sel = input_.sel();
  // vwise-hotpath: allow(alloc): capacity stabilizes at one vector after the
  // first full chunk; assign then only zero-fills
  probe_match_.assign(input_.count(), 0);

  // 1. Candidate pairs by hash + key equality: the vector's key hashes
  // first, then one chain walk per row. candidates_ keeps its capacity
  // across chunks, so growth stops once the noisiest chunk has been seen.
  candidates_.clear();
  if (build_rows_ > 0) {
    uint64_t* hashes = probe_hashes_.data<uint64_t>();
    HashKeys(input_, spec_.probe_keys, hashes);
    for (size_t i = 0; i < n; i++) {
      sel_t pos = sel ? sel[i] : static_cast<sel_t>(i);
      uint64_t h = hashes[i] & bucket_mask_;
      for (uint32_t row = bucket_heads_[h]; row != kNoRow; row = chain_next_[row]) {
        if (KeysEqual(input_, spec_.probe_keys, pos, build_key_cols_, row)) {
          // vwise-hotpath: allow(alloc): amortized growth, capacity persists
          // across probe chunks
          candidates_.push_back(Pair{pos, row});
        }
      }
    }
  }

  // 2. Residual predicate over the combined pair rows, in vector batches.
  if (spec_.residual && !candidates_.empty()) {
    size_t n_probe_cols = input_.num_columns();
    sel_t* probe_pos = probe_pos_.data<sel_t>();
    uint32_t* build_rows = build_row_idx_.data<uint32_t>();
    sel_t* out_sel = residual_sel_.data<sel_t>();
    for (size_t base = 0; base < candidates_.size(); base += config_.vector_size) {
      size_t batch = std::min(config_.vector_size, candidates_.size() - base);
      for (size_t i = 0; i < batch; i++) {
        probe_pos[i] = candidates_[base + i].probe_pos;
        build_rows[i] = candidates_[base + i].build_row;
      }
      residual_scratch_.Reset();
      for (size_t c = 0; c < n_probe_cols; c++) {
        GatherProbe(input_.column(c), probe_pos, batch,
                    &residual_scratch_.column(c));
      }
      for (size_t k = 0; k < build_payload_cols_.size(); k++) {
        build_payload_cols_[k].Gather(build_rows, batch,
                                      &residual_scratch_.column(n_probe_cols + k));
      }
      residual_scratch_.SetCount(batch);
      size_t kept = 0;
      // vwise-hotpath: allow(virtual-in-loop): loop is over candidate
      // batches of vector_size — one Select dispatch per batch
      VWISE_RETURN_IF_ERROR(spec_.residual->Select(residual_scratch_, nullptr,
                                                   batch, out_sel, &kept));
      for (size_t i = 0; i < kept; i++) {
        // vwise-hotpath: allow(alloc): amortized growth, capacity persists
        pairs_.push_back(candidates_[base + out_sel[i]]);
      }
    }
  } else {
    std::swap(pairs_, candidates_);
  }

  for (const Pair& p : pairs_) probe_match_[p.probe_pos] = 1;

  // Semi/anti joins consume only the match flags; leaving the pairs around
  // would make the emit loop treat them as inner-join output.
  if (spec_.type == JoinType::kLeftSemi || spec_.type == JoinType::kLeftAnti) {
    pairs_.clear();
    pair_cursor_ = 0;
  }

  // 3. Left outer: append unmatched probe rows as sentinel pairs, keeping
  // the overall probe order stable enough for tests.
  if (spec_.type == JoinType::kLeftOuter) {
    for (size_t i = 0; i < n; i++) {
      sel_t pos = sel ? sel[i] : static_cast<sel_t>(i);
      // vwise-hotpath: allow(alloc): amortized growth, capacity persists
      if (!probe_match_[pos]) pairs_.push_back(Pair{pos, kNoRow});
    }
  }
  return Status::OK();
}

void HashJoinOperator::EmitPairs(DataChunk* out) {
  size_t batch = std::min(out->capacity(), pairs_.size() - pair_cursor_);
  // The gather runs through the arena-leased index arrays, so cap the batch
  // at one vector (out may be larger).
  batch = std::min(batch, config_.vector_size);
  sel_t* probe_pos = probe_pos_.data<sel_t>();
  uint32_t* build_rows = build_row_idx_.data<uint32_t>();
  for (size_t i = 0; i < batch; i++) {
    probe_pos[i] = pairs_[pair_cursor_ + i].probe_pos;
    build_rows[i] = pairs_[pair_cursor_ + i].build_row;
  }
  pair_cursor_ += batch;
  size_t n_probe_cols = input_.num_columns();
  for (size_t c = 0; c < n_probe_cols; c++) {
    GatherProbe(input_.column(c), probe_pos, batch, &out->column(c));
  }
  // Unmatched outer rows (sentinels) gather build row 0 as a stand-in, then
  // their payload is zeroed; with no build rows there is nothing to gather.
  uint8_t* matched = nullptr;
  if (spec_.type == JoinType::kLeftOuter) {
    matched = out->column(out_types_.size() - 1).Data<uint8_t>();
    for (size_t i = 0; i < batch; i++) {
      matched[i] = build_rows[i] != kNoRow;
      if (!matched[i]) build_rows[i] = 0;
    }
  }
  for (size_t k = 0; k < build_payload_cols_.size(); k++) {
    Vector& dst = out->column(n_probe_cols + k);
    if (build_rows_ > 0) build_payload_cols_[k].Gather(build_rows, batch, &dst);
    if (matched == nullptr) continue;
    for (size_t i = 0; i < batch; i++) {
      if (!matched[i]) ZeroFill(&dst, i);
    }
  }
  out->SetCount(batch);
}

Status HashJoinOperator::EmitSemiAnti(DataChunk* out) {
  size_t n = input_.ActiveCount();
  const sel_t* sel = input_.sel();
  bool want_match = spec_.type == JoinType::kLeftSemi;
  for (size_t c = 0; c < input_.num_columns(); c++) {
    out->column(c).Reference(input_.column(c));
  }
  out->SetCount(input_.count());
  sel_t* out_sel = out->MutableSel();
  size_t k = 0;
  for (size_t i = 0; i < n; i++) {
    sel_t pos = sel ? sel[i] : static_cast<sel_t>(i);
    if (static_cast<bool>(probe_match_[pos]) == want_match) out_sel[k++] = pos;
  }
  out->SetSelection(k);
  return Status::OK();
}

Status HashJoinOperator::Next(DataChunk* out) {
  while (true) {
    if (pair_cursor_ < pairs_.size()) {
      EmitPairs(out);
      return Status::OK();
    }
    if (input_exhausted_) {
      out->SetCount(0);
      return Status::OK();
    }
    input_.Reset();
    // vwise-hotpath: allow(cold-call): delegates to probe_->Next() in the
    // common case; the spill branch runs only after a budget-forced flush
    VWISE_RETURN_IF_ERROR(FetchProbeChunk());
    if (input_.ActiveCount() == 0) {
      input_exhausted_ = true;
      continue;
    }
    // Probe hashing, residual gathers, and pair emission read the probe
    // columns positionally; decode any encoded columns first.
    input_.NormalizeColumns();
    VWISE_RETURN_IF_ERROR(ProcessProbeChunk());
    if (spec_.type == JoinType::kLeftSemi || spec_.type == JoinType::kLeftAnti) {
      VWISE_RETURN_IF_ERROR(EmitSemiAnti(out));
      if (out->ActiveCount() == 0) continue;  // nothing qualified: next chunk
      return Status::OK();
    }
  }
}

void HashJoinOperator::Close() {
  probe_->Close();
  // Normally closed at the end of ConsumeBuildSide; close again (idempotent)
  // so an error/cancel unwind still reaches fragments below.
  build_->Close();
  build_key_cols_.clear();
  build_payload_cols_.clear();
  bucket_heads_.clear();
  chain_next_.clear();
  probe_reader_.reset();
  spill_.Drop();
  probe_partitioned_ = false;
  build_bytes_ = 0;
  probe_hashes_.Release();
  probe_pos_.Release();
  build_row_idx_.Release();
  residual_sel_.Release();
  mem_.ReleaseAll();
}

}  // namespace vwise
