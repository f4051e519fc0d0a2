#include "exec/scan.h"

#include <algorithm>

#include "service/query_context.h"

namespace vwise {

namespace {

const Pdt& EmptyPdt() {
  static const Pdt* empty = new Pdt();
  return *empty;
}

// Writes a boundary Value into position `pos` of `vec`; string bytes go to
// `heap` (the scan's delta-row heap, already attached to the vector).
void StoreValue(Vector* vec, size_t pos, const Value& v, StringHeap* heap) {
  switch (vec->type()) {
    case TypeId::kU8:
      vec->Data<uint8_t>()[pos] = static_cast<uint8_t>(v.AsInt());
      break;
    case TypeId::kI32:
      vec->Data<int32_t>()[pos] = static_cast<int32_t>(v.AsInt());
      break;
    case TypeId::kI64:
      vec->Data<int64_t>()[pos] = v.AsInt();
      break;
    case TypeId::kF64:
      vec->Data<double>()[pos] = v.AsDouble();
      break;
    case TypeId::kStr:
      vec->Data<StringVal>()[pos] = heap->Add(v.AsString());
      break;
  }
}

// Address of position `pos` of flat vector `vec`.
void* Slot(Vector* vec, size_t pos) {
  return static_cast<uint8_t*>(vec->raw()) + pos * TypeWidth(vec->type());
}

}  // namespace

ScanOperator::ScanOperator(TableSnapshot snap, std::vector<uint32_t> columns,
                           const Config& config, Options opts)
    : snap_(std::move(snap)),
      columns_(std::move(columns)),
      config_(config),
      opts_(std::move(opts)) {
  for (uint32_t c : columns_) {
    out_types_.push_back(snap_.schema->column(c).type.physical());
  }
  pdt_ = snap_.deltas ? snap_.deltas.get() : &EmptyPdt();
}

ScanOperator::ScanOperator(TableSnapshot snap, std::vector<uint32_t> columns,
                           const Config& config)
    : ScanOperator(std::move(snap), std::move(columns), config, Options()) {}

ScanOperator::~ScanOperator() = default;

bool ScanOperator::StripeQualifies(size_t stripe) const {
  // Min-max skipping is only sound when the stripe carries no deltas; we
  // keep it simple (and safe) by requiring an empty PDT.
  if (!config_.enable_minmax_skipping || !pdt_->empty()) return true;
  for (const ScanRange& r : opts_.ranges) {
    if (!snap_.stable->StripeOverlapsRange(stripe, r.col, r.lo, r.hi)) {
      return false;
    }
  }
  return true;
}

Status ScanOperator::OpenImpl() {
  size_t n_stripes = snap_.stable->stripe_count();
  size_t begin = std::min(opts_.stripe_begin, n_stripes);
  size_t end = std::min(opts_.stripe_end, n_stripes);
  pending_.clear();
  for (size_t s = begin; s < end; s++) {
    if (StripeQualifies(s)) pending_.push_back(s);
  }
  pending_pos_ = 0;
  if (opts_.scheduler != nullptr) {
    sched_handle_ = opts_.scheduler->Register(snap_.stable.get(), pending_);
  }
  // This scan owns the trailing inserts iff its range covers the table end.
  virtual_tail_pending_ = end == n_stripes;
  tail_done_ = false;
  in_stripe_ = false;
  stripes_read_ = 0;
  cols_.resize(columns_.size());
  insert_heap_ = std::make_shared<StringHeap>();
  // Encoded adoption is only sound when every emitted row comes verbatim
  // from a stable stripe: delta merging (updates/inserts) writes through the
  // flat buffers, so any pending deltas force the eager-decode path.
  encoded_ok_ = config_.enable_encoded_exec && pdt_->empty();
  rle_views_.assign(columns_.size(), nullptr);
  repr_stats_ = ReprStats();
  // One patch per modified row of a range. A range ends when the list is
  // full, which a chunk of at most vector_size rows never reaches.
  patches_ = ctx()->scratch()->AcquireArray<Patch>(config_.vector_size);
  return Status::OK();
}

Status ScanOperator::AdvanceStripe(bool* done) {
  size_t stripe = SIZE_MAX;
  if (sched_handle_ != nullptr) {
    auto next = opts_.scheduler->Next(sched_handle_.get());
    if (next.has_value()) stripe = *next;
  } else if (pending_pos_ < pending_.size()) {
    stripe = pending_[pending_pos_++];
  }
  if (stripe == SIZE_MAX) {
    // No stripes left: possibly one last merge pass over the trailing
    // inserts anchored at the table end (always the case for empty tables,
    // also when the last stripe was skipped or handled without tail rights).
    if (virtual_tail_pending_ && !tail_done_) {
      tail_done_ = true;
      uint64_t n = snap_.stable->row_count();
      merge_ = std::make_unique<Pdt::MergeScanner>(*pdt_, n, n, n, true);
      stripe_first_row_ = n;
      in_stripe_ = true;
      stripe_has_columns_ = false;
      *done = false;
      return Status::OK();
    }
    *done = true;
    return Status::OK();
  }
  for (size_t i = 0; i < columns_.size(); i++) {
    ColumnCursor& col = cols_[i];
    VWISE_RETURN_IF_ERROR(
        snap_.stable->OpenSegment(stripe, columns_[i], &col.reader));
    col.repr = VectorRepr::kFlat;
    if (!encoded_ok_) continue;
    // Adopt PDICT and RLE segments in their storage encoding: codes for the
    // stripe, or the reader's run arrays, sliced per chunk after the merge.
    if (col.reader.codec() == Codec::kPdict) {
      uint32_t n = col.reader.count();
      size_t bytes = static_cast<size_t>(n) * 4;
      col.repr = VectorRepr::kDict;
      // Codes are shared with dict views; reuse the buffer once nothing else
      // does.
      if (col.dict_codes == nullptr || col.dict_codes.use_count() > 1 ||
          col.dict_codes->capacity() < bytes) {
        col.dict_codes = Buffer::Allocate(bytes);
      }
      VWISE_RETURN_IF_ERROR(
          col.reader.ReadCodes(0, n, col.dict_codes->As<uint32_t>()));
    } else if (col.reader.codec() == Codec::kRle) {
      col.repr = VectorRepr::kRle;
    }
  }
  stripes_read_++;
  uint64_t first = snap_.stable->stripe_first_row(stripe);
  uint64_t rows = snap_.stable->stripe(stripe).rows;
  bool is_last = first + rows == snap_.stable->row_count();
  bool include_end = is_last && virtual_tail_pending_ && !tail_done_;
  if (include_end) tail_done_ = true;
  merge_ = std::make_unique<Pdt::MergeScanner>(
      *pdt_, snap_.stable->row_count(), first, first + rows, include_end);
  stripe_first_row_ = first;
  in_stripe_ = true;
  stripe_has_columns_ = true;
  *done = false;
  return Status::OK();
}

Status ScanOperator::Next(DataChunk* out) {
  // The per-vector cancellation/deadline poll for every leaf pipeline: each
  // Next() emits at most one vector, so a cancel unwinds the plan within one
  // vector boundary.
  VWISE_RETURN_IF_ERROR(ctx()->Check());
  // Rewind the delta-string arena for this chunk when no consumer still
  // references the previous chunk's bytes (the chunk data contract: vectors
  // are valid only until the next Next()). A scan over a delta-heavy table
  // then reuses one buffer instead of growing without bound.
  if (insert_heap_.use_count() == 1) insert_heap_->Reset();
  size_t cap = out->capacity();
  size_t filled = 0;
  // Stripe-local offset of the chunk's first stable row; anchors the
  // encoded (codes/runs) views published after the merge loop. With
  // encoded_ok_ the PDT is empty, so a chunk is one contiguous stable range.
  size_t chunk_begin = SIZE_MAX;
  while (true) {
    if (!in_stripe_) {
      if (filled > 0) break;  // never mix stripes in one chunk
      bool done = false;
      // vwise-hotpath: allow(cold-call): stripe boundary — decode I/O and
      // merge-scanner setup run once per stripe, not per vector
      VWISE_RETURN_IF_ERROR(AdvanceStripe(&done));
      if (done) break;
    }
    // Attach the heaps backing any strings this chunk may reference.
    for (size_t i = 0; i < columns_.size(); i++) {
      if (out_types_[i] != TypeId::kStr) continue;
      if (stripe_has_columns_ && cols_[i].reader.string_heap()) {
        out->column(i).AddStringHeapRef(cols_[i].reader.string_heap());
      }
      out->column(i).AddStringHeapRef(insert_heap_);
    }
    // Stable and modified rows accumulate into one range of contiguous
    // stable positions, decoded with one Read per flat column and then
    // patched with the range's modify records (column-wise merge). A
    // delete, an insert, the chunk end, the stripe end or a full patch list
    // ends the range.
    StableRange range;
    Pdt::MergeEvent ev;
    while (filled < cap && merge_->Next(&ev, cap - filled)) {
      switch (ev.kind) {
        case Pdt::MergeEvent::kStableRun:
        case Pdt::MergeEvent::kModifiedRow: {
          size_t local = static_cast<size_t>(ev.sid - stripe_first_row_);
          if (range.n > 0 && (local != range.local + range.n ||
                              range.n_patches == config_.vector_size)) {
            VWISE_RETURN_IF_ERROR(FlushRange(&range, out));
          }
          if (range.n == 0) {
            range.local = local;
            range.out = filled;
          }
          if (chunk_begin == SIZE_MAX) chunk_begin = local;
          size_t n = 1;
          if (ev.kind == Pdt::MergeEvent::kStableRun) {
            n = static_cast<size_t>(ev.count);
          } else {
            patches_.data<Patch>()[range.n_patches++] = {filled, ev.rec};
          }
          range.n += n;
          filled += n;
          break;
        }
        case Pdt::MergeEvent::kDeletedRow:
          break;
        case Pdt::MergeEvent::kInsertedRow: {
          VWISE_RETURN_IF_ERROR(FlushRange(&range, out));
          for (size_t i = 0; i < columns_.size(); i++) {
            StoreValue(&out->column(i), filled, ev.rec->row[columns_[i]],
                       insert_heap_.get());
          }
          filled++;
          break;
        }
      }
    }
    VWISE_RETURN_IF_ERROR(FlushRange(&range, out));
    if (filled >= cap) break;
    in_stripe_ = false;  // merge exhausted for this stripe
  }
  if (filled > 0) {
    for (size_t i = 0; i < columns_.size(); i++) {
      const ColumnCursor& col = cols_[i];
      if (!stripe_has_columns_ || col.repr == VectorRepr::kFlat) {
        repr_stats_.flat_cols++;
        continue;
      }
      VWISE_DCHECK(chunk_begin != SIZE_MAX);
      VWISE_DCHECK(chunk_begin + filled <= col.reader.count());
      if (col.repr == VectorRepr::kDict) {
        out->column(i).SetDict(col.dict_codes->As<uint32_t>() + chunk_begin,
                               col.reader.dict(), col.dict_codes);
        repr_stats_.dict_cols++;
      } else {
        PublishRleRange(col.reader, chunk_begin, filled, &rle_views_[i],
                        &out->column(i));
        repr_stats_.rle_cols++;
      }
    }
  }
  out->SetCount(filled);
  return Status::OK();
}

// Decodes `*range` into the flat output columns, then stores each patch's
// modified values at its output position in every column that projects the
// modified table column (a column may be projected twice). Leaves `*range`
// empty.
Status ScanOperator::FlushRange(StableRange* range, DataChunk* out) {
  if (range->n == 0) return Status::OK();
  for (size_t i = 0; i < columns_.size(); i++) {
    // Encoded columns are published as views after the merge loop instead
    // of being decoded.
    if (cols_[i].repr == VectorRepr::kFlat) {
      VWISE_RETURN_IF_ERROR(cols_[i].reader.Read(
          range->local, range->n, Slot(&out->column(i), range->out)));
    }
  }
  const Patch* patches = patches_.data<Patch>();
  for (size_t p = 0; p < range->n_patches; p++) {
    for (const auto& [col, value] : patches[p].rec->mods) {
      for (size_t i = 0; i < columns_.size(); i++) {
        if (columns_[i] == col) {
          StoreValue(&out->column(i), patches[p].pos, value,
                     insert_heap_.get());
        }
      }
    }
  }
  *range = StableRange();
  return Status::OK();
}

// Slices the stripe's runs down to the chunk range [begin, begin + n) and
// publishes them on `out_vec`, rebased so starts[0] == 0 and
// starts[n_runs] == n (the chunk-local run contract, vector.h).
void ScanOperator::PublishRleRange(const compression::SegmentReader& reader,
                                   size_t begin, size_t n,
                                   std::shared_ptr<RleView>* scratch,
                                   Vector* out_vec) {
  const std::vector<uint32_t>& starts = *reader.rle_starts();
  // First and last run overlapping the range: the largest r with
  // starts[r] <= row (starts is ascending, starts.front() == 0).
  size_t r0 = static_cast<size_t>(std::upper_bound(starts.begin(), starts.end(),
                                                   static_cast<uint32_t>(begin)) -
                                  starts.begin()) -
              1;
  size_t r1 = static_cast<size_t>(
                  std::upper_bound(starts.begin(), starts.end(),
                                   static_cast<uint32_t>(begin + n - 1)) -
                  starts.begin()) -
              1;
  size_t m = r1 - r0 + 1;
  if (*scratch == nullptr || scratch->use_count() > 1) {
    // vwise-hotpath: allow(alloc): first chunk, or a consumer still
    // references the previous chunk's view — steady state reuses the scratch
    *scratch = std::make_shared<RleView>();
  }
  RleView& view = **scratch;
  view.values = reader.rle_values();
  // vwise-hotpath: allow(alloc): capacity persists across chunks, bounded by
  // runs per vector
  view.starts.resize(m + 1);
  view.starts[0] = 0;
  for (size_t k = 1; k < m; k++) {
    view.starts[k] = starts[r0 + k] - static_cast<uint32_t>(begin);
  }
  view.starts[m] = static_cast<uint32_t>(n);
  out_vec->SetRle(view.values->data() + r0 * TypeWidth(reader.type()),
                  view.starts.data(), static_cast<uint32_t>(m), *scratch);
}

void ScanOperator::Close() {
  if (sched_handle_ != nullptr && opts_.scheduler != nullptr) {
    opts_.scheduler->Finish(sched_handle_.get());
    sched_handle_.reset();
  }
  merge_.reset();
  cols_.clear();
  rle_views_.clear();
  patches_.Release();
}

}  // namespace vwise
