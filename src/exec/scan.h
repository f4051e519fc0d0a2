#ifndef VWISE_EXEC_SCAN_H_
#define VWISE_EXEC_SCAN_H_

#include <memory>
#include <vector>

#include "compression/codec.h"
#include "exec/operator.h"
#include "scan/scan_scheduler.h"
#include "txn/transaction_manager.h"
#include "vector/vector_scratch.h"

namespace vwise {

// Hint that column `col` is filtered to [lo, hi]; stripes whose min-max
// range misses it are skipped (X100 MinMax indexes). Only applied when the
// snapshot carries no deltas — a stripe skipped for its stable content
// could still anchor inserted rows.
struct ScanRange {
  uint32_t col;
  int64_t lo;
  int64_t hi;
};

// Vectorized table scan: opens one segment reader per column and stripe
// (through the buffer manager and, optionally, a cooperative-scan
// scheduler), merges in PDT deltas by position and decodes each range of
// contiguous stable rows straight into the output vectors, patching the
// modified values over it. Emits dense chunks; a chunk never spans stripes.
class ScanOperator final : public Operator {
 public:
  struct Options {
    std::vector<ScanRange> ranges;
    ScanScheduler* scheduler = nullptr;  // nullptr: sequential stripe order
    // Partition for parallel scans: stripes [stripe_begin, stripe_end).
    size_t stripe_begin = 0;
    size_t stripe_end = SIZE_MAX;
  };

  // Scans `columns` (table column indices) of `snap`.
  ScanOperator(TableSnapshot snap, std::vector<uint32_t> columns,
               const Config& config, Options opts);
  ScanOperator(TableSnapshot snap, std::vector<uint32_t> columns,
               const Config& config);
  ~ScanOperator() override;

  const std::vector<TypeId>& OutputTypes() const override { return out_types_; }
  Status Next(DataChunk* out) override;
  void Close() override;

  // Stripes actually decoded (tests: min-max skipping, coop scans).
  size_t stripes_read() const { return stripes_read_; }

  // Columns published per representation across all emitted chunks
  // (compressed-execution observability; EXPLAIN ANALYZE renders these as
  // `repr=dict:N/rle:N/flat:N`).
  struct ReprStats {
    uint64_t dict_cols = 0;
    uint64_t rle_cols = 0;
    uint64_t flat_cols = 0;
  };
  const ReprStats& repr_stats() const { return repr_stats_; }

  // Static-analysis surface (plan verifier).
  const TableSnapshot& snapshot() const { return snap_; }
  const std::vector<uint32_t>& columns() const { return columns_; }
  const Options& options() const { return opts_; }

 private:
  // Chunk-local RLE view published into an output vector: rebased run starts
  // plus a reference pinning the stripe's run values. Handed to
  // Vector::SetRle as the keepalive, so a consumer that Reference()s the
  // chunk keeps the view alive past the next Next(); the scan then
  // allocates a fresh view instead of overwriting the referenced one.
  struct RleView {
    std::shared_ptr<std::vector<uint8_t>> values;
    std::vector<uint32_t> starts;
  };

  // One projected column of the current stripe: its segment reader (which
  // pins the blob) and, under compressed execution, the encoding adopted
  // for it. kFlat columns decode per merge event straight into the output
  // vector; kDict/kRle columns are published as views after the merge loop.
  struct ColumnCursor {
    compression::SegmentReader reader;
    VectorRepr repr = VectorRepr::kFlat;
    // kDict: the stripe's codes; the buffer is reused by later stripes once
    // no dict view references it.
    std::shared_ptr<Buffer> dict_codes;
  };

  // A modified stable row of the current range: its output position and the
  // record whose `mods` are stored over the range's decoded values.
  struct Patch {
    size_t pos;
    const PdtRecord* rec;
  };
  // Contiguous stable rows [local, local + n) of the stripe, emitted at
  // output positions [out, out + n), with the first n_patches entries of
  // the patch list.
  struct StableRange {
    size_t local = 0;
    size_t out = 0;
    size_t n = 0;
    size_t n_patches = 0;
  };

  Status OpenImpl() override;
  Status AdvanceStripe(bool* done);
  Status FlushRange(StableRange* range, DataChunk* out);
  bool StripeQualifies(size_t stripe) const;
  void PublishRleRange(const compression::SegmentReader& reader, size_t begin,
                       size_t n, std::shared_ptr<RleView>* scratch,
                       Vector* out_vec);

  TableSnapshot snap_;
  std::vector<uint32_t> columns_;
  Config config_;
  Options opts_;
  std::vector<TypeId> out_types_;

  // Scan state.
  std::vector<size_t> pending_;  // stripes not yet scanned (sequential mode)
  size_t pending_pos_ = 0;
  std::unique_ptr<ScanScheduler::Handle> sched_handle_;
  bool tail_done_ = false;       // trailing inserts handled (or not owned)
  bool virtual_tail_pending_ = false;

  std::vector<ColumnCursor> cols_;
  std::unique_ptr<Pdt::MergeScanner> merge_;
  uint64_t stripe_first_row_ = 0;
  bool in_stripe_ = false;
  bool stripe_has_columns_ = false;  // false in the virtual tail pass
  const Pdt* pdt_ = nullptr;  // snapshot deltas or the shared empty PDT
  std::shared_ptr<StringHeap> insert_heap_;  // bytes of delta-row strings
  size_t stripes_read_ = 0;
  // Compressed execution: true when this scan may adopt PDICT/RLE segments
  // without decoding — the knob is on and the snapshot carries no deltas
  // (delta merging writes through flat buffers).
  bool encoded_ok_ = false;
  std::vector<std::shared_ptr<RleView>> rle_views_;  // per column scratch
  // Patch list of the current range (vector_size entries), leased from the
  // query's scratch arena.
  ScratchHandle patches_;
  ReprStats repr_stats_;
};

}  // namespace vwise

#endif  // VWISE_EXEC_SCAN_H_
