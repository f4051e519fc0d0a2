#ifndef VWISE_EXEC_HASH_AGG_H_
#define VWISE_EXEC_HASH_AGG_H_

#include <vector>

#include "exec/column_store.h"
#include "exec/operator.h"
#include "exec/radix_spill.h"
#include "service/query_context.h"

namespace vwise {

// One aggregate function over an input column.
struct AggSpec {
  enum class Fn : uint8_t { kSum, kMin, kMax, kCount, kCountStar, kAvg };
  Fn fn;
  size_t col = 0;  // ignored for kCountStar

  static AggSpec Sum(size_t col) { return {Fn::kSum, col}; }
  static AggSpec Min(size_t col) { return {Fn::kMin, col}; }
  static AggSpec Max(size_t col) { return {Fn::kMax, col}; }
  static AggSpec Count(size_t col) { return {Fn::kCount, col}; }
  static AggSpec CountStar() { return {Fn::kCountStar, 0}; }
  static AggSpec Avg(size_t col) { return {Fn::kAvg, col}; }
};

// Vectorized hash aggregation (grouped or, with no group columns, a single
// global group). Hashes are computed a vector at a time; group resolution
// fills a per-chunk group-index array that the per-aggregate update loops
// then consume — no per-row function dispatch.
//
// Output: group columns, then one column per aggregate (sum keeps the input
// physical type for i64, widens to f64 otherwise; count is i64; avg is f64;
// min/max keep the input type).
//
// Each aggregate's state layout is fixed at construction from the input
// types: a value lane (i64 or f64), a count lane or none, and the output
// type. That one layout drives the output types, new-group state, the
// spill state rows, their merge and the emitted columns.
//
// When the group table overruns the query's memory budget, the operator
// degrades to radix-partitioned spilling (RadixSpill, one side): the table
// is flushed to disk as mergeable "state rows" (keys + per-aggregate state
// lanes), partitioned by the high bits of the group hash, and cleared; at
// emit time the partitions are reloaded one at a time and merge-aggregated,
// so every partition needs only its own share of the budget. Spilling
// changes the group output order (partition-major instead of
// first-appearance) but not the set of rows.
class HashAggOperator final : public Operator {
 public:
  HashAggOperator(OperatorPtr child, std::vector<size_t> group_cols,
                  std::vector<AggSpec> aggs, const Config& config);
  ~HashAggOperator() override;

  const std::vector<TypeId>& OutputTypes() const override { return out_types_; }
  Status Next(DataChunk* out) override;
  void Close() override;

  size_t num_groups() const { return n_groups_; }

  // Static-analysis surface (plan verifier).
  const Operator& child() const { return *child_; }
  const std::vector<size_t>& group_cols() const { return group_cols_; }
  const std::vector<AggSpec>& aggs() const { return aggs_; }
  // Spill telemetry (EXPLAIN ANALYZE); outlives Close().
  const RadixSpill::Stats& spill_stats() const { return spill_.stats(); }

 private:
  Status OpenImpl() override;
  Status ConsumeInput();
  // Mutable chunk: encoded group-key columns are normalized in place, and
  // encoded aggregate inputs either take the per-run RLE fast path (global
  // aggregates) or normalize on demand.
  Status ProcessChunk(DataChunk& chunk);
  void ResizeTable(size_t buckets);
  uint32_t FindOrCreateGroup(const DataChunk& chunk, sel_t pos, uint64_t hash,
                             const std::vector<size_t>& key_cols);
  // Appends group n_groups_ with hash `hash` and zeroed aggregate states; the
  // caller stores its key and table slot.
  void AppendGroup(uint64_t hash);

  // Flushes the whole group table to the radix partitions (opening them on
  // first use) and clears it, giving its reservation back.
  Status SpillGroups();
  // Emit phase: merges pending partitions until one yields groups or none is
  // left, splitting a partition whose groups alone overflow the budget.
  Status LoadNextPartition();
  // Re-aggregates the current spilled partition into the (empty) table.
  Status LoadPartition();
  // Merge-aggregates a chunk of state rows (the spill-side ProcessChunk).
  Status ProcessStateChunk(const DataChunk& chunk);
  // Resets the group table (and the emit cursor into it) and returns its
  // budget reservation.
  void ClearTable();

  OperatorPtr child_;
  std::vector<size_t> group_cols_;
  std::vector<AggSpec> aggs_;
  Config config_;
  std::vector<TypeId> out_types_;

  // Group keys (owned copies) + open-addressing table of group indices.
  std::vector<ColumnStore> key_stores_;
  std::vector<uint64_t> group_hashes_;
  std::vector<uint32_t> slots_;
  uint64_t slot_mask_ = 0;
  size_t n_groups_ = 0;

  // Per-aggregate state layout and its columns in a spill state row (the
  // key columns first, then each aggregate's lanes).
  struct AggLayout {
    bool is_i64;       // value lane type: i64, else f64
    size_t value_col;  // state-row column of the value lane
    size_t count_col;  // count lane (min/max first touch, avg), or SIZE_MAX
  };
  std::vector<AggLayout> layout_;
  std::vector<TypeId> state_types_;
  std::vector<size_t> identity_cols_;  // 0..n_keys-1: key cols of a state row

  // Aggregate states, one entry per group in the lanes layout_ names.
  struct AggState {
    std::vector<int64_t> i64;
    std::vector<double> f64;
    std::vector<int64_t> count;
  };
  std::vector<AggState> states_;

  // Scratch, leased from the query's VectorScratch arena in OpenImpl and
  // held for the operator's lifetime — Next()/ProcessChunk touch no
  // allocator.
  ScratchHandle hash_scratch_;  // uint64_t[vector_size]
  ScratchHandle group_idx_;     // uint32_t[vector_size]
  ScratchHandle emit_idx_;      // uint32_t[vector_size], emit-phase gather
  bool consumed_ = false;
  size_t emit_cursor_ = 0;

  // Per-query memory budget accounting: a worst-case bound (every row of the
  // incoming slice a fresh group) is reserved BEFORE insertion and trimmed to
  // the groups actually created afterwards, released in Close().
  MemoryReservation mem_;
  size_t per_group_bytes_ = 0;
  size_t reserved_groups_ = 0;

  // Radix spilling; inactive unless the budget forced a flush.
  RadixSpill spill_;
};

}  // namespace vwise

#endif  // VWISE_EXEC_HASH_AGG_H_
