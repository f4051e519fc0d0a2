#ifndef VWISE_EXEC_RADIX_SPILL_H_
#define VWISE_EXEC_RADIX_SPILL_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/config.h"
#include "common/result.h"
#include "common/status.h"
#include "service/query_context.h"
#include "vector/chunk.h"

namespace vwise {

class SpillWriter;  // storage/spill_file.h
class SpillReader;

// The spill trigger every pipeline breaker polls after buffering a chunk:
// true when a breaker holding `held_bytes` of reservation should flush now
// instead of waiting for its next Grow to fail. Either the memory governor
// reports queries waiting for global memory (and the breaker holds at least
// Config::pressure_spill_min_bytes, so tiny operators don't thrash the spill
// path to free negligible memory — such a spill is counted in the governor
// stats), or the breaker holds more than half the query budget: the
// coexistence cap that keeps stacked breakers (a join under an aggregation
// under a sort) from starving each other's buffers and partition reloads.
bool ShouldSpill(QueryContext* ctx, const Config& config, size_t held_bytes);

// Grace radix partitioning, the one spill mechanism of the hash breakers.
// A partition has one file per "side": hash join spills two (build rows and
// probe rows, which must meet in the same partition), hash aggregation one
// (mergeable group-state rows). Each side declares which of its columns
// form the key, and rows are routed by HashKeys over them — the key hash
// the operators' tables use (exec/key_hash.h). The caller keeps its
// table-specific work (the in-memory flush gather, partition load, merge and
// probe); this class owns routing, the partition files and their lifetime.
//
// Consume phase: OpenSide creates a side's level-0 writer set (the first
// call fixes the fanout, Config::spill_partitions), Flush writes the
// caller's in-memory rows, Route streams chunks, CloseWriters closes them.
// Level L routes on hash bits [56 - 8L, 64 - 8L): partitioning on high bits
// leaves the low bits the tables mask intact.
//
// Partition phase: NextPartition pops the next partition (depth first) as
// the current one; the caller loads it via ReadCurrent / OpenCurrent. When a
// load overruns the budget, Repartition splits the current partition onto
// the next radix level — up to Config::spill_max_repartition_depth — and the
// caller retries with its children. Every file is owned here: the current
// partition's files go at the next NextPartition / DropCurrent, and Drop
// (Close, destruction) removes whatever is left, on success or on error.
class RadixSpill {
 public:
  // EXPLAIN ANALYZE telemetry: radix partitions written, oversized
  // partitions split onto a fresh radix level, and the deepest level reached
  // (0 = the initial flush sufficed). Survives Drop() — the profile is
  // rendered after the tree is closed — and resets on Bind().
  struct Stats {
    size_t partitions = 0;
    size_t repartitions = 0;
    size_t depth = 0;
  };

  // `config` is the owning operator's copy and must outlive this object.
  RadixSpill(const Config& config, size_t sides);
  ~RadixSpill();
  RadixSpill(const RadixSpill&) = delete;
  RadixSpill& operator=(const RadixSpill&) = delete;

  // Open-time reset: drops any files from a previous execution, clears the
  // stats and binds the query whose scratch directory and budget apply.
  void Bind(QueryContext* ctx);

  // True once the level-0 partitions exist, until Drop().
  bool active() const { return n_partitions_ > 0; }
  const Stats& stats() const { return stats_; }

  // --- consume phase -------------------------------------------------------
  // Creates side `side`'s level-0 files, tagged `tag`, holding `types` rows
  // whose key is the columns `key_cols`.
  Status OpenSide(size_t side, const char* tag, std::vector<TypeId> types,
                  std::vector<size_t> key_cols);
  // Writes the caller's in-memory rows [0, rows): row r goes to the
  // partition of row_hash(r), its key hash, gathered in vector-sized
  // batches by `gather(ids, n, out)` into a chunk of the side's schema.
  Status Flush(size_t side, size_t rows,
               const std::function<uint64_t(uint32_t)>& row_hash,
               const std::function<void(const uint32_t*, size_t, DataChunk*)>&
                   gather);
  // Routes the active rows of `chunk` (side's schema) to their partitions.
  Status Route(size_t side, const DataChunk& chunk);
  // Closes the open level-0 writers; their files stay pending.
  void CloseWriters();

  // --- partition phase -----------------------------------------------------
  // Removes the current partition's files and makes the next pending
  // partition current. False when none is left.
  bool NextPartition();
  // Streams side `side` of the current partition through `fn`, one dense
  // chunk at a time, checking for cancellation before each chunk.
  Status ReadCurrent(size_t side,
                     const std::function<Status(const DataChunk&)>& fn);
  // A reader over side `side` of the current partition.
  Result<std::unique_ptr<SpillReader>> OpenCurrent(size_t side);
  // Handles a failed load of the current partition. A budget failure below
  // the depth bound splits the partition onto the next radix level (its
  // children become the next pending partitions) and returns OK, so the
  // caller retries; any other failure comes back unchanged. The caller drops
  // what the failed load left resident first.
  Status Repartition(Status load);
  void DropCurrent();

  // Closes every writer and removes every file still owned.
  void Drop();

 private:
  struct Side {
    std::string tag;
    std::vector<TypeId> types;
    std::vector<size_t> key_cols;
    std::vector<std::unique_ptr<SpillWriter>> writers;  // level 0, when open
  };
  // A spilled partition: one file per side.
  struct Partition {
    std::vector<std::string> paths;
    size_t level = 0;
  };

  Status RouteTo(size_t side, const DataChunk& chunk, size_t level,
                 const std::vector<std::unique_ptr<SpillWriter>>& writers);
  size_t RepartitionFanout(uint64_t part_bytes) const;
  static void RemoveFiles(Partition* part);

  const Config& config_;
  std::vector<Side> sides_;
  QueryContext* ctx_ = nullptr;
  size_t n_partitions_ = 0;           // level-0 fanout; 0 = not spilled
  std::deque<Partition> pending_;     // depth-first: children go in front
  Partition current_;                 // the partition being loaded
  std::vector<uint64_t> hashes_;      // per-chunk routing scratch
  std::vector<std::vector<sel_t>> buckets_;
  Stats stats_;
};

}  // namespace vwise

#endif  // VWISE_EXEC_RADIX_SPILL_H_
