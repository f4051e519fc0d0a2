#include "exec/radix_spill.h"

#include <algorithm>
#include <filesystem>
#include <system_error>

#include "common/failpoint.h"
#include "exec/key_hash.h"
#include "storage/spill_file.h"

namespace vwise {

namespace {

// A fresh radix byte per level: level L routes on hash bits
// [56 - 8L, 64 - 8L), so children split what their parent could not. Depth
// is bounded by Config::spill_max_repartition_depth (and usefully by the 8
// hash bytes); a duplicate-key flood that no byte can split exhausts the
// bound and fails cleanly.
size_t RadixShift(size_t level) { return 56 - 8 * (level <= 7 ? level : 7); }

}  // namespace

bool ShouldSpill(QueryContext* ctx, const Config& config, size_t held_bytes) {
  if (held_bytes == 0) return false;
  if (held_bytes >= config.pressure_spill_min_bytes && ctx->MemoryPressure()) {
    ctx->NotePressureSpill();
    return true;
  }
  return ctx->memory_budget() > 0 && held_bytes > ctx->memory_budget() / 2;
}

RadixSpill::RadixSpill(const Config& config, size_t sides)
    : config_(config), sides_(sides) {}

RadixSpill::~RadixSpill() { Drop(); }

void RadixSpill::Bind(QueryContext* ctx) {
  Drop();
  ctx_ = ctx;
  stats_ = Stats();
}

Status RadixSpill::OpenSide(size_t side, const char* tag,
                            std::vector<TypeId> types,
                            std::vector<size_t> key_cols) {
  if (n_partitions_ == 0) {
    n_partitions_ = SpillPartitionCount(config_.spill_partitions);
    stats_.partitions = n_partitions_;
    pending_.assign(n_partitions_,
                    Partition{std::vector<std::string>(sides_.size()), 0});
  }
  Side& s = sides_[side];
  s.tag = tag;
  s.types = std::move(types);
  s.key_cols = std::move(key_cols);
  for (Partition& part : pending_) {
    // The path is owned before the file exists, so Drop removes even a
    // half-created set.
    VWISE_ASSIGN_OR_RETURN(part.paths[side], ctx_->NewSpillPath(tag));
    std::unique_ptr<SpillWriter> writer;
    VWISE_ASSIGN_OR_RETURN(writer,
                           SpillWriter::Create(part.paths[side], s.types,
                                               &ctx_->spill_counters()));
    s.writers.push_back(std::move(writer));
  }
  return Status::OK();
}

Status RadixSpill::Flush(
    size_t side, size_t rows, const std::function<uint64_t(uint32_t)>& row_hash,
    const std::function<void(const uint32_t*, size_t, DataChunk*)>& gather) {
  Side& s = sides_[side];
  buckets_.resize(n_partitions_);
  for (auto& ids : buckets_) ids.clear();
  for (uint32_t row = 0; row < rows; row++) {
    buckets_[(row_hash(row) >> RadixShift(0)) & (n_partitions_ - 1)]
        .push_back(row);
  }
  DataChunk scratch;
  scratch.Init(s.types, config_.vector_size);
  for (size_t p = 0; p < n_partitions_; p++) {
    const std::vector<sel_t>& ids = buckets_[p];
    for (size_t i = 0; i < ids.size(); i += scratch.capacity()) {
      VWISE_RETURN_IF_ERROR(ctx_->Check());
      size_t batch = std::min(scratch.capacity(), ids.size() - i);
      scratch.Reset();
      gather(ids.data() + i, batch, &scratch);
      scratch.SetCount(batch);
      VWISE_RETURN_IF_ERROR(s.writers[p]->Append(scratch));
    }
  }
  return Status::OK();
}

Status RadixSpill::Route(size_t side, const DataChunk& chunk) {
  return RouteTo(side, chunk, 0, sides_[side].writers);
}

Status RadixSpill::RouteTo(
    size_t side, const DataChunk& chunk, size_t level,
    const std::vector<std::unique_ptr<SpillWriter>>& writers) {
  size_t n = chunk.ActiveCount();
  const sel_t* sel = chunk.sel();
  size_t fanout = writers.size();
  hashes_.resize(n);
  HashKeys(chunk, sides_[side].key_cols, hashes_.data());
  buckets_.resize(fanout);
  for (auto& rows : buckets_) rows.clear();
  for (size_t i = 0; i < n; i++) {
    buckets_[(hashes_[i] >> RadixShift(level)) & (fanout - 1)].push_back(
        sel ? sel[i] : static_cast<sel_t>(i));
  }
  for (size_t f = 0; f < fanout; f++) {
    VWISE_RETURN_IF_ERROR(
        writers[f]->AppendRows(chunk, buckets_[f].data(), buckets_[f].size()));
  }
  return Status::OK();
}

void RadixSpill::CloseWriters() {
  for (Side& s : sides_) s.writers.clear();
}

bool RadixSpill::NextPartition() {
  DropCurrent();
  if (pending_.empty()) return false;
  current_ = std::move(pending_.front());
  pending_.pop_front();
  return true;
}

Status RadixSpill::ReadCurrent(
    size_t side, const std::function<Status(const DataChunk&)>& fn) {
  std::unique_ptr<SpillReader> reader;
  VWISE_ASSIGN_OR_RETURN(reader, OpenCurrent(side));
  DataChunk chunk;
  chunk.Init(sides_[side].types, config_.vector_size);
  while (true) {
    VWISE_RETURN_IF_ERROR(ctx_->Check());
    bool more = false;
    VWISE_ASSIGN_OR_RETURN(more, reader->Next(&chunk));
    if (!more) return Status::OK();
    VWISE_RETURN_IF_ERROR(fn(chunk));
  }
}

Result<std::unique_ptr<SpillReader>> RadixSpill::OpenCurrent(size_t side) {
  return SpillReader::Open(current_.paths[side], sides_[side].types,
                           &ctx_->spill_counters());
}

size_t RadixSpill::RepartitionFanout(uint64_t part_bytes) const {
  // Aim each child at a fraction of the budget: serialized spill bytes
  // understate resident bytes (string headers, table slots and hashes), and
  // a join's reload must coexist with its probe stream. Per-level fanout is
  // capped at the configured partition count — every child holds open
  // writers with their own buffers, so one level never fans wider than the
  // initial flush did; depth supplies the remaining capacity (fanout^depth).
  size_t budget = ctx_->memory_budget();
  uint64_t target = budget > 0 ? static_cast<uint64_t>(budget) / 4
                               : (32ull << 20);
  if (target == 0) target = 1;
  uint64_t need = part_bytes / target + 2;
  size_t fanout =
      SpillPartitionCount(static_cast<size_t>(need > 256 ? 256 : need));
  return std::min(fanout, SpillPartitionCount(config_.spill_partitions));
}

Status RadixSpill::Repartition(Status load) {
  if (load.code() != StatusCode::kResourceExhausted ||
      current_.level >= config_.spill_max_repartition_depth) {
    return load;
  }
  VWISE_FAILPOINT("spill.repartition");
  size_t level = current_.level + 1;
  // Side 0 (build rows / group states) is what has to fit on reload.
  std::error_code ec;
  uint64_t part_bytes = std::filesystem::file_size(current_.paths[0], ec);
  if (ec) part_bytes = 0;
  size_t fanout = RepartitionFanout(part_bytes);
  stats_.repartitions++;
  stats_.depth = std::max(stats_.depth, level);
  stats_.partitions += fanout;

  // Depth-first: loading (or further splitting) the fresh children before
  // their siblings bounds live spill disk to one lineage per level. They are
  // pending before their files exist, so an error below leaves none behind.
  pending_.insert(pending_.begin(), fanout,
                  Partition{std::vector<std::string>(sides_.size()), level});
  std::vector<std::vector<std::unique_ptr<SpillWriter>>> writers(
      sides_.size());
  for (size_t f = 0; f < fanout; f++) {
    for (size_t side = 0; side < sides_.size(); side++) {
      std::string tag = sides_[side].tag + "_r";
      VWISE_ASSIGN_OR_RETURN(pending_[f].paths[side],
                             ctx_->NewSpillPath(tag.c_str()));
      std::unique_ptr<SpillWriter> writer;
      VWISE_ASSIGN_OR_RETURN(writer,
                             SpillWriter::Create(pending_[f].paths[side],
                                                 sides_[side].types,
                                                 &ctx_->spill_counters()));
      writers[side].push_back(std::move(writer));
    }
  }
  // Stream each parent file into the children, routed by the next byte of
  // the same key hash — a join's matching build and probe rows land in
  // matching children.
  for (size_t side = 0; side < sides_.size(); side++) {
    VWISE_RETURN_IF_ERROR(ReadCurrent(side, [&](const DataChunk& chunk) {
      return RouteTo(side, chunk, level, writers[side]);
    }));
  }
  writers.clear();  // close the children before the parent is unlinked
  DropCurrent();
  return Status::OK();
}

void RadixSpill::RemoveFiles(Partition* part) {
  std::error_code ec;
  for (const std::string& path : part->paths) {
    // Best effort; the query's spill directory is the backstop.
    if (!path.empty()) std::filesystem::remove(path, ec);
  }
  *part = Partition();
}

void RadixSpill::DropCurrent() { RemoveFiles(&current_); }

void RadixSpill::Drop() {
  CloseWriters();
  for (Partition& part : pending_) RemoveFiles(&part);
  pending_.clear();
  DropCurrent();
  n_partitions_ = 0;
}

}  // namespace vwise
