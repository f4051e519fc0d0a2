#ifndef VWISE_COMPRESSION_CODEC_H_
#define VWISE_COMPRESSION_CODEC_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "vector/string_heap.h"
#include "vector/types.h"
#include "vector/vector.h"

namespace vwise {

// Compression schemes from "Super-Scalar RAM-CPU Cache Compression"
// (Zukowski et al., ICDE 2006), the storage substrate of Vectorwise:
//
//  * kPfor       — Patched Frame-of-Reference: values minus a frame base,
//                  bit-packed at a width chosen to minimize total size;
//                  values that do not fit are stored as patch "exceptions".
//  * kPforDelta  — PFOR over zigzag-encoded deltas; wins on sorted or
//                  clustered columns (dates, foreign keys).
//  * kRle        — run-length encoding for low-cardinality runs.
//  * kPdict      — dictionary encoding for strings, codes bit-packed.
//  * kPlain      — verbatim fallback.
enum class Codec : uint8_t {
  kPlain = 0,
  kPfor = 1,
  kPforDelta = 2,
  kRle = 3,
  kPdict = 4,
};

const char* CodecToString(Codec c);

// One compressed column chunk. `data` is a self-describing blob in the
// codec's format; `count` values of physical type `type` decode from it.
struct CompressedSegment {
  Codec codec = Codec::kPlain;
  TypeId type = TypeId::kI64;
  uint32_t count = 0;
  std::vector<uint8_t> data;

  // Per-segment footprint of the serialized table-file footer record
  // (storage/table_file.cc, TableWriter::Finish): offset_in_blob u32 +
  // size u32 + codec u8 + count u32 + has_minmax u8 + min i64 + max i64.
  // compression_test keeps this in sync with the writer.
  static constexpr size_t kFooterRecordBytes =
      sizeof(uint32_t) + sizeof(uint32_t) + sizeof(uint8_t) +
      sizeof(uint32_t) + sizeof(uint8_t) + sizeof(int64_t) + sizeof(int64_t);

  // Total stored footprint: blob bytes plus the footer record describing
  // them. Derived from the actual serialization, not a guessed constant, so
  // bench/report compression ratios count real bytes.
  size_t byte_size() const { return data.size() + kFooterRecordBytes; }
};

namespace compression {

// Encodes the first `n` values of a flat Vector with a specific codec.
// Returns InvalidArgument if the codec does not apply to the vector's type
// (e.g. PFOR on strings).
Result<CompressedSegment> Encode(Codec codec, const Vector& values, size_t n);

// Tries every applicable codec and returns the smallest encoding; an error
// if even the plain fallback cannot represent the input (rather than
// silently shipping a kPlain segment that failed to encode).
Result<CompressedSegment> EncodeBest(const Vector& values, size_t n);

// The one decoder: a cursor over one encoded segment that decodes any row
// range straight into a typed destination, a vector at a time (the paper's
// "decompress per vector, into the CPU cache").
//
// Open() validates everything sized or indexed from the header once —
// truncation, PFOR width, exception count and positions, RLE run lengths,
// string lengths, PDICT dictionary offsets — and builds the per-segment
// state (PDICT dictionary, RLE run arrays, plain string bytes). Read() then
// only checks its range and, for PDICT, each code against the dictionary.
// Reads are cheapest in ascending row order: PFOR-DELTA carries its running
// prefix, plain strings their byte offset, RLE its run and PFOR its
// exception cursor across calls; a backward range rewinds to row 0.
class ByteReader;

class SegmentReader {
 public:
  SegmentReader() = default;
  SegmentReader(const SegmentReader&) = delete;
  SegmentReader& operator=(const SegmentReader&) = delete;
  SegmentReader(SegmentReader&&) = default;
  SegmentReader& operator=(SegmentReader&&) = default;

  // Opens `count` values of physical type `type` encoded by `codec` in
  // data[0, size). `pin` keeps those bytes alive while the reader uses them
  // (a buffer-pool blob; null when the caller guarantees the lifetime).
  // String bytes (plain and PDICT) are copied into `heap`, or into a heap
  // the reader owns (string_heap()) when `heap` is null.
  Status Open(Codec codec, TypeId type, uint32_t count, const uint8_t* data,
              size_t size, std::shared_ptr<const void> pin = nullptr,
              StringHeap* heap = nullptr);

  Codec codec() const { return codec_; }
  TypeId type() const { return type_; }
  uint32_t count() const { return count_; }

  // Decodes rows [begin, begin + n) into `out`, an array of n values of
  // type() (StringVal for strings).
  Status Read(size_t begin, size_t n, void* out);

  // PDICT only: the codes of rows [begin, begin + n), each checked against
  // the dictionary.
  Status ReadCodes(size_t begin, size_t n, uint32_t* out);

  // The reader-owned heap holding string bytes (null for fixed-width
  // segments or when Open() was given a heap). Kept alive by every vector
  // that registers it; reused by the next Open() once nothing else holds it.
  const std::shared_ptr<StringHeap>& string_heap() const { return own_heap_; }
  // PDICT: the segment's dictionary, built once per Open().
  const std::shared_ptr<const StringDict>& dict() const { return dict_; }
  // RLE: run values (contiguous, TypeWidth(type) bytes each) and run starts
  // (n_runs + 1 entries; run r covers rows [starts[r], starts[r+1]),
  // starts.back() == count).
  const std::shared_ptr<std::vector<uint8_t>>& rle_values() const {
    return rle_values_;
  }
  const std::shared_ptr<std::vector<uint32_t>>& rle_starts() const {
    return rle_starts_;
  }

 private:
  // One PFOR core as laid out in a segment: slots bit-packed at `width`
  // bits, then `n_exc` patch exceptions (ascending u32 positions, then the
  // u64 values). The pointers point into the segment's bytes.
  struct PackedRun {
    int width = 0;
    uint32_t n_exc = 0;
    const uint8_t* slots = nullptr;
    const uint8_t* exc_pos = nullptr;
    const uint8_t* exc_val = nullptr;
  };

  Status Parse(ByteReader* r, StringHeap* heap);
  Status ParsePacked(ByteReader* r, uint32_t n);
  Status OpenPlainStrings(ByteReader* r, StringHeap* heap);
  Status OpenDict(ByteReader* r, StringHeap* heap);
  Status OpenRuns(ByteReader* r);

  template <typename T>
  void Patch(size_t begin, size_t n, uint64_t base, T* out);
  template <typename T>
  void ReadPfor(size_t begin, size_t n, T* out);
  template <typename T>
  void WalkDeltas(size_t n, T* out);
  template <typename T>
  void ReadDelta(size_t begin, size_t n, T* out);
  template <typename Emit>
  Status WalkCodes(size_t begin, size_t n, Emit emit);
  template <typename T>
  void ReadRuns(size_t begin, size_t n, T* out);
  void ReadPlainStrings(size_t begin, size_t n, StringVal* out);

  Codec codec_ = Codec::kPlain;
  TypeId type_ = TypeId::kI64;
  uint32_t count_ = 0;
  const uint8_t* data_ = nullptr;
  std::shared_ptr<const void> pin_;

  // PFOR, PFOR-DELTA and PDICT codes.
  PackedRun packed_;
  uint64_t base_ = 0;       // PFOR frame base / PFOR-DELTA first value
  uint32_t exc_next_ = 0;   // first exception not yet behind the cursor
  size_t delta_row_ = 0;    // PFOR-DELTA: row whose value is delta_val_
  uint64_t delta_val_ = 0;

  // Plain strings: lengths in the pinned bytes, string bytes in the heap.
  std::shared_ptr<StringHeap> own_heap_;
  const uint8_t* lens_ = nullptr;
  const char* bytes_ = nullptr;
  size_t str_row_ = 0;  // row whose string starts at bytes_ + str_off_
  size_t str_off_ = 0;

  // PDICT.
  std::shared_ptr<const StringDict> dict_;

  // RLE.
  std::shared_ptr<std::vector<uint8_t>> rle_values_;
  std::shared_ptr<std::vector<uint32_t>> rle_starts_;
  size_t run_ = 0;  // run holding the last row read
};

// Decodes a whole segment into a flat Vector (capacity >= seg.count). String
// bytes land in the vector's own heap, registered as a heap ref.
Status DecodeInto(const CompressedSegment& seg, Vector* out);

// Decodes straight from a storage blob without copying it into a
// CompressedSegment first. String bytes are copied into `heap`, which must
// outlive the StringVals.
Status DecodeRaw(Codec codec, TypeId type, uint32_t count, const uint8_t* data,
                 size_t size, void* out, StringHeap* heap);

// Compressed-execution adoption (DESIGN.md §12): surfaces a PDICT segment
// without materializing per-row values — per-row codes into `dict_vals`
// (the distinct strings, bytes in `heap`). `codes` must hold `count`
// entries. (RLE runs: SegmentReader::rle_values()/rle_starts().)
Status DecodeDictRaw(TypeId type, uint32_t count, const uint8_t* data,
                     size_t size, uint32_t* codes,
                     std::vector<StringVal>* dict_vals, StringHeap* heap);

}  // namespace compression

}  // namespace vwise

#endif  // VWISE_COMPRESSION_CODEC_H_
