#include "compression/codec.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <limits>
#include <string_view>
#include <type_traits>
#include <unordered_map>
#include <utility>

#include "common/bitutil.h"
#include "common/macros.h"

namespace vwise::compression {

// Bounds-checked cursor over a segment's bytes (used while opening one).
class ByteReader {
 public:
  ByteReader(const uint8_t* data, size_t size) : p_(data), end_(data + size) {}

  template <typename T>
  Status Get(T* out) {
    if (sizeof(T) > remaining()) return Status::Corruption("segment truncated");
    std::memcpy(out, p_, sizeof(T));
    p_ += sizeof(T);
    return Status::OK();
  }
  Status Skip(size_t n) {
    if (n > remaining()) return Status::Corruption("segment truncated");
    p_ += n;
    return Status::OK();
  }
  const uint8_t* cursor() const { return p_; }
  size_t remaining() const { return static_cast<size_t>(end_ - p_); }

 private:
  const uint8_t* p_;
  const uint8_t* end_;
};

namespace {

// Bytes per PFOR exception (u32 position + u64 value) and per RLE run
// (u64 value + u32 length).
constexpr size_t kExceptionBytes = 12;
constexpr size_t kRunBytes = 12;

// --- blob read/write helpers ------------------------------------------------

void PutBytes(std::vector<uint8_t>* blob, const void* p, size_t n) {
  const uint8_t* b = static_cast<const uint8_t*>(p);
  blob->insert(blob->end(), b, b + n);
}

template <typename T>
void Put(std::vector<uint8_t>* blob, T v) {
  PutBytes(blob, &v, sizeof(T));
}

// --- generic integer widening ------------------------------------------------

size_t FixedWidth(TypeId t) { return TypeWidth(t); }

// Loads value i of a fixed-width column as uint64 bits (sign-extended for
// signed ints so frame-of-reference arithmetic behaves).
uint64_t LoadInt(TypeId t, const void* values, size_t i) {
  switch (t) {
    case TypeId::kU8:
      return static_cast<const uint8_t*>(values)[i];
    case TypeId::kI32:
      return static_cast<uint64_t>(
          static_cast<int64_t>(static_cast<const int32_t*>(values)[i]));
    case TypeId::kI64:
      return static_cast<uint64_t>(static_cast<const int64_t*>(values)[i]);
    case TypeId::kF64: {
      uint64_t bits;
      std::memcpy(&bits, static_cast<const double*>(values) + i, 8);
      return bits;
    }
    case TypeId::kStr:
      break;
  }
  VWISE_CHECK_MSG(false, "LoadInt on string");
  return 0;
}

bool IsIntType(TypeId t) { return t == TypeId::kU8 || t == TypeId::kI32 || t == TypeId::kI64; }

// --- PFOR core ----------------------------------------------------------------
// Encodes a u64 array (already offset/delta-transformed, non-negative) by
// choosing the bit width minimizing packed size + exception size.

struct PforPlan {
  int width = 0;
  uint32_t n_exceptions = 0;
};

PforPlan PlanPfor(const uint64_t* vals, size_t n) {
  // Count values per bit width.
  size_t width_hist[65] = {0};
  for (size_t i = 0; i < n; i++) width_hist[bit::BitWidth(vals[i])]++;
  // For each width w, everything wider is an exception (4-byte position +
  // 8-byte value).
  PforPlan best;
  size_t best_cost = std::numeric_limits<size_t>::max();
  size_t wider = n;
  for (int w = 0; w <= 64; w++) {
    wider -= width_hist[w];
    size_t cost = bit::PackedSize(n, w) + wider * kExceptionBytes;
    if (cost < best_cost) {
      best_cost = cost;
      best.width = w;
      best.n_exceptions = static_cast<uint32_t>(wider);
    }
  }
  return best;
}

void EncodePforCore(const uint64_t* vals, size_t n, std::vector<uint8_t>* blob) {
  PforPlan plan = PlanPfor(vals, n);
  uint64_t mask = plan.width == 64 ? ~uint64_t{0}
                                   : ((uint64_t{1} << plan.width) - 1);
  std::vector<uint64_t> slots(n);
  std::vector<uint32_t> exc_pos;
  std::vector<uint64_t> exc_val;
  exc_pos.reserve(plan.n_exceptions);
  exc_val.reserve(plan.n_exceptions);
  for (size_t i = 0; i < n; i++) {
    if (bit::BitWidth(vals[i]) > plan.width) {
      exc_pos.push_back(static_cast<uint32_t>(i));
      exc_val.push_back(vals[i]);
      slots[i] = vals[i] & mask;  // patched on decode
    } else {
      slots[i] = vals[i];
    }
  }
  Put<uint8_t>(blob, static_cast<uint8_t>(plan.width));
  Put<uint32_t>(blob, static_cast<uint32_t>(exc_pos.size()));
  size_t packed = bit::PackedSize(n, plan.width);
  size_t off = blob->size();
  blob->resize(off + packed);
  if (plan.width > 0) bit::PackBits(slots.data(), n, plan.width, blob->data() + off);
  PutBytes(blob, exc_pos.data(), exc_pos.size() * sizeof(uint32_t));
  PutBytes(blob, exc_val.data(), exc_val.size() * sizeof(uint64_t));
}

// --- scheme encoders ------------------------------------------------------------

Result<CompressedSegment> EncodePlain(TypeId type, const void* values, size_t n) {
  CompressedSegment seg;
  seg.codec = Codec::kPlain;
  seg.type = type;
  seg.count = static_cast<uint32_t>(n);
  if (type == TypeId::kStr) {
    const StringVal* sv = static_cast<const StringVal*>(values);
    Put<uint32_t>(&seg.data, 0);  // placeholder for byte count
    uint64_t total = 0;
    for (size_t i = 0; i < n; i++) {
      Put<uint32_t>(&seg.data, sv[i].len);
      total += sv[i].len;
    }
    VWISE_CHECK_MSG(total <= std::numeric_limits<uint32_t>::max(),
                    "string segment too large");
    uint32_t total32 = static_cast<uint32_t>(total);
    std::memcpy(seg.data.data(), &total32, 4);
    for (size_t i = 0; i < n; i++) PutBytes(&seg.data, sv[i].ptr, sv[i].len);
  } else {
    PutBytes(&seg.data, values, n * FixedWidth(type));
  }
  return seg;
}

Result<CompressedSegment> EncodePfor(TypeId type, const void* values, size_t n,
                                     bool delta) {
  if (!IsIntType(type)) {
    return Status::InvalidArgument("PFOR requires an integer type");
  }
  CompressedSegment seg;
  seg.codec = delta ? Codec::kPforDelta : Codec::kPfor;
  seg.type = type;
  seg.count = static_cast<uint32_t>(n);
  if (n == 0) return seg;

  std::vector<uint64_t> work(n);
  if (delta) {
    // First value verbatim in the header; zigzag deltas for the rest.
    // The delta is taken in unsigned arithmetic: it wraps instead of
    // overflowing when the two values are more than INT64_MAX apart, and the
    // decoder's unsigned prefix sum wraps back.
    uint64_t first = LoadInt(type, values, 0);
    Put<uint64_t>(&seg.data, first);
    uint64_t prev = first;
    for (size_t i = 1; i < n; i++) {
      uint64_t cur = LoadInt(type, values, i);
      work[i - 1] = bit::ZigZagEncode(static_cast<int64_t>(cur - prev));
      prev = cur;
    }
    work.resize(n - 1);
    if (!work.empty()) EncodePforCore(work.data(), work.size(), &seg.data);
  } else {
    // Frame of reference = min value.
    int64_t base = std::numeric_limits<int64_t>::max();
    for (size_t i = 0; i < n; i++) {
      base = std::min(base, static_cast<int64_t>(LoadInt(type, values, i)));
    }
    Put<int64_t>(&seg.data, base);
    // Unsigned: value - base exceeds INT64_MAX when the range does.
    for (size_t i = 0; i < n; i++) {
      work[i] = LoadInt(type, values, i) - static_cast<uint64_t>(base);
    }
    EncodePforCore(work.data(), n, &seg.data);
  }
  return seg;
}

Result<CompressedSegment> EncodeRle(TypeId type, const void* values, size_t n) {
  if (type == TypeId::kStr) {
    return Status::InvalidArgument("RLE not supported for strings");
  }
  CompressedSegment seg;
  seg.codec = Codec::kRle;
  seg.type = type;
  seg.count = static_cast<uint32_t>(n);
  uint32_t n_runs = 0;
  Put<uint32_t>(&seg.data, 0);  // placeholder
  size_t i = 0;
  while (i < n) {
    uint64_t v = LoadInt(type, values, i);
    size_t j = i + 1;
    while (j < n && LoadInt(type, values, j) == v) j++;
    Put<uint64_t>(&seg.data, v);
    Put<uint32_t>(&seg.data, static_cast<uint32_t>(j - i));
    n_runs++;
    i = j;
  }
  std::memcpy(seg.data.data(), &n_runs, 4);
  return seg;
}

Result<CompressedSegment> EncodePdict(TypeId type, const void* values, size_t n) {
  if (type != TypeId::kStr) {
    return Status::InvalidArgument("PDICT requires strings");
  }
  const StringVal* sv = static_cast<const StringVal*>(values);
  std::unordered_map<std::string_view, uint32_t> dict;
  std::vector<std::string_view> order;
  std::vector<uint64_t> codes(n);
  for (size_t i = 0; i < n; i++) {
    auto [it, inserted] = dict.emplace(sv[i].view(), static_cast<uint32_t>(order.size()));
    if (inserted) order.push_back(sv[i].view());
    codes[i] = it->second;
  }
  CompressedSegment seg;
  seg.codec = Codec::kPdict;
  seg.type = type;
  seg.count = static_cast<uint32_t>(n);
  Put<uint32_t>(&seg.data, static_cast<uint32_t>(order.size()));
  uint32_t off = 0;
  for (const auto& s : order) {
    Put<uint32_t>(&seg.data, off);
    off += static_cast<uint32_t>(s.size());
  }
  Put<uint32_t>(&seg.data, off);  // final offset = total bytes
  for (const auto& s : order) PutBytes(&seg.data, s.data(), s.size());
  EncodePforCore(codes.data(), n, &seg.data);
  return seg;
}

// Codec dispatch over raw values — internal only; the public surface takes
// Vectors so every call site shares one typed entry point.
Result<CompressedSegment> EncodeValues(Codec codec, TypeId type,
                                       const void* values, size_t n) {
  switch (codec) {
    case Codec::kPlain:
      return EncodePlain(type, values, n);
    case Codec::kPfor:
      return EncodePfor(type, values, n, /*delta=*/false);
    case Codec::kPforDelta:
      return EncodePfor(type, values, n, /*delta=*/true);
    case Codec::kRle:
      return EncodeRle(type, values, n);
    case Codec::kPdict:
      return EncodePdict(type, values, n);
  }
  return Status::InvalidArgument("unknown codec");
}

// --- decode kernels ---------------------------------------------------------------

// Values per stack block where decoded slots need a second pass (PFOR-DELTA
// prefix sums, PDICT code checks).
constexpr size_t kBlock = 256;

inline uint32_t Load32(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}

inline uint64_t Load64(const uint8_t* p) {
  uint64_t v;
  std::memcpy(&v, p, 8);
  return v;
}

inline uint64_t UnZigZag(int64_t slot) {
  return static_cast<uint64_t>(bit::ZigZagDecode(static_cast<uint64_t>(slot)));
}

// Narrows the u64 bits of a stored value to physical type `t` at `dst`.
void StoreBits(TypeId t, uint64_t v, uint8_t* dst) {
  switch (t) {
    case TypeId::kU8:
      *dst = static_cast<uint8_t>(v);
      return;
    case TypeId::kI32: {
      int32_t x = static_cast<int32_t>(v);
      std::memcpy(dst, &x, 4);
      return;
    }
    case TypeId::kI64:
    case TypeId::kF64:
      std::memcpy(dst, &v, 8);
      return;
    case TypeId::kStr:
      break;
  }
}

// The codec/type pairs the encoders produce; anything else in a footer or
// segment is corruption.
bool CodecAppliesTo(Codec codec, TypeId type) {
  switch (codec) {
    case Codec::kPlain:
      return true;
    case Codec::kPfor:
    case Codec::kPforDelta:
      return IsIntType(type);
    case Codec::kRle:
      return type != TypeId::kStr;
    case Codec::kPdict:
      return type == TypeId::kStr;
  }
  return false;
}

// Slot i of a run bit-packed at W bits. The word-aligned loads stay inside
// the run: PackedSize pads it to whole words, and the second word is read
// only when slot i straddles into it.
template <int W>
inline uint64_t SlotAt(const uint8_t* slots, size_t i) {
  if constexpr (W == 0) {
    return 0;
  } else {
    const size_t bitpos = i * W;
    const uint8_t* word = slots + (bitpos >> 6) * 8;
    const unsigned off = static_cast<unsigned>(bitpos & 63);
    uint64_t v = Load64(word) >> off;
    if constexpr (W > 1 && W < 64) {
      if (off + W > 64) v |= Load64(word + 8) << (64 - off);
    }
    if constexpr (W == 64) {
      return v;
    } else {
      return v & ((uint64_t{1} << W) - 1);
    }
  }
}

// Stores static_cast<T>(base + slot) for slots [begin, begin + n) of a run
// packed at W bits, into out[0, n). The frame-of-reference add is unsigned,
// so no base/slot pair can overflow. Whole groups of 64 slots (exactly W
// words) are unrolled, which turns every shift and mask into a constant.
template <int W, typename T>
VWISE_HOT void UnpackSlots(const uint8_t* slots, size_t begin, size_t n,
                           uint64_t base, T* out) {
  size_t i = begin;
  const size_t end = begin + n;
  for (; i < end && (i & 63) != 0; i++) {
    out[i - begin] = static_cast<T>(base + SlotAt<W>(slots, i));
  }
  for (; end - i >= 64; i += 64) {
    const uint8_t* group = slots + (i >> 6) * (W * 8);
    T* dst = out + (i - begin);
#pragma GCC unroll 64
    for (size_t j = 0; j < 64; j++) {
      dst[j] = static_cast<T>(base + SlotAt<W>(group, j));
    }
  }
  for (; i < end; i++) {
    out[i - begin] = static_cast<T>(base + SlotAt<W>(slots, i));
  }
}

template <typename T>
using UnpackFn = void (*)(const uint8_t*, size_t, size_t, uint64_t, T*);

template <typename T, size_t... W>
constexpr std::array<UnpackFn<T>, sizeof...(W)> UnpackTable(
    std::index_sequence<W...>) {
  return {{&UnpackSlots<static_cast<int>(W), T>...}};
}

// The unpacker specialised for `width` (validated <= 64 at Open).
template <typename T>
UnpackFn<T> Unpacker(int width) {
  static constexpr std::array<UnpackFn<T>, 65> kTable =
      UnpackTable<T>(std::make_index_sequence<65>());
  return kTable[static_cast<size_t>(width)];
}

}  // namespace

Result<CompressedSegment> Encode(Codec codec, const Vector& values, size_t n) {
  VWISE_CHECK_MSG(!values.IsEncoded(), "Encode requires a flat vector");
  VWISE_CHECK(n <= values.capacity());
  return EncodeValues(codec, values.type(), values.raw(), n);
}

Result<CompressedSegment> EncodeBest(const Vector& values, size_t n) {
  VWISE_CHECK_MSG(!values.IsEncoded(), "EncodeBest requires a flat vector");
  VWISE_CHECK(n <= values.capacity());
  TypeId type = values.type();
  const void* raw = values.raw();
  VWISE_ASSIGN_OR_RETURN(CompressedSegment result,
                         EncodeValues(Codec::kPlain, type, raw, n));
  // Each candidate below is type-gated, so an error is an internal encoder
  // failure: propagate it instead of silently shipping the plain fallback.
  auto consider = [&](Codec c) -> Status {
    VWISE_ASSIGN_OR_RETURN(CompressedSegment seg, EncodeValues(c, type, raw, n));
    if (seg.data.size() < result.data.size()) result = std::move(seg);
    return Status::OK();
  };
  if (IsIntType(type)) {
    VWISE_RETURN_IF_ERROR(consider(Codec::kPfor));
    VWISE_RETURN_IF_ERROR(consider(Codec::kPforDelta));
    VWISE_RETURN_IF_ERROR(consider(Codec::kRle));
  } else if (type == TypeId::kF64) {
    VWISE_RETURN_IF_ERROR(consider(Codec::kRle));
  } else if (type == TypeId::kStr) {
    VWISE_RETURN_IF_ERROR(consider(Codec::kPdict));
  }
  return result;
}

Status DecodeInto(const CompressedSegment& seg, Vector* out) {
  if (out->type() != seg.type) {
    return Status::InvalidArgument("DecodeInto type mismatch");
  }
  VWISE_CHECK(out->capacity() >= seg.count);
  out->ResetEncoding();
  out->ClearHeapRefs();  // reuse the owned heap when nothing references it
  StringHeap* heap =
      seg.type == TypeId::kStr ? out->GetStringHeap() : nullptr;
  return DecodeRaw(seg.codec, seg.type, seg.count, seg.data.data(),
                   seg.data.size(), out->raw(), heap);
}

Status DecodeRaw(Codec codec, TypeId type, uint32_t count, const uint8_t* data,
                 size_t size, void* out, StringHeap* heap) {
  if (type == TypeId::kStr && heap == nullptr) {
    return Status::InvalidArgument("string decode needs a heap");
  }
  SegmentReader reader;
  VWISE_RETURN_IF_ERROR(
      reader.Open(codec, type, count, data, size, nullptr, heap));
  return reader.Read(0, count, out);
}

Status DecodeDictRaw(TypeId type, uint32_t count, const uint8_t* data,
                     size_t size, uint32_t* codes,
                     std::vector<StringVal>* dict_vals, StringHeap* heap) {
  if (type != TypeId::kStr) {
    return Status::InvalidArgument("PDICT adoption requires strings");
  }
  if (heap == nullptr) {
    return Status::InvalidArgument("string decode needs a heap");
  }
  SegmentReader reader;
  VWISE_RETURN_IF_ERROR(
      reader.Open(Codec::kPdict, type, count, data, size, nullptr, heap));
  const StringDict& dict = *reader.dict();
  dict_vals->assign(dict.values, dict.values + dict.size);
  return reader.ReadCodes(0, count, codes);
}

// --- SegmentReader ---------------------------------------------------------------

Status SegmentReader::Open(Codec codec, TypeId type, uint32_t count,
                           const uint8_t* data, size_t size,
                           std::shared_ptr<const void> pin, StringHeap* heap) {
  codec_ = codec;
  type_ = type;
  count_ = count;
  data_ = data;
  pin_ = std::move(pin);
  packed_ = PackedRun();
  base_ = 0;
  exc_next_ = 0;
  delta_row_ = 0;
  delta_val_ = 0;
  lens_ = nullptr;
  bytes_ = nullptr;
  str_row_ = 0;
  str_off_ = 0;
  run_ = 0;
  // Dropped before the heap is picked, so a dictionary nothing else holds
  // no longer pins the reader-owned heap.
  dict_.reset();
  if (type == TypeId::kStr) {
    if (heap != nullptr) {
      own_heap_.reset();
    } else if (own_heap_ != nullptr && own_heap_.use_count() == 1) {
      own_heap_->Reset();
      heap = own_heap_.get();
    } else {
      own_heap_ = std::make_shared<StringHeap>();
      heap = own_heap_.get();
    }
  }
  ByteReader r(data, size);
  Status st = Parse(&r, heap);
  if (!st.ok()) count_ = 0;  // a failed Open leaves nothing readable
  return st;
}

Status SegmentReader::Parse(ByteReader* r, StringHeap* heap) {
  if (!CodecAppliesTo(codec_, type_)) {
    return Status::Corruption("codec does not apply to the column type");
  }
  switch (codec_) {
    case Codec::kPlain:
      if (type_ != TypeId::kStr) {
        return r->Skip(static_cast<size_t>(count_) * FixedWidth(type_));
      }
      return OpenPlainStrings(r, heap);
    case Codec::kPfor:
      if (count_ == 0) return Status::OK();
      VWISE_RETURN_IF_ERROR(r->Get(&base_));
      return ParsePacked(r, count_);
    case Codec::kPforDelta:
      if (count_ == 0) return Status::OK();
      VWISE_RETURN_IF_ERROR(r->Get(&base_));
      delta_val_ = base_;
      return count_ > 1 ? ParsePacked(r, count_ - 1) : Status::OK();
    case Codec::kRle:
      return OpenRuns(r);
    case Codec::kPdict:
      return OpenDict(r, heap);
  }
  return Status::Corruption("unknown codec");
}

// Reads a PFOR core of `n` slots. Everything the later reads index by is
// validated here, once per segment: the width, the exception count (checked
// against `n` and the remaining bytes before anything depends on it) and
// the exception positions (in range and strictly ascending, so one forward
// cursor patches them).
Status SegmentReader::ParsePacked(ByteReader* r, uint32_t n) {
  uint8_t width = 0;
  uint32_t n_exc = 0;
  VWISE_RETURN_IF_ERROR(r->Get(&width));
  VWISE_RETURN_IF_ERROR(r->Get(&n_exc));
  if (width > 64) return Status::Corruption("bad PFOR width");
  if (n_exc > n) return Status::Corruption("PFOR exception count exceeds values");
  size_t packed = bit::PackedSize(n, width);
  if (r->remaining() < packed) return Status::Corruption("PFOR packed data truncated");
  packed_.width = width;
  packed_.slots = r->cursor();
  VWISE_RETURN_IF_ERROR(r->Skip(packed));
  if (r->remaining() / kExceptionBytes < n_exc) {
    return Status::Corruption("PFOR exceptions truncated");
  }
  packed_.n_exc = n_exc;
  packed_.exc_pos = r->cursor();
  packed_.exc_val = packed_.exc_pos + size_t{n_exc} * 4;
  for (uint32_t e = 0; e < n_exc; e++) {
    uint32_t pos = Load32(packed_.exc_pos + size_t{e} * 4);
    if (pos >= n || (e > 0 && pos <= Load32(packed_.exc_pos + size_t{e - 1} * 4))) {
      return Status::Corruption("bad PFOR exception position");
    }
  }
  return r->Skip(size_t{n_exc} * kExceptionBytes);
}

Status SegmentReader::OpenPlainStrings(ByteReader* r, StringHeap* heap) {
  uint32_t total = 0;
  VWISE_RETURN_IF_ERROR(r->Get(&total));
  if (r->remaining() / 4 < count_) {
    return Status::Corruption("string lengths truncated");
  }
  lens_ = r->cursor();
  VWISE_RETURN_IF_ERROR(r->Skip(static_cast<size_t>(count_) * 4));
  uint64_t sum = 0;
  for (uint32_t i = 0; i < count_; i++) sum += Load32(lens_ + size_t{i} * 4);
  if (sum > total) return Status::Corruption("string lengths overflow");
  if (r->remaining() < total) return Status::Corruption("string bytes truncated");
  char* bytes = heap->Reserve(total);
  if (total > 0) std::memcpy(bytes, r->cursor(), total);
  bytes_ = bytes;
  return r->Skip(total);
}

Status SegmentReader::OpenDict(ByteReader* r, StringHeap* heap) {
  uint32_t dict_n = 0;
  VWISE_RETURN_IF_ERROR(r->Get(&dict_n));
  if (r->remaining() / 4 < size_t{dict_n} + 1) {
    return Status::Corruption("PDICT offsets truncated");
  }
  const uint8_t* offsets = r->cursor();
  VWISE_RETURN_IF_ERROR(r->Skip((size_t{dict_n} + 1) * 4));
  uint32_t total = Load32(offsets + size_t{dict_n} * 4);
  if (r->remaining() < total) return Status::Corruption("PDICT bytes truncated");
  char* bytes = heap->Reserve(total);
  if (total > 0) std::memcpy(bytes, r->cursor(), total);
  VWISE_RETURN_IF_ERROR(r->Skip(total));
  auto values = std::make_shared<std::vector<StringVal>>(dict_n);
  for (uint32_t i = 0; i < dict_n; i++) {
    uint32_t lo = Load32(offsets + size_t{i} * 4);
    uint32_t hi = Load32(offsets + (size_t{i} + 1) * 4);
    if (lo > hi || hi > total) {
      return Status::Corruption("PDICT offsets not ascending");
    }
    (*values)[i] = StringVal(bytes + lo, hi - lo);
  }
  VWISE_RETURN_IF_ERROR(ParsePacked(r, count_));
  auto dict = std::make_shared<StringDict>();
  dict->values = values->data();
  dict->size = dict_n;
  dict->heap = own_heap_;  // null when the caller supplied the heap
  dict->keepalive = std::move(values);
  dict_ = std::move(dict);
  return Status::OK();
}

Status SegmentReader::OpenRuns(ByteReader* r) {
  uint32_t n_runs = 0;
  VWISE_RETURN_IF_ERROR(r->Get(&n_runs));
  if (r->remaining() / kRunBytes < n_runs) {
    return Status::Corruption("RLE runs truncated");
  }
  // Run arrays are shared with RLE views; reuse them once nothing else does.
  if (rle_values_ == nullptr || rle_values_.use_count() > 1) {
    rle_values_ = std::make_shared<std::vector<uint8_t>>();
  }
  if (rle_starts_ == nullptr || rle_starts_.use_count() > 1) {
    rle_starts_ = std::make_shared<std::vector<uint32_t>>();
  }
  size_t w = FixedWidth(type_);
  rle_values_->resize(static_cast<size_t>(n_runs) * w);
  rle_starts_->resize(static_cast<size_t>(n_runs) + 1);
  const uint8_t* p = r->cursor();
  uint32_t row = 0;
  for (uint32_t run = 0; run < n_runs; run++, p += kRunBytes) {
    uint32_t len = Load32(p + 8);
    if (len == 0) return Status::Corruption("empty RLE run");
    if (len > count_ - row) return Status::Corruption("RLE overflow");
    StoreBits(type_, Load64(p), rle_values_->data() + run * w);
    (*rle_starts_)[run] = row;
    row += len;
  }
  if (row != count_) return Status::Corruption("RLE underflow");
  (*rle_starts_)[n_runs] = row;
  return r->Skip(static_cast<size_t>(n_runs) * kRunBytes);
}

// Overwrites the exception slots among rows [begin, begin + n) of the
// packed run with base + exception value. The cursor only moves forward; a
// range starting before it rewinds to the first exception.
template <typename T>
VWISE_HOT void SegmentReader::Patch(size_t begin, size_t n, uint64_t base,
                                    T* out) {
  const PackedRun& p = packed_;
  uint32_t e = exc_next_;
  if (e > 0 && Load32(p.exc_pos + size_t{e - 1} * 4) >= begin) e = 0;
  while (e < p.n_exc && Load32(p.exc_pos + size_t{e} * 4) < begin) e++;
  for (; e < p.n_exc; e++) {
    uint32_t pos = Load32(p.exc_pos + size_t{e} * 4);
    if (pos >= begin + n) break;
    out[pos - begin] = static_cast<T>(base + Load64(p.exc_val + size_t{e} * 8));
  }
  exc_next_ = e;
}

template <typename T>
VWISE_HOT void SegmentReader::ReadPfor(size_t begin, size_t n, T* out) {
  Unpacker<T>(packed_.width)(packed_.slots, begin, n, base_, out);
  Patch(begin, n, base_, out);
}

// Applies the next `m` zigzag deltas to the running (row, value) prefix;
// with `out`, stores each value reached. Deltas unpack a block at a time
// into the stack, where their exceptions are patched before summing.
template <typename T>
VWISE_HOT void SegmentReader::WalkDeltas(size_t m, T* out) {
  int64_t block[kBlock];
  UnpackFn<int64_t> unpack = Unpacker<int64_t>(packed_.width);
  uint64_t val = delta_val_;
  size_t j = delta_row_;
  while (m > 0) {
    size_t b = std::min(m, kBlock);
    unpack(packed_.slots, j, b, 0, block);
    Patch(j, b, 0, block);
    if (out == nullptr) {
      for (size_t k = 0; k < b; k++) val += UnZigZag(block[k]);
    } else {
      for (size_t k = 0; k < b; k++) {
        val += UnZigZag(block[k]);
        out[k] = static_cast<T>(val);
      }
      out += b;
    }
    j += b;
    m -= b;
  }
  delta_val_ = val;
  delta_row_ = j;
}

template <typename T>
VWISE_HOT void SegmentReader::ReadDelta(size_t begin, size_t n, T* out) {
  if (begin < delta_row_) {
    delta_row_ = 0;
    delta_val_ = base_;
    exc_next_ = 0;
  }
  WalkDeltas<T>(begin - delta_row_, nullptr);  // carry the prefix over
  out[0] = static_cast<T>(delta_val_);
  WalkDeltas<T>(n - 1, out + 1);
}

// Calls emit(k, code) for the codes of rows [begin, begin + n), each checked
// against the dictionary size.
template <typename Emit>
VWISE_HOT Status SegmentReader::WalkCodes(size_t begin, size_t n, Emit emit) {
  int64_t block[kBlock];
  UnpackFn<int64_t> unpack = Unpacker<int64_t>(packed_.width);
  const uint64_t dict_n = dict_->size;
  for (size_t done = 0; done < n;) {
    size_t b = std::min(n - done, kBlock);
    unpack(packed_.slots, begin + done, b, 0, block);
    Patch(begin + done, b, 0, block);
    for (size_t k = 0; k < b; k++) {
      uint64_t code = static_cast<uint64_t>(block[k]);
      if (code >= dict_n) return Status::Corruption("PDICT code out of range");
      emit(done + k, static_cast<uint32_t>(code));
    }
    done += b;
  }
  return Status::OK();
}

template <typename T>
VWISE_HOT void SegmentReader::ReadRuns(size_t begin, size_t n, T* out) {
  const uint32_t* starts = rle_starts_->data();
  const T* vals = reinterpret_cast<const T*>(rle_values_->data());
  if (starts[run_] > begin) run_ = 0;
  while (starts[run_ + 1] <= begin) run_++;
  const size_t end = begin + n;
  size_t row = begin;
  while (true) {
    size_t stop = std::min<size_t>(starts[run_ + 1], end);
    std::fill(out + (row - begin), out + (stop - begin), vals[run_]);
    row = stop;
    if (row == end) break;
    run_++;
  }
}

VWISE_HOT void SegmentReader::ReadPlainStrings(size_t begin, size_t n,
                                               StringVal* out) {
  if (begin < str_row_) {
    str_row_ = 0;
    str_off_ = 0;
  }
  size_t off = str_off_;
  for (size_t i = str_row_; i < begin; i++) off += Load32(lens_ + i * 4);
  for (size_t k = 0; k < n; k++) {
    uint32_t len = Load32(lens_ + (begin + k) * 4);
    out[k] = StringVal(bytes_ + off, len);
    off += len;
  }
  str_row_ = begin + n;
  str_off_ = off;
}

VWISE_HOT Status SegmentReader::Read(size_t begin, size_t n, void* out) {
  if (n == 0) return Status::OK();
  if (begin > count_ || n > count_ - begin) {
    return Status::Corruption("read past the segment end");
  }
  switch (codec_) {
    case Codec::kPlain:
      if (type_ == TypeId::kStr) {
        ReadPlainStrings(begin, n, static_cast<StringVal*>(out));
      } else {
        size_t w = FixedWidth(type_);
        std::memcpy(out, data_ + begin * w, n * w);
      }
      return Status::OK();
    case Codec::kPfor:
      VisitType(type_, [&](auto tag) {
        using T = decltype(tag);
        if constexpr (std::is_integral_v<T>) {
          ReadPfor(begin, n, static_cast<T*>(out));
        }
      });
      return Status::OK();
    case Codec::kPforDelta:
      VisitType(type_, [&](auto tag) {
        using T = decltype(tag);
        if constexpr (std::is_integral_v<T>) {
          ReadDelta(begin, n, static_cast<T*>(out));
        }
      });
      return Status::OK();
    case Codec::kRle:
      VisitType(type_, [&](auto tag) {
        using T = decltype(tag);
        if constexpr (!std::is_same_v<T, StringVal>) {
          ReadRuns(begin, n, static_cast<T*>(out));
        }
      });
      return Status::OK();
    case Codec::kPdict: {
      StringVal* o = static_cast<StringVal*>(out);
      const StringVal* values = dict_->values;
      return WalkCodes(begin, n,
                       [&](size_t k, uint32_t code) { o[k] = values[code]; });
    }
  }
  return Status::Corruption("unknown codec");
}

VWISE_HOT Status SegmentReader::ReadCodes(size_t begin, size_t n,
                                          uint32_t* out) {
  if (codec_ != Codec::kPdict) {
    return Status::InvalidArgument("ReadCodes needs a PDICT segment");
  }
  if (n == 0) return Status::OK();
  if (begin > count_ || n > count_ - begin) {
    return Status::Corruption("read past the segment end");
  }
  return WalkCodes(begin, n, [&](size_t k, uint32_t code) { out[k] = code; });
}

}  // namespace vwise::compression

namespace vwise {

const char* CodecToString(Codec c) {
  switch (c) {
    case Codec::kPlain:
      return "PLAIN";
    case Codec::kPfor:
      return "PFOR";
    case Codec::kPforDelta:
      return "PFOR-DELTA";
    case Codec::kRle:
      return "RLE";
    case Codec::kPdict:
      return "PDICT";
  }
  return "?";
}

}  // namespace vwise
