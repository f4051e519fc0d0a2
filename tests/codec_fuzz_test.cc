// Seeded codec mutation fuzz: random segments of every codec x type (PFOR
// with exceptions, RLE with runs, PDICT over a small pool) are damaged by
// byte flips, truncations and header rewrites, then decoded whole and by a
// random sequence of monotone range reads. Every decode must return OK or
// Corruption — never crash, overrun or allocate from an untrusted size
// (run it under -DVWISE_SANITIZE=address,undefined for the full check).
// When the whole decode succeeds, the range reads must succeed too and
// agree with it value for value; an undamaged segment must round-trip.

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/rng.h"
#include "compression/codec.h"
#include "gtest/gtest.h"

namespace vwise {
namespace {

struct Shape {
  Codec codec;
  TypeId type;
};

// Every codec/type pair the encoders produce.
constexpr Shape kShapes[] = {
    {Codec::kPlain, TypeId::kU8},      {Codec::kPlain, TypeId::kI32},
    {Codec::kPlain, TypeId::kI64},     {Codec::kPlain, TypeId::kF64},
    {Codec::kPlain, TypeId::kStr},     {Codec::kPfor, TypeId::kU8},
    {Codec::kPfor, TypeId::kI32},      {Codec::kPfor, TypeId::kI64},
    {Codec::kPforDelta, TypeId::kU8},  {Codec::kPforDelta, TypeId::kI32},
    {Codec::kPforDelta, TypeId::kI64}, {Codec::kRle, TypeId::kU8},
    {Codec::kRle, TypeId::kI32},       {Codec::kRle, TypeId::kI64},
    {Codec::kRle, TypeId::kF64},       {Codec::kPdict, TypeId::kStr},
};

// Seed campaign: by default seeds 1..500; override with
//   VWISE_FUZZ_SEED=<n>   start (and, alone, run just that one seed)
//   VWISE_FUZZ_ITERS=<n>  number of consecutive seeds to run
// Every failure carries a "reproduce with VWISE_FUZZ_SEED=..." trace line.
std::vector<uint64_t> FuzzSeeds() {
  const char* seed_env = std::getenv("VWISE_FUZZ_SEED");
  const char* iters_env = std::getenv("VWISE_FUZZ_ITERS");
  const bool has_seed = seed_env != nullptr && seed_env[0] != '\0';
  const uint64_t base = has_seed ? std::strtoull(seed_env, nullptr, 10) : 1;
  const uint64_t iters = iters_env != nullptr && iters_env[0] != '\0'
                             ? std::strtoull(iters_env, nullptr, 10)
                             : (has_seed ? 1 : 500);
  std::vector<uint64_t> seeds;
  for (uint64_t s = 0; s < iters; s++) seeds.push_back(base + s);
  return seeds;
}

// A random flat vector of `n` values shaped for the codec: small ranges
// with outliers (PFOR exceptions), runs (RLE, zero deltas), strings from a
// small pool (PDICT) or of random bytes.
Vector RandomValues(Rng* rng, TypeId type, size_t n,
                    std::vector<std::string>* strings) {
  Vector v(type, std::max<size_t>(n, 1));
  const int64_t run = rng->Uniform(1, 40);
  const int64_t range = int64_t{1} << rng->Uniform(0, 20);
  int64_t cur = 0;
  strings->clear();
  std::vector<std::string> pool;
  for (int i = 0; i < rng->Uniform(1, 12); i++) {
    pool.push_back(std::string(static_cast<size_t>(rng->Uniform(0, 16)),
                               static_cast<char>('a' + i)));
  }
  for (size_t i = 0; i < n; i++) {
    if (i % static_cast<size_t>(run) == 0) {
      cur = rng->Uniform(0, range);
      if (rng->Uniform(0, 30) == 0) cur = static_cast<int64_t>(rng->Next());
    }
    switch (type) {
      case TypeId::kU8:
        v.Data<uint8_t>()[i] = static_cast<uint8_t>(cur);
        break;
      case TypeId::kI32:
        v.Data<int32_t>()[i] = static_cast<int32_t>(cur);
        break;
      case TypeId::kI64:
        v.Data<int64_t>()[i] = cur;
        break;
      case TypeId::kF64:
        v.Data<double>()[i] = static_cast<double>(cur) / 7;
        break;
      case TypeId::kStr:
        strings->push_back(rng->Uniform(0, 3) == 0
                               ? std::string(static_cast<uint64_t>(cur) % 23, 'x')
                               : pool[static_cast<size_t>(cur) % pool.size()]);
        break;
    }
  }
  for (size_t i = 0; i < strings->size(); i++) {
    v.Data<StringVal>()[i] = StringVal((*strings)[i]);
  }
  return v;
}

// Damages `seg` in place: a bit flip, a truncation, a header rewrite (the
// first bytes hold every width, count, length and offset the codecs read),
// an appended tail, or a codec swap (possibly to an unknown value).
void Mutate(Rng* rng, CompressedSegment* seg) {
  std::vector<uint8_t>& d = seg->data;
  switch (rng->Uniform(0, 4)) {
    case 0:
      if (!d.empty()) {
        d[static_cast<size_t>(rng->Uniform(0, static_cast<int64_t>(d.size()) - 1))] ^=
            static_cast<uint8_t>(1u << rng->Uniform(0, 7));
      }
      break;
    case 1:
      if (!d.empty()) {
        d.resize(static_cast<size_t>(rng->Uniform(0, static_cast<int64_t>(d.size()) - 1)));
      }
      break;
    case 2: {
      if (d.empty()) break;
      size_t at = static_cast<size_t>(
          rng->Uniform(0, std::min<int64_t>(static_cast<int64_t>(d.size()), 24) - 1));
      size_t len = std::min<size_t>(static_cast<size_t>(rng->Uniform(1, 4)), d.size() - at);
      uint8_t fill = rng->Uniform(0, 2) == 0   ? 0x00
                     : rng->Uniform(0, 1) == 0 ? 0xFF
                                               : static_cast<uint8_t>(rng->Next());
      std::memset(d.data() + at, fill, len);
      break;
    }
    case 3:
      for (int i = 0; i < rng->Uniform(1, 16); i++) {
        d.push_back(static_cast<uint8_t>(rng->Next()));
      }
      break;
    default:
      seg->codec = static_cast<Codec>(rng->Uniform(0, 5));
      break;
  }
}

// True when `a` and `b` hold equal values (strings by content, the rest by
// bytes) at positions [0, n).
bool SameValues(TypeId type, const void* a, const void* b, size_t n) {
  if (type != TypeId::kStr) {
    return n == 0 || std::memcmp(a, b, n * TypeWidth(type)) == 0;
  }
  const StringVal* sa = static_cast<const StringVal*>(a);
  const StringVal* sb = static_cast<const StringVal*>(b);
  for (size_t i = 0; i < n; i++) {
    if (sa[i] != sb[i]) return false;
  }
  return true;
}

class CodecFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CodecFuzzTest, MutatedSegmentsDecodeToOkOrCorruption) {
  SCOPED_TRACE(::testing::Message()
               << "reproduce with VWISE_FUZZ_SEED=" << GetParam()
               << " VWISE_FUZZ_ITERS=1");
  Rng rng(GetParam() * 0x9E3779B97F4A7C15ull + 1);
  const Shape shape =
      kShapes[rng.Uniform(0, static_cast<int64_t>(std::size(kShapes)) - 1)];
  const size_t n = static_cast<size_t>(
      rng.Uniform(0, 3) == 0 ? rng.Uniform(0, 3) : rng.Uniform(0, 1500));
  SCOPED_TRACE(::testing::Message() << CodecToString(shape.codec) << " over "
                                    << n << " values of type "
                                    << static_cast<int>(shape.type));
  std::vector<std::string> strings;
  Vector in = RandomValues(&rng, shape.type, n, &strings);
  auto encoded = compression::Encode(shape.codec, in, n);
  ASSERT_TRUE(encoded.ok()) << encoded.status().ToString();
  CompressedSegment seg = std::move(*encoded);
  const int mutations = static_cast<int>(rng.Uniform(0, 3));
  for (int m = 0; m < mutations; m++) Mutate(&rng, &seg);

  // Whole decode.
  Vector whole(shape.type, std::max<size_t>(n, 1));
  Status ws = compression::DecodeInto(seg, &whole);
  ASSERT_TRUE(ws.ok() || ws.IsCorruption()) << ws.ToString();
  if (mutations == 0) {
    ASSERT_TRUE(ws.ok()) << ws.ToString();
    EXPECT_TRUE(SameValues(shape.type, whole.raw(), in.raw(), n));
  }

  // Monotone range reads through one reader.
  compression::SegmentReader reader;
  Status os = reader.Open(seg.codec, seg.type, seg.count, seg.data.data(),
                          seg.data.size());
  ASSERT_TRUE(os.ok() || os.IsCorruption()) << os.ToString();
  // Open validates the header; only PDICT codes are checked per value, so
  // a whole decode can fail after a clean Open, never the other way round.
  if (ws.ok()) {
    EXPECT_TRUE(os.ok()) << os.ToString();
  }
  Vector part(shape.type, std::max<size_t>(n, 1) + 1);
  size_t begin = static_cast<size_t>(rng.Uniform(0, 2));
  while (begin < n + 2) {
    size_t len = static_cast<size_t>(rng.Uniform(1, 300));
    Status rs = reader.Read(begin, len, part.raw());
    ASSERT_TRUE(rs.ok() || rs.IsCorruption()) << rs.ToString();
    if (ws.ok() && begin + len <= n) {
      ASSERT_TRUE(rs.ok()) << "rows [" << begin << ", " << begin + len
                           << "): " << rs.ToString();
      const size_t w = shape.type == TypeId::kStr ? sizeof(StringVal)
                                                  : TypeWidth(shape.type);
      ASSERT_TRUE(SameValues(shape.type, part.raw(),
                             static_cast<const uint8_t*>(whole.raw()) + begin * w,
                             len))
          << "rows [" << begin << ", " << begin + len << ")";
    }
    begin += len + static_cast<size_t>(rng.Uniform(0, 1) ? rng.Uniform(0, 100) : 0);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CodecFuzzTest, ::testing::ValuesIn(FuzzSeeds()));

}  // namespace
}  // namespace vwise
