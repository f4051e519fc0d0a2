#ifndef VWISE_EXEC_KEY_HASH_H_
#define VWISE_EXEC_KEY_HASH_H_

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <type_traits>
#include <vector>

#include "common/hash.h"
#include "exec/column_store.h"
#include "vector/chunk.h"

namespace vwise {

// Key hashing and key equality of the hash breakers. Hash join, hash
// aggregation and RadixSpill routing all call these, so a key hashes the
// same in every table and every spill partition: the join's build and probe
// rows, and a group's partial states, meet wherever they are routed. A
// multi-column key folds its columns left to right with HashCombine from 0.

// Hash of one key value. Integers hash their value widened to 64 bits (i32
// sign-extended) and strings their bytes. A double hashes its bit pattern:
// converting it to an integer is undefined outside the integer's range and
// would send every key in (-1, 1) to one hash. -0.0 is mapped to +0.0
// first, because the two compare equal and so must join and group together.
template <typename T>
uint64_t HashKeyValue(T v) {
  if constexpr (std::is_same_v<T, StringVal>) {
    return HashBytes(v.ptr, v.len);
  } else if constexpr (std::is_same_v<T, double>) {
    if (v == 0) v = 0;
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    return HashInt(bits);
  } else {
    return HashInt(static_cast<uint64_t>(v));
  }
}

// hashes[i] = key hash of the i-th active row of `chunk` over `key_cols`,
// computed a column at a time.
inline void HashKeys(const DataChunk& chunk,
                     const std::vector<size_t>& key_cols, uint64_t* hashes) {
  size_t n = chunk.ActiveCount();
  const sel_t* sel = chunk.sel();
  std::fill(hashes, hashes + n, 0);
  for (size_t c : key_cols) {
    const Vector& key = chunk.column(c);
    VisitType(key.type(), [&](auto tag) {
      const auto* v = key.Data<decltype(tag)>();
      for (size_t i = 0; i < n; i++) {
        hashes[i] = HashCombine(hashes[i], HashKeyValue(v[sel ? sel[i] : i]));
      }
    });
  }
}

// Key hash of stored row `row` of `stores`; equals HashKeys of the row it
// was copied from.
inline uint64_t HashStoredKeys(const std::vector<ColumnStore>& stores,
                               size_t row) {
  uint64_t h = 0;
  for (const ColumnStore& store : stores) {
    VisitType(store.type(), [&](auto tag) {
      h = HashCombine(h, HashKeyValue(store.Get<decltype(tag)>(row)));
    });
  }
  return h;
}

// True when the key of `chunk` at position `pos` over `key_cols` equals
// stored row `row` of `stores` (one store per key column).
inline bool KeysEqual(const DataChunk& chunk,
                      const std::vector<size_t>& key_cols, sel_t pos,
                      const std::vector<ColumnStore>& stores, size_t row) {
  for (size_t k = 0; k < key_cols.size(); k++) {
    const Vector& key = chunk.column(key_cols[k]);
    bool equal = false;
    VisitType(key.type(), [&](auto tag) {
      using T = decltype(tag);
      equal = key.Data<T>()[pos] == stores[k].Get<T>(row);
    });
    if (!equal) return false;
  }
  return true;
}

}  // namespace vwise

#endif  // VWISE_EXEC_KEY_HASH_H_
