#include "common/bitutil.h"

#include <cstring>

#include "common/macros.h"

namespace vwise::bit {

void PackBits(const uint64_t* in, size_t n, int width, uint8_t* out) {
  VWISE_CHECK(width >= 0 && width <= 64);
  if (width == 0) return;
  std::memset(out, 0, PackedSize(n, width));
  size_t bitpos = 0;
  for (size_t i = 0; i < n; i++) {
    uint64_t v = in[i];
    VWISE_DCHECK(width == 64 || (v >> width) == 0);
    size_t word = bitpos >> 6;
    int offset = static_cast<int>(bitpos & 63);
    // memcpy word accesses: `out` is a byte buffer with no alignment
    // guarantee (codec frames place packed runs at arbitrary offsets).
    uint64_t w;
    std::memcpy(&w, out + word * 8, 8);
    w |= v << offset;
    std::memcpy(out + word * 8, &w, 8);
    if (offset + width > 64) {
      std::memcpy(&w, out + (word + 1) * 8, 8);
      w |= v >> (64 - offset);
      std::memcpy(out + (word + 1) * 8, &w, 8);
    }
    bitpos += width;
  }
}

}  // namespace vwise::bit
