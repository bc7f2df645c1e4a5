// Little-endian fixed-width fields for on-disk formats (the MCTC trace
// format and the result store's framing), independent of host byte order.

#ifndef MACARON_SRC_COMMON_BYTES_H_
#define MACARON_SRC_COMMON_BYTES_H_

#include <cstdint>

namespace macaron {

inline void StoreU64Le(char* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  }
}

inline uint64_t LoadU64Le(const char* in) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(static_cast<unsigned char>(in[i])) << (8 * i);
  }
  return v;
}

}  // namespace macaron

#endif  // MACARON_SRC_COMMON_BYTES_H_
