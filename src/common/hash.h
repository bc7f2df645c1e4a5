// Stateless 64-bit hashing: mixing for spatial sampling and consistent
// hashing, and FNV-1a for file checksums and fingerprinted strings.

#ifndef MACARON_SRC_COMMON_HASH_H_
#define MACARON_SRC_COMMON_HASH_H_

#include <cstdint>
#include <string_view>

namespace macaron {

// Finalizer from MurmurHash3; a high-quality stateless 64-bit mixer.
inline constexpr uint64_t Mix64(uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdull;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ull;
  x ^= x >> 33;
  return x;
}

// Combines two 64-bit values into one hash (order-sensitive).
inline constexpr uint64_t HashCombine(uint64_t a, uint64_t b) {
  return Mix64(a ^ (b + 0x9e3779b97f4a7c15ull + (a << 6) + (a >> 2)));
}

// FNV-1a-64 over a byte string. Checksums in the MCTC trace format and the
// result store's framing, and the string lane of sweep fingerprints: a
// change here changes files on disk and every result-store key.
inline constexpr uint64_t Fnv1a64(std::string_view bytes) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : bytes) {
    h = (h ^ c) * 0x100000001b3ull;
  }
  return h;
}

}  // namespace macaron

#endif  // MACARON_SRC_COMMON_HASH_H_
