// CRC32C (Castagnoli) checksum. Used to detect torn or corrupted records
// in the WAL, SSTable blocks and checkpoint frames.
//
// Extend picks its implementation once, at first use: the SSE4.2 crc32
// instruction (eight bytes per step) when the CPU has it, otherwise a
// byte-at-a-time table loop. Both compute the same polynomial, so stored
// checksums do not depend on the machine that wrote them.

#ifndef DIFFINDEX_UTIL_CRC32C_H_
#define DIFFINDEX_UTIL_CRC32C_H_

#include <cstddef>
#include <cstdint>

namespace diffindex::crc32c {

// Returns the crc32c of concat(A, data[0,n-1]) where init_crc is the
// crc32c of A.
uint32_t Extend(uint32_t init_crc, const char* data, size_t n);

inline uint32_t Value(const char* data, size_t n) { return Extend(0, data, n); }

namespace internal {

// The table implementation, which Extend falls back to. Exposed so tests
// can check the accelerated path against it.
uint32_t ExtendPortable(uint32_t init_crc, const char* data, size_t n);

}  // namespace internal

// Masking as in LevelDB: storing the CRC of a string that itself contains
// CRCs is error-prone, so stored checksums are masked.
constexpr uint32_t kMaskDelta = 0xa282ead8ul;

inline uint32_t Mask(uint32_t crc) {
  return ((crc >> 15) | (crc << 17)) + kMaskDelta;
}

inline uint32_t Unmask(uint32_t masked_crc) {
  uint32_t rot = masked_crc - kMaskDelta;
  return ((rot >> 17) | (rot << 15));
}

}  // namespace diffindex::crc32c

#endif  // DIFFINDEX_UTIL_CRC32C_H_
