#include "util/crc32c.h"

#include <array>
#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace diffindex::crc32c {

namespace {

// CRC32C polynomial (reflected): 0x82f63b78.
constexpr uint32_t kPoly = 0x82f63b78u;

std::array<uint32_t, 256> MakeTable() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; i++) {
    uint32_t crc = i;
    for (int j = 0; j < 8; j++) {
      crc = (crc & 1) ? (crc >> 1) ^ kPoly : crc >> 1;
    }
    table[i] = crc;
  }
  return table;
}

#if defined(__x86_64__)
// The SSE4.2 crc32 instruction computes exactly this polynomial, eight
// input bytes per step. Compiled for SSE4.2 at function level only, so the
// rest of the binary still runs on CPUs without it; Extend calls this only
// after the run-time check below.
__attribute__((target("sse4.2"))) uint32_t ExtendSse42(uint32_t init_crc,
                                                       const char* data,
                                                       size_t n) {
  const auto* p = reinterpret_cast<const unsigned char*>(data);
  uint64_t crc = init_crc ^ 0xffffffffu;
  for (; n >= 8; p += 8, n -= 8) {
    uint64_t word;
    std::memcpy(&word, p, sizeof(word));  // unaligned-safe load
    crc = _mm_crc32_u64(crc, word);
  }
  auto crc32 = static_cast<uint32_t>(crc);
  for (; n > 0; p++, n--) crc32 = _mm_crc32_u8(crc32, *p);
  return crc32 ^ 0xffffffffu;
}
#endif

using ExtendFn = uint32_t (*)(uint32_t, const char*, size_t);

ExtendFn ChooseExtend() {
#if defined(__x86_64__)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("sse4.2")) return ExtendSse42;
#endif
  return internal::ExtendPortable;
}

}  // namespace

namespace internal {

uint32_t ExtendPortable(uint32_t init_crc, const char* data, size_t n) {
  static const std::array<uint32_t, 256> kTable = MakeTable();
  uint32_t crc = init_crc ^ 0xffffffffu;
  const auto* p = reinterpret_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; i++) {
    crc = kTable[(crc ^ p[i]) & 0xff] ^ (crc >> 8);
  }
  return crc ^ 0xffffffffu;
}

}  // namespace internal

uint32_t Extend(uint32_t init_crc, const char* data, size_t n) {
  // Chosen once, on first use (a function-local static is safe even when
  // the first caller is another translation unit's static initializer).
  static const ExtendFn extend = ChooseExtend();
  return extend(init_crc, data, n);
}

}  // namespace diffindex::crc32c
