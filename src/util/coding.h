// Binary encoding primitives: little-endian fixed-width integers, LEB128
// varints, and length-prefixed strings. Used by the WAL record format, the
// SSTable block format, and RPC message serialization.

#ifndef DIFFINDEX_UTIL_CODING_H_
#define DIFFINDEX_UTIL_CODING_H_

#include <cstdint>
#include <string>

#include "util/slice.h"

namespace diffindex {

void PutFixed32(std::string* dst, uint32_t value);
void PutFixed64(std::string* dst, uint64_t value);
void PutVarint32(std::string* dst, uint32_t value);
void PutVarint64(std::string* dst, uint64_t value);
// Varint length followed by the raw bytes.
void PutLengthPrefixedSlice(std::string* dst, const Slice& value);

void EncodeFixed32(char* dst, uint32_t value);
void EncodeFixed64(char* dst, uint64_t value);

// Inline: key comparisons decode a fixed64 per key, many times per seek.
inline uint32_t DecodeFixed32(const char* ptr) {
  const auto* p = reinterpret_cast<const unsigned char*>(ptr);
  return (static_cast<uint32_t>(p[0])) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) |
         (static_cast<uint32_t>(p[3]) << 24);
}

inline uint64_t DecodeFixed64(const char* ptr) {
  return static_cast<uint64_t>(DecodeFixed32(ptr)) |
         (static_cast<uint64_t>(DecodeFixed32(ptr + 4)) << 32);
}

// Each Get* consumes the parsed prefix of `input` on success and returns
// true; on malformed input it returns false and leaves `input` unspecified.
bool GetFixed32(Slice* input, uint32_t* value);
bool GetFixed64(Slice* input, uint64_t* value);
bool GetVarint32(Slice* input, uint32_t* value);
bool GetVarint64(Slice* input, uint64_t* value);
bool GetLengthPrefixedSlice(Slice* input, Slice* result);
bool GetLengthPrefixedString(Slice* input, std::string* result);

// Internal helpers exposed for SSTable builder use.
const char* GetVarint32PtrFallback(const char* p, const char* limit,
                                   uint32_t* value);
// Inline for the one-byte case, which block entries' lengths almost
// always are.
inline const char* GetVarint32Ptr(const char* p, const char* limit,
                                  uint32_t* value) {
  if (p < limit) {
    const uint32_t byte = static_cast<unsigned char>(*p);
    if ((byte & 0x80) == 0) {
      *value = byte;
      return p + 1;
    }
  }
  return GetVarint32PtrFallback(p, limit, value);
}
const char* GetVarint64Ptr(const char* p, const char* limit, uint64_t* value);
int VarintLength(uint64_t v);

}  // namespace diffindex

#endif  // DIFFINDEX_UTIL_CODING_H_
