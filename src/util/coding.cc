#include "util/coding.h"

#include <cstring>

namespace diffindex {

void EncodeFixed32(char* dst, uint32_t value) {
  dst[0] = static_cast<char>(value & 0xff);
  dst[1] = static_cast<char>((value >> 8) & 0xff);
  dst[2] = static_cast<char>((value >> 16) & 0xff);
  dst[3] = static_cast<char>((value >> 24) & 0xff);
}

void EncodeFixed64(char* dst, uint64_t value) {
  for (int i = 0; i < 8; i++) {
    dst[i] = static_cast<char>((value >> (8 * i)) & 0xff);
  }
}

void PutFixed32(std::string* dst, uint32_t value) {
  char buf[4];
  EncodeFixed32(buf, value);
  dst->append(buf, sizeof(buf));
}

void PutFixed64(std::string* dst, uint64_t value) {
  char buf[8];
  EncodeFixed64(buf, value);
  dst->append(buf, sizeof(buf));
}

void PutVarint32(std::string* dst, uint32_t value) {
  unsigned char buf[5];
  int len = 0;
  while (value >= 0x80) {
    buf[len++] = static_cast<unsigned char>(value) | 0x80;
    value >>= 7;
  }
  buf[len++] = static_cast<unsigned char>(value);
  dst->append(reinterpret_cast<char*>(buf), len);
}

void PutVarint64(std::string* dst, uint64_t value) {
  unsigned char buf[10];
  int len = 0;
  while (value >= 0x80) {
    buf[len++] = static_cast<unsigned char>(value) | 0x80;
    value >>= 7;
  }
  buf[len++] = static_cast<unsigned char>(value);
  dst->append(reinterpret_cast<char*>(buf), len);
}

void PutLengthPrefixedSlice(std::string* dst, const Slice& value) {
  PutVarint32(dst, static_cast<uint32_t>(value.size()));
  dst->append(value.data(), value.size());
}

int VarintLength(uint64_t v) {
  int len = 1;
  while (v >= 0x80) {
    v >>= 7;
    len++;
  }
  return len;
}

const char* GetVarint32PtrFallback(const char* p, const char* limit,
                                   uint32_t* value) {
  uint32_t result = 0;
  for (uint32_t shift = 0; shift <= 28 && p < limit; shift += 7) {
    uint32_t byte = static_cast<unsigned char>(*p);
    p++;
    if (byte & 0x80) {
      result |= ((byte & 0x7f) << shift);
    } else {
      result |= (byte << shift);
      *value = result;
      return p;
    }
  }
  return nullptr;
}

const char* GetVarint64Ptr(const char* p, const char* limit, uint64_t* value) {
  uint64_t result = 0;
  for (uint32_t shift = 0; shift <= 63 && p < limit; shift += 7) {
    uint64_t byte = static_cast<unsigned char>(*p);
    p++;
    if (byte & 0x80) {
      result |= ((byte & 0x7f) << shift);
    } else {
      result |= (byte << shift);
      *value = result;
      return p;
    }
  }
  return nullptr;
}

bool GetFixed32(Slice* input, uint32_t* value) {
  if (input->size() < 4) return false;
  *value = DecodeFixed32(input->data());
  input->remove_prefix(4);
  return true;
}

bool GetFixed64(Slice* input, uint64_t* value) {
  if (input->size() < 8) return false;
  *value = DecodeFixed64(input->data());
  input->remove_prefix(8);
  return true;
}

bool GetVarint32(Slice* input, uint32_t* value) {
  const char* p = input->data();
  const char* limit = p + input->size();
  const char* q = GetVarint32Ptr(p, limit, value);
  if (q == nullptr) return false;
  *input = Slice(q, static_cast<size_t>(limit - q));
  return true;
}

bool GetVarint64(Slice* input, uint64_t* value) {
  const char* p = input->data();
  const char* limit = p + input->size();
  const char* q = GetVarint64Ptr(p, limit, value);
  if (q == nullptr) return false;
  *input = Slice(q, static_cast<size_t>(limit - q));
  return true;
}

bool GetLengthPrefixedSlice(Slice* input, Slice* result) {
  uint32_t len;
  if (!GetVarint32(input, &len)) return false;
  if (input->size() < len) return false;
  *result = Slice(input->data(), len);
  input->remove_prefix(len);
  return true;
}

bool GetLengthPrefixedString(Slice* input, std::string* result) {
  Slice s;
  if (!GetLengthPrefixedSlice(input, &s)) return false;
  result->assign(s.data(), s.size());
  return true;
}

}  // namespace diffindex
