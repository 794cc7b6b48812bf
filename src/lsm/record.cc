#include "lsm/record.h"

#include <cassert>
#include <cstring>

#include "util/coding.h"

namespace diffindex {

void AppendInternalKey(std::string* dst, const Slice& user_key, Timestamp ts,
                       ValueType type) {
  dst->append(user_key.data(), user_key.size());
  PutFixed64(dst, ts);
  dst->push_back(static_cast<char>(type));
}

std::string MakeInternalKey(const Slice& user_key, Timestamp ts,
                            ValueType type) {
  std::string out;
  out.reserve(user_key.size() + kInternalKeyTrailer);
  AppendInternalKey(&out, user_key, ts, type);
  return out;
}

Slice ExtractUserKey(const Slice& internal_key) {
  assert(internal_key.size() >= kInternalKeyTrailer);
  return Slice(internal_key.data(),
               internal_key.size() - kInternalKeyTrailer);
}

Slice RowOf(const Slice& user_key) {
  const void* sep = memchr(user_key.data(), kRowSeparator, user_key.size());
  if (sep == nullptr) return user_key;
  return Slice(user_key.data(),
               static_cast<size_t>(static_cast<const char*>(sep) -
                                   user_key.data()));
}

}  // namespace diffindex
