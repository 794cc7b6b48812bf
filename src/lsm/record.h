// The LSM record model.
//
// Every write is an append of a versioned record <key, value, ts> (Section
// 2.1 of the paper): an update is a put with a newer timestamp, a deletion
// is a tombstone. A tombstone at timestamp T masks every version of the
// key with timestamp <= T (HBase "delete columns up to T" semantics, which
// is what Algorithm 1's DI(v_old ⊕ k, t_new − δ) relies on — the deleter
// does not know t_old, only that t_old <= t_new − δ).
//
// Internal key encoding (byte-comparable within the custom comparator):
//   user_key | fixed64(ts) | type      (9-byte trailer)
// Ordering: user_key ascending, then ts DESCENDING (newest first), then
// tombstone before put at equal ts (so a same-timestamp delete wins).

#ifndef DIFFINDEX_LSM_RECORD_H_
#define DIFFINDEX_LSM_RECORD_H_

#include <cassert>
#include <cstdint>
#include <string>

#include "util/coding.h"
#include "util/slice.h"
#include "util/timestamp_oracle.h"

namespace diffindex {

enum class ValueType : uint8_t {
  kTombstone = 0,  // sorts before kPut at equal (key, ts): delete wins
  kPut = 1,
};

constexpr size_t kInternalKeyTrailer = 9;  // 8-byte ts + 1-byte type

// Appends the encoded internal key to *dst.
void AppendInternalKey(std::string* dst, const Slice& user_key, Timestamp ts,
                       ValueType type);

std::string MakeInternalKey(const Slice& user_key, Timestamp ts,
                            ValueType type);

struct ParsedInternalKey {
  Slice user_key;
  Timestamp ts = 0;
  ValueType type = ValueType::kPut;
};

// Returns false if `internal_key` is too short to contain the trailer.
inline bool ParseInternalKey(const Slice& internal_key,
                             ParsedInternalKey* result) {
  if (internal_key.size() < kInternalKeyTrailer) return false;
  const size_t user_len = internal_key.size() - kInternalKeyTrailer;
  result->user_key = Slice(internal_key.data(), user_len);
  result->ts = DecodeFixed64(internal_key.data() + user_len);
  const auto type_byte =
      static_cast<uint8_t>(internal_key[internal_key.size() - 1]);
  if (type_byte > static_cast<uint8_t>(ValueType::kPut)) return false;
  result->type = static_cast<ValueType>(type_byte);
  return true;
}

// Extracts the user key portion (asserts well-formedness).
Slice ExtractUserKey(const Slice& internal_key);

// Rows. The cluster stores a cell under the user key `row '\0' column`,
// and rows never contain '\0', so a row's cells are exactly the keys that
// start with `row '\0'`. A user key's row is its bytes before the first
// separator, or the whole key if it has none. Keys sort by row first
// ('\0' is the smallest byte), which is what lets the SST filter be keyed
// by row and serve both point gets and whole-row reads.
constexpr char kRowSeparator = '\0';
Slice RowOf(const Slice& user_key);

// Total order over encoded internal keys. Implements the ordering in the
// file comment.
class InternalKeyComparator {
 public:
  // <0 if a < b, 0 if equal, >0 if a > b. Inline, and the trailers are
  // decoded only for equal user keys: seeks compare many keys.
  int Compare(const Slice& a, const Slice& b) const {
    assert(a.size() >= kInternalKeyTrailer && b.size() >= kInternalKeyTrailer);
    const size_t a_user = a.size() - kInternalKeyTrailer;
    const size_t b_user = b.size() - kInternalKeyTrailer;
    const int r = Slice(a.data(), a_user).compare(Slice(b.data(), b_user));
    if (r != 0) return r;
    // Newer timestamps sort first.
    const Timestamp a_ts = DecodeFixed64(a.data() + a_user);
    const Timestamp b_ts = DecodeFixed64(b.data() + b_user);
    if (a_ts != b_ts) return a_ts > b_ts ? -1 : +1;
    // Tombstone (0) before put (1) at equal timestamp.
    const auto a_type = static_cast<uint8_t>(a[a.size() - 1]);
    const auto b_type = static_cast<uint8_t>(b[b.size() - 1]);
    return a_type == b_type ? 0 : (a_type < b_type ? -1 : +1);
  }
};

}  // namespace diffindex

#endif  // DIFFINDEX_LSM_RECORD_H_
