// Index row encoding.
//
// "In Diff-Index we make the index table a key-only one, i.e., an index
// row uses the concatenation of the index value and rowkey of the base
// entry as its rowkey, with a null value" (Section 4).
//
// The concatenation must be (a) order-preserving on the value, so range
// queries map to contiguous index-key ranges, and (b) unambiguous, so the
// base row key can be recovered. Values may contain arbitrary bytes, so
// each value is escaped into a string free of 0x00 (the cell separator)
// and 0x01-pairs are used as the value/rowkey terminator:
//
//   0x00 -> 0x01 0x02,  0x01 -> 0x01 0x03,  terminator = 0x01 0x01
//
// Escaping preserves byte order, and the terminator sorts below every
// escaped continuation byte, so: value order == encoded order, and all
// entries of one value are contiguous.
//
// Order-preserving value encodings for typed columns (uint64, double,
// string) and for composite (multi-column) indexes are provided as well.

#ifndef DIFFINDEX_CORE_INDEX_CODEC_H_
#define DIFFINDEX_CORE_INDEX_CODEC_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/slice.h"
#include "util/timestamp_oracle.h"

namespace diffindex {

// ---- Escaping ----

// Escapes `raw` into a 0x00-free, order-preserving representation.
std::string EscapeIndexComponent(const Slice& raw);

// Inverse of EscapeIndexComponent; false on malformed input.
bool UnescapeIndexComponent(const Slice& escaped, std::string* raw);

// ---- Index rows ----

// v_encoded ⊕ base_row: escape(v) + terminator + base_row.
std::string EncodeIndexRow(const Slice& value_encoded, const Slice& base_row);

// Splits an index row back into (value_encoded, base_row).
bool DecodeIndexRow(const Slice& index_row, std::string* value_encoded,
                    std::string* base_row);

// One decoded index entry, as index reads return it.
struct IndexHit {
  std::string base_row;
  // Encoded index value the entry carried (needed for range queries and
  // for session-cache merging).
  std::string value_encoded;
  Timestamp ts = 0;
};

// Scan bounds covering exactly the entries with value == v_encoded.
std::string IndexScanStartForValue(const Slice& value_encoded);
std::string IndexScanEndForValue(const Slice& value_encoded);

// Scan bounds covering values in [lo, hi) (encoded-value order).
std::string IndexRangeStart(const Slice& value_lo_encoded);
std::string IndexRangeEnd(const Slice& value_hi_encoded_exclusive);

// ---- Typed value encodings (order-preserving byte strings) ----

std::string EncodeUint64IndexValue(uint64_t v);  // big-endian
bool DecodeUint64IndexValue(const Slice& encoded, uint64_t* v);

// Total order over doubles (NaN excluded): sign-magnitude flip trick.
std::string EncodeDoubleIndexValue(double v);

inline std::string EncodeStringIndexValue(const Slice& v) {
  return v.ToString();
}

// Composite index value: order-preserving tuple of components
// (lexicographic, component-wise).
std::string EncodeCompositeIndexValue(
    const std::vector<std::string>& components);

// Inverse of EncodeCompositeIndexValue; false on malformed input. Used by
// covered-index projections to materialize the component columns straight
// from an index entry.
bool DecodeCompositeIndexValue(const Slice& encoded,
                               std::vector<std::string>* components);

}  // namespace diffindex

#endif  // DIFFINDEX_CORE_INDEX_CODEC_H_
