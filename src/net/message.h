// Wire messages of the simulated cluster. Every RPC body is fully
// serialized/deserialized (the same bytes a real network would carry), so
// the data path exercises real codec work even though transport is
// in-process.
//
// Data model carried by these messages (HBase-flavored, Section 2.2):
// a table holds rows identified by a row key; each row holds named columns
// with values and timestamps. On the wire and in the LSM, one cell is one
// record whose user key is EncodeCellKey(row, column).
//
// Batched reads (kGetRow, kMultiGet) carry a list of rows/keys that must
// all route to the serving server; one that does not fails the whole
// batch with WrongRegion and the client regroups. Decoders check every
// declared element count against the bytes left before sizing a vector,
// so a corrupt or hostile count cannot drive an allocation.

#ifndef DIFFINDEX_NET_MESSAGE_H_
#define DIFFINDEX_NET_MESSAGE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/slice.h"
#include "util/status.h"
#include "util/timestamp_oracle.h"

namespace diffindex {

enum class MsgType : uint8_t {
  kPut = 1,       // insert/update/delete cells of one row
  kGetCell = 2,   // read one cell
  kGetRow = 3,    // read all columns of a batch of rows
  kScanRows = 4,  // scan rows in a row-key range
  // 5 and 6 (raw scan/delete) are retired; the numbers stay unused.
  kHeartbeat = 7,       // region server -> master
  kFetchLayout = 8,     // client -> master: routing table + catalog
  kFlushRegion = 9,     // admin: force a region flush
  kCompactRegion = 10,  // admin: force a major compaction
  kLocalIndexScan = 11, // scan one region's co-located (local) index
  kMultiPut = 12,       // batched puts (client write buffer)
  kMultiGet = 13,       // batched cell reads (read-repair verification)
  kIndexScan = 14,      // one scatter-gather leg over an index region
};

// Short lowercase label for metric names ("put", "get_cell", ...).
const char* MsgTypeName(MsgType type);

// Row keys and column names must not contain '\0' (the cell separator);
// validated at the client.
constexpr char kCellSeparator = '\0';

std::string EncodeCellKey(const Slice& row, const Slice& column);
// Returns false if `cell_key` contains no separator.
bool DecodeCellKey(const Slice& cell_key, std::string* row,
                   std::string* column);

struct Cell {
  std::string column;
  std::string value;
  // kPut writes the value; kTombstone deletes the column ("deletion is
  // handled similarly as put in LSM", Section 4.3).
  bool is_delete = false;
};

struct OldCellValue {
  std::string column;
  bool found = false;
  std::string value;
  Timestamp ts = 0;
};

struct PutRequest {
  std::string table;
  std::string row;
  std::vector<Cell> cells;
  // 0: server assigns from its timestamp oracle (the normal path).
  Timestamp ts = 0;
  // Session consistency: ask the server to return the previous value of
  // each written cell along with the assigned timestamp (Section 5.2).
  bool return_old_values = false;

  void EncodeTo(std::string* out) const;
  static bool DecodeFrom(Slice* in, PutRequest* req);
};

struct PutResponse {
  Timestamp assigned_ts = 0;
  std::vector<OldCellValue> old_values;  // iff return_old_values

  void EncodeTo(std::string* out) const;
  static bool DecodeFrom(Slice* in, PutResponse* resp);
};

struct GetCellRequest {
  std::string table;
  std::string row;
  std::string column;
  Timestamp read_ts = kMaxTimestamp;

  void EncodeTo(std::string* out) const;
  static bool DecodeFrom(Slice* in, GetCellRequest* req);
};

struct GetCellResponse {
  bool found = false;
  std::string value;
  Timestamp ts = 0;

  void EncodeTo(std::string* out) const;
  static bool DecodeFrom(Slice* in, GetCellResponse* resp);
};

// Batched full-row reads: the row fetch of an uncovered index scan page
// (QueryByIndex and QueryEngine's index plans are such scans) ships one
// request per base server instead of one per hit; the per-server requests
// run in parallel on the read engine's pool. Rows may repeat but must all
// route to the same server; a row
// the server does not serve fails the whole batch with WrongRegion (the
// client refreshes its layout, regroups and retries). A single-row read
// is a batch of one.
struct GetRowRequest {
  std::string table;
  Timestamp read_ts = kMaxTimestamp;
  std::vector<std::string> rows;

  void EncodeTo(std::string* out) const;
  static bool DecodeFrom(Slice* in, GetRowRequest* req);
};

struct RowCell {
  std::string column;
  std::string value;
  Timestamp ts = 0;
};

// One row of a GetRow batch: its live cells in column order.
struct RowResult {
  bool found = false;  // at least one live cell
  std::vector<RowCell> cells;
};

struct GetRowResponse {
  std::vector<RowResult> rows;  // parallel to the request's rows

  void EncodeTo(std::string* out) const;
  static bool DecodeFrom(Slice* in, GetRowResponse* resp);
};

struct ScanRowsRequest {
  std::string table;
  std::string start_row;  // inclusive
  std::string end_row;    // exclusive; empty = unbounded
  Timestamp read_ts = kMaxTimestamp;
  uint32_t limit_rows = 0;  // 0 = unlimited (within the region)

  void EncodeTo(std::string* out) const;
  static bool DecodeFrom(Slice* in, ScanRowsRequest* req);
};

struct ScannedRow {
  std::string row;
  std::vector<RowCell> cells;
};

struct ScanRowsResponse {
  std::vector<ScannedRow> rows;

  void EncodeTo(std::string* out) const;
  static bool DecodeFrom(Slice* in, ScanRowsResponse* resp);
};

// One raw cell of an index table (key-only entries: the concatenated
// value ⊕ rowkey), as returned by local-index and index-region scans.
struct RawEntry {
  std::string key;
  std::string value;
  Timestamp ts = 0;
};

struct RawScanResponse {
  std::vector<RawEntry> entries;

  void EncodeTo(std::string* out) const;
  static bool DecodeFrom(Slice* in, RawScanResponse* resp);
};

struct HeartbeatRequest {
  uint32_t server_id = 0;
  uint64_t auq_depth = 0;  // exported for monitoring (Figure 11 probe)

  void EncodeTo(std::string* out) const;
  static bool DecodeFrom(Slice* in, HeartbeatRequest* req);
};

struct RegionInfoWire {
  std::string table;
  uint64_t region_id = 0;
  std::string start_row;  // inclusive
  std::string end_row;    // exclusive; empty = unbounded
  uint32_t server_id = 0;

  void EncodeTo(std::string* out) const;
  static bool DecodeFrom(Slice* in, RegionInfoWire* info);
};

struct IndexInfoWire {
  std::string name;
  std::string column;
  uint8_t scheme = 0;  // cast of core::IndexScheme
  std::string index_table;
  std::vector<std::string> extra_columns;  // composite index components
  std::string dense_field;   // empty: index the whole column value
  std::string dense_schema;  // serialized DenseColumnSchema
  bool is_local = false;     // region-co-located index (broadcast reads)

  void EncodeTo(std::string* out) const;
  static bool DecodeFrom(Slice* in, IndexInfoWire* info);
};

struct TableInfoWire {
  std::string name;
  bool is_index_table = false;
  std::vector<IndexInfoWire> indexes;

  void EncodeTo(std::string* out) const;
  static bool DecodeFrom(Slice* in, TableInfoWire* info);
};

struct FetchLayoutResponse {
  uint64_t layout_epoch = 0;
  std::vector<TableInfoWire> tables;
  std::vector<RegionInfoWire> regions;

  void EncodeTo(std::string* out) const;
  static bool DecodeFrom(Slice* in, FetchLayoutResponse* resp);
};

struct RegionAdminRequest {  // kFlushRegion / kCompactRegion
  std::string table;
  uint64_t region_id = 0;

  void EncodeTo(std::string* out) const;
  static bool DecodeFrom(Slice* in, RegionAdminRequest* req);
};

// Batched puts: the client write buffer ("client buffer" in Section 8.1 —
// the paper disables it for fair latency comparisons and notes throughput
// "can be further optimized by enabling client buffer for update") ships
// many puts to one region server in a single round trip. Each put is
// applied independently (per-row atomicity, as in HBase's multi-put).
struct MultiPutRequest {
  std::vector<PutRequest> puts;

  void EncodeTo(std::string* out) const;
  static bool DecodeFrom(Slice* in, MultiPutRequest* req);
};

struct MultiPutResponse {
  std::vector<Timestamp> assigned_ts;  // parallel to the request's puts

  void EncodeTo(std::string* out) const;
  static bool DecodeFrom(Slice* in, MultiPutResponse* resp);
};

// Scan of one region's local index (Section 3.1: a local index co-locates
// with its region, so a query must be broadcast to every region). The
// response reuses RawScanResponse.
struct LocalIndexScanRequest {
  std::string table;
  uint64_t region_id = 0;
  std::string index_name;
  std::string start_key;  // index-row range within the local index
  std::string end_key;
  Timestamp read_ts = kMaxTimestamp;
  uint32_t limit = 0;

  void EncodeTo(std::string* out) const;
  static bool DecodeFrom(Slice* in, LocalIndexScanRequest* req);
};

// Batched cell reads: the read-repair verification path groups the
// per-hit base reads of sync-insert's double-check (Algorithm 2) into
// one round trip per base server, the per-server requests running in
// parallel on the read engine's pool. Keys may span rows and regions but
// must all route to this server; a key it does not serve fails the whole
// batch with WrongRegion (the client refreshes its layout and retries).
struct MultiGetKey {
  std::string row;
  std::string column;
};

struct MultiGetRequest {
  std::string table;
  Timestamp read_ts = kMaxTimestamp;
  std::vector<MultiGetKey> keys;

  void EncodeTo(std::string* out) const;
  static bool DecodeFrom(Slice* in, MultiGetRequest* req);
};

struct MultiGetEntry {
  bool found = false;
  std::string value;
  Timestamp ts = 0;
};

struct MultiGetResponse {
  std::vector<MultiGetEntry> entries;  // parallel to the request's keys

  void EncodeTo(std::string* out) const;
  static bool DecodeFrom(Slice* in, MultiGetResponse* resp);
};

// One scatter-gather leg of a paged index scan: scans a single index
// region, addressed by region id so a layout move fails fast with
// WrongRegion instead of silently reading a different key range. The
// server clamps [start_key, end_key) to the region's boundaries and
// reports `more` + `resume_key` when the page limit truncated the leg.
struct IndexScanRequest {
  std::string table;  // the index table
  uint64_t region_id = 0;
  std::string start_key;  // inclusive
  std::string end_key;    // exclusive; empty = unbounded
  Timestamp read_ts = kMaxTimestamp;
  uint32_t limit = 0;  // 0 = unlimited (within the region)

  void EncodeTo(std::string* out) const;
  static bool DecodeFrom(Slice* in, IndexScanRequest* req);
};

struct IndexScanResponse {
  std::vector<RawEntry> entries;
  // The leg hit `limit` with rows remaining; resume from `resume_key`.
  bool more = false;
  std::string resume_key;

  void EncodeTo(std::string* out) const;
  static bool DecodeFrom(Slice* in, IndexScanResponse* resp);
};

}  // namespace diffindex

#endif  // DIFFINDEX_NET_MESSAGE_H_
