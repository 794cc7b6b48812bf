#include "net/message.h"

#include <gtest/gtest.h>

#include "net/fabric.h"
#include "util/coding.h"

namespace diffindex {
namespace {

TEST(CellKeyTest, RoundTrip) {
  const std::string key = EncodeCellKey("row1", "colA");
  std::string row, column;
  ASSERT_TRUE(DecodeCellKey(key, &row, &column));
  EXPECT_EQ(row, "row1");
  EXPECT_EQ(column, "colA");
}

TEST(CellKeyTest, EmptyColumn) {
  const std::string key = EncodeCellKey("row1", "");
  std::string row, column;
  ASSERT_TRUE(DecodeCellKey(key, &row, &column));
  EXPECT_EQ(row, "row1");
  EXPECT_TRUE(column.empty());
}

TEST(CellKeyTest, NoSeparatorFails) {
  std::string row, column;
  EXPECT_FALSE(DecodeCellKey(Slice("no-separator"), &row, &column));
}

TEST(CellKeyTest, CellsOfOneRowAreContiguous) {
  // All cells of row "ab" sort between "ab\x00" and "ab\x01".
  const std::string a = EncodeCellKey("ab", "z");
  const std::string b = EncodeCellKey("abc", "a");
  EXPECT_LT(a, b);  // row "ab" < row "abc" regardless of columns
}

TEST(MessageTest, PutRequestRoundTrip) {
  PutRequest req;
  req.table = "items";
  req.row = "row42";
  req.cells = {Cell{"title", "widget", false}, Cell{"price", "", true}};
  req.ts = 12345;
  req.return_old_values = true;

  std::string buf;
  req.EncodeTo(&buf);
  Slice in(buf);
  PutRequest decoded;
  ASSERT_TRUE(PutRequest::DecodeFrom(&in, &decoded));
  EXPECT_EQ(decoded.table, "items");
  EXPECT_EQ(decoded.row, "row42");
  ASSERT_EQ(decoded.cells.size(), 2u);
  EXPECT_EQ(decoded.cells[0].column, "title");
  EXPECT_EQ(decoded.cells[0].value, "widget");
  EXPECT_FALSE(decoded.cells[0].is_delete);
  EXPECT_TRUE(decoded.cells[1].is_delete);
  EXPECT_EQ(decoded.ts, 12345u);
  EXPECT_TRUE(decoded.return_old_values);
  EXPECT_TRUE(in.empty());
}

TEST(MessageTest, PutResponseRoundTrip) {
  PutResponse resp;
  resp.assigned_ts = 777;
  resp.old_values = {OldCellValue{"title", true, "old-widget", 700},
                     OldCellValue{"price", false, "", 0}};
  std::string buf;
  resp.EncodeTo(&buf);
  Slice in(buf);
  PutResponse decoded;
  ASSERT_TRUE(PutResponse::DecodeFrom(&in, &decoded));
  EXPECT_EQ(decoded.assigned_ts, 777u);
  ASSERT_EQ(decoded.old_values.size(), 2u);
  EXPECT_TRUE(decoded.old_values[0].found);
  EXPECT_EQ(decoded.old_values[0].value, "old-widget");
  EXPECT_FALSE(decoded.old_values[1].found);
}

TEST(MessageTest, ScanRowsRoundTrip) {
  ScanRowsResponse resp;
  resp.rows = {ScannedRow{"r1", {RowCell{"c1", "v1", 1}}},
               ScannedRow{"r2", {RowCell{"c1", "v2", 2},
                                 RowCell{"c2", "v3", 3}}}};
  std::string buf;
  resp.EncodeTo(&buf);
  Slice in(buf);
  ScanRowsResponse decoded;
  ASSERT_TRUE(ScanRowsResponse::DecodeFrom(&in, &decoded));
  ASSERT_EQ(decoded.rows.size(), 2u);
  EXPECT_EQ(decoded.rows[1].cells[1].value, "v3");
}

TEST(MessageTest, GetRowBatchRoundTrip) {
  GetRowRequest req;
  req.table = "items";
  req.read_ts = 99;
  req.rows = {"r1", "r2", "r1"};  // a batch may repeat a row
  std::string buf;
  req.EncodeTo(&buf);
  Slice in(buf);
  GetRowRequest decoded_req;
  ASSERT_TRUE(GetRowRequest::DecodeFrom(&in, &decoded_req));
  EXPECT_EQ(decoded_req.table, "items");
  EXPECT_EQ(decoded_req.read_ts, 99u);
  EXPECT_EQ(decoded_req.rows, req.rows);
  EXPECT_TRUE(in.empty());

  GetRowResponse resp;
  resp.rows = {RowResult{true, {RowCell{"c1", "v1", 1}}},
               RowResult{false, {}},
               RowResult{true, {RowCell{"c1", "v2", 2},
                                RowCell{"c2", "v3", 3}}}};
  buf.clear();
  resp.EncodeTo(&buf);
  in = Slice(buf);
  GetRowResponse decoded;
  ASSERT_TRUE(GetRowResponse::DecodeFrom(&in, &decoded));
  ASSERT_EQ(decoded.rows.size(), 3u);
  EXPECT_TRUE(decoded.rows[0].found);
  EXPECT_FALSE(decoded.rows[1].found);
  EXPECT_TRUE(decoded.rows[1].cells.empty());
  ASSERT_EQ(decoded.rows[2].cells.size(), 2u);
  EXPECT_EQ(decoded.rows[2].cells[1].column, "c2");
  EXPECT_EQ(decoded.rows[2].cells[1].value, "v3");
  EXPECT_EQ(decoded.rows[2].cells[1].ts, 3u);
  EXPECT_TRUE(in.empty());
}

// A declared row count larger than the bytes that follow is rejected
// before it sizes any vector: decoding must fail, not allocate billions
// of rows.
TEST(MessageTest, GetRowInflatedRowCountFailsToDecode) {
  std::string req_buf;
  PutLengthPrefixedSlice(&req_buf, "items");
  PutFixed64(&req_buf, kMaxTimestamp);
  PutVarint32(&req_buf, 0xFFFFFFF0u);
  PutLengthPrefixedSlice(&req_buf, "r1");
  Slice in(req_buf);
  GetRowRequest req;
  EXPECT_FALSE(GetRowRequest::DecodeFrom(&in, &req));
  EXPECT_TRUE(req.rows.empty());

  std::string resp_buf;
  PutVarint32(&resp_buf, 0xFFFFFFF0u);
  resp_buf.push_back(1);
  PutVarint32(&resp_buf, 0);
  in = Slice(resp_buf);
  GetRowResponse resp;
  EXPECT_FALSE(GetRowResponse::DecodeFrom(&in, &resp));
  EXPECT_TRUE(resp.rows.empty());

  // The same inflation one level down, in a row's cell count.
  resp_buf.clear();
  PutVarint32(&resp_buf, 1);
  resp_buf.push_back(1);
  PutVarint32(&resp_buf, 0xFFFFFFF0u);
  in = Slice(resp_buf);
  EXPECT_FALSE(GetRowResponse::DecodeFrom(&in, &resp));
}

TEST(MessageTest, LayoutRoundTrip) {
  FetchLayoutResponse resp;
  resp.layout_epoch = 42;
  TableInfoWire table;
  table.name = "items";
  IndexInfoWire index;
  index.name = "by_title";
  index.column = "title";
  index.scheme = 2;
  index.index_table = "__idx_items_by_title";
  index.extra_columns = {"subtitle"};
  table.indexes.push_back(index);
  resp.tables.push_back(table);
  resp.regions.push_back(RegionInfoWire{"items", 7, "40", "80", 3});

  std::string buf;
  resp.EncodeTo(&buf);
  Slice in(buf);
  FetchLayoutResponse decoded;
  ASSERT_TRUE(FetchLayoutResponse::DecodeFrom(&in, &decoded));
  EXPECT_EQ(decoded.layout_epoch, 42u);
  ASSERT_EQ(decoded.tables.size(), 1u);
  ASSERT_EQ(decoded.tables[0].indexes.size(), 1u);
  EXPECT_EQ(decoded.tables[0].indexes[0].extra_columns[0], "subtitle");
  ASSERT_EQ(decoded.regions.size(), 1u);
  EXPECT_EQ(decoded.regions[0].server_id, 3u);
}

TEST(MessageTest, TruncatedDecodeFails) {
  PutRequest req;
  req.table = "t";
  req.row = "r";
  req.cells = {Cell{"c", "v", false}};
  std::string buf;
  req.EncodeTo(&buf);
  buf.resize(buf.size() - 3);
  Slice in(buf);
  PutRequest decoded;
  EXPECT_FALSE(PutRequest::DecodeFrom(&in, &decoded));
}

// `prefix` (the fields a decoder reads before a count), then the count
// 0xFFFFFFFF, then a few bytes — far fewer than the count claims.
std::string WithInflatedCount(std::string prefix) {
  PutVarint32(&prefix, 0xFFFFFFFFu);
  prefix += "abc";
  return prefix;
}

template <typename Msg>
bool Decode(const std::string& buf, Msg* msg) {
  Slice in(buf);
  return Msg::DecodeFrom(&in, msg);
}

// Every decoder that sizes a vector from the wire rejects a count above
// the bytes left, and does so before the vector grows.
TEST(MessageTest, EveryDecoderRejectsAnInflatedCount) {
  std::string table_row;
  PutLengthPrefixedSlice(&table_row, "t");
  PutLengthPrefixedSlice(&table_row, "r");
  PutRequest put;
  EXPECT_FALSE(Decode(WithInflatedCount(table_row), &put));
  EXPECT_TRUE(put.cells.empty());

  std::string ts;
  PutFixed64(&ts, 7);
  PutResponse put_resp;
  EXPECT_FALSE(Decode(WithInflatedCount(ts), &put_resp));
  EXPECT_TRUE(put_resp.old_values.empty());

  std::string table_ts;
  PutLengthPrefixedSlice(&table_ts, "t");
  PutFixed64(&table_ts, kMaxTimestamp);
  GetRowRequest get_row;
  EXPECT_FALSE(Decode(WithInflatedCount(table_ts), &get_row));
  EXPECT_TRUE(get_row.rows.empty());
  MultiGetRequest multi_get;
  EXPECT_FALSE(Decode(WithInflatedCount(table_ts), &multi_get));
  EXPECT_TRUE(multi_get.keys.empty());

  GetRowResponse get_row_resp;
  EXPECT_FALSE(Decode(WithInflatedCount(""), &get_row_resp));
  EXPECT_TRUE(get_row_resp.rows.empty());
  ScanRowsResponse scan_rows;
  EXPECT_FALSE(Decode(WithInflatedCount(""), &scan_rows));
  EXPECT_TRUE(scan_rows.rows.empty());
  RawScanResponse raw_scan;
  EXPECT_FALSE(Decode(WithInflatedCount(""), &raw_scan));
  EXPECT_TRUE(raw_scan.entries.empty());
  MultiPutRequest multi_put;
  EXPECT_FALSE(Decode(WithInflatedCount(""), &multi_put));
  EXPECT_TRUE(multi_put.puts.empty());
  MultiPutResponse multi_put_resp;
  EXPECT_FALSE(Decode(WithInflatedCount(""), &multi_put_resp));
  EXPECT_TRUE(multi_put_resp.assigned_ts.empty());
  MultiGetResponse multi_get_resp;
  EXPECT_FALSE(Decode(WithInflatedCount(""), &multi_get_resp));
  EXPECT_TRUE(multi_get_resp.entries.empty());
  IndexScanResponse index_scan;
  EXPECT_FALSE(Decode(WithInflatedCount(""), &index_scan));
  EXPECT_TRUE(index_scan.entries.empty());

  // A row's cell count, one level down in a scanned row.
  std::string one_row;
  PutVarint32(&one_row, 1);
  PutLengthPrefixedSlice(&one_row, "r");
  scan_rows = ScanRowsResponse();
  EXPECT_FALSE(Decode(WithInflatedCount(one_row), &scan_rows));

  std::string index_prefix;
  PutLengthPrefixedSlice(&index_prefix, "by_c");
  PutLengthPrefixedSlice(&index_prefix, "c");
  index_prefix.push_back(0);  // scheme
  PutLengthPrefixedSlice(&index_prefix, "t.by_c");
  IndexInfoWire index_info;
  EXPECT_FALSE(Decode(WithInflatedCount(index_prefix), &index_info));
  EXPECT_TRUE(index_info.extra_columns.empty());

  std::string table_prefix;
  PutLengthPrefixedSlice(&table_prefix, "t");
  table_prefix.push_back(0);  // is_index_table
  TableInfoWire table_info;
  EXPECT_FALSE(Decode(WithInflatedCount(table_prefix), &table_info));
  EXPECT_TRUE(table_info.indexes.empty());

  // FetchLayoutResponse carries two counts: tables, then regions.
  std::string epoch;
  PutVarint64(&epoch, 1);
  FetchLayoutResponse layout;
  EXPECT_FALSE(Decode(WithInflatedCount(epoch), &layout));
  EXPECT_TRUE(layout.tables.empty());
  std::string no_tables = epoch;
  PutVarint32(&no_tables, 0);
  layout = FetchLayoutResponse();
  EXPECT_FALSE(Decode(WithInflatedCount(no_tables), &layout));
  EXPECT_TRUE(layout.regions.empty());
}

// ---- Fabric ----

TEST(FabricTest, CallReachesHandler) {
  Fabric fabric(nullptr);
  fabric.RegisterNode(5, [](MsgType type, Slice body, std::string* resp) {
    EXPECT_EQ(type, MsgType::kGetCell);
    *resp = "echo:" + body.ToString();
    return Status::OK();
  });
  std::string resp;
  ASSERT_TRUE(fabric.Call(1, 5, MsgType::kGetCell, "ping", &resp).ok());
  EXPECT_EQ(resp, "echo:ping");
  EXPECT_EQ(fabric.calls_made(), 1u);
}

TEST(FabricTest, UnregisteredNodeUnavailable) {
  Fabric fabric(nullptr);
  std::string resp;
  EXPECT_TRUE(
      fabric.Call(1, 99, MsgType::kGetCell, "", &resp).IsUnavailable());
}

TEST(FabricTest, DownNodeUnavailable) {
  Fabric fabric(nullptr);
  fabric.RegisterNode(5, [](MsgType, Slice, std::string*) {
    return Status::OK();
  });
  fabric.SetNodeDown(5, true);
  std::string resp;
  EXPECT_TRUE(
      fabric.Call(1, 5, MsgType::kGetCell, "", &resp).IsUnavailable());
  fabric.SetNodeDown(5, false);
  EXPECT_TRUE(fabric.Call(1, 5, MsgType::kGetCell, "", &resp).ok());
}

TEST(FabricTest, PartitionBlocksBothDirections) {
  Fabric fabric(nullptr);
  auto ok_handler = [](MsgType, Slice, std::string*) { return Status::OK(); };
  fabric.RegisterNode(1, ok_handler);
  fabric.RegisterNode(2, ok_handler);
  fabric.SetPartitioned(1, 2, true);
  std::string resp;
  EXPECT_TRUE(fabric.Call(1, 2, MsgType::kGetCell, "", &resp).IsUnavailable());
  EXPECT_TRUE(fabric.Call(2, 1, MsgType::kGetCell, "", &resp).IsUnavailable());
  // Other pairs unaffected.
  fabric.RegisterNode(3, ok_handler);
  EXPECT_TRUE(fabric.Call(1, 3, MsgType::kGetCell, "", &resp).ok());
  fabric.SetPartitioned(1, 2, false);
  EXPECT_TRUE(fabric.Call(1, 2, MsgType::kGetCell, "", &resp).ok());
}

TEST(FabricTest, HandlerStatusPropagates) {
  Fabric fabric(nullptr);
  fabric.RegisterNode(5, [](MsgType, Slice, std::string*) {
    return Status::WrongRegion("moved");
  });
  std::string resp;
  EXPECT_TRUE(fabric.Call(1, 5, MsgType::kPut, "", &resp).IsWrongRegion());
}

}  // namespace
}  // namespace diffindex
