// Server side of the batched base reads: one kGetRow / kMultiGet request
// whose keys are unsorted, repeated, absent and spread over several
// regions of one server must answer every position exactly as the
// single-key reads do.

#include <gtest/gtest.h>

#include <map>

#include "cluster/cluster.h"
#include "util/random.h"

namespace diffindex {
namespace {

constexpr char kTable[] = "items";

class BatchedReadTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ClusterOptions options;
    options.num_servers = 1;
    options.regions_per_table = 4;
    options.server.lsm.block_size = 256;
    ASSERT_TRUE(Cluster::Create(options, &cluster_).ok());
    ASSERT_TRUE(cluster_->master()->CreateTable(kTable).ok());
    client_ = cluster_->NewClient();
    server_ = cluster_->server(cluster_->server_ids().front());

    // Rows over the whole hex keyspace (every region), three columns each,
    // written in rounds with flushes between: rows end up split across
    // SSTs and the memtable, some cells deleted, some updated.
    Random rng(7);
    for (int round = 0; round < 4; round++) {
      for (int i = 0; i < 60; i++) {
        const std::string row = Row(i);
        for (const char* column : {"a", "b", "c"}) {
          if (!rng.OneIn(3)) continue;
          if (rng.OneIn(6)) {
            ASSERT_TRUE(client_->Put(kTable, row, {Cell{column, "", true}})
                            .ok());
            model_[row].erase(column);
          } else {
            const std::string value =
                std::string(column) + std::to_string(rng.Uniform(1000));
            ASSERT_TRUE(client_->PutColumn(kTable, row, column, value).ok());
            model_[row][column] = value;
          }
        }
      }
      if (round < 3) ASSERT_TRUE(server_->FlushAll().ok());
    }
  }

  static std::string Row(int i) {
    char row[16];
    snprintf(row, sizeof(row), "%02x-row", (i * 37) % 256);
    return row;
  }

  std::unique_ptr<Cluster> cluster_;
  std::shared_ptr<Client> client_;
  RegionServer* server_ = nullptr;
  std::map<std::string, std::map<std::string, std::string>> model_;
};

TEST_F(BatchedReadTest, GetRowBatchMatchesModelPerPosition) {
  GetRowRequest req;
  req.table = kTable;
  for (int i : {41, 3, 59, 3, 17, 0, 41, 33, 8}) req.rows.push_back(Row(i));
  req.rows.push_back("zz-absent");
  req.rows.push_back("00-absent");
  std::string body, response;
  req.EncodeTo(&body);
  ASSERT_TRUE(server_->Handle(MsgType::kGetRow, Slice(body), &response).ok());
  GetRowResponse resp;
  Slice in(response);
  ASSERT_TRUE(GetRowResponse::DecodeFrom(&in, &resp));
  ASSERT_EQ(resp.rows.size(), req.rows.size());

  for (size_t i = 0; i < req.rows.size(); i++) {
    const auto& expected = model_[req.rows[i]];
    const RowResult& got = resp.rows[i];
    EXPECT_EQ(got.found, !expected.empty()) << req.rows[i];
    std::map<std::string, std::string> cells;
    for (const RowCell& cell : got.cells) cells[cell.column] = cell.value;
    EXPECT_EQ(cells, expected) << req.rows[i];
    // The batch answers each row as a batch of one does.
    RowResult single;
    ASSERT_TRUE(
        client_->GetRow(kTable, req.rows[i], kMaxTimestamp, &single).ok());
    ASSERT_EQ(single.cells.size(), got.cells.size());
    for (size_t c = 0; c < got.cells.size(); c++) {
      EXPECT_EQ(single.cells[c].column, got.cells[c].column);
      EXPECT_EQ(single.cells[c].value, got.cells[c].value);
      EXPECT_EQ(single.cells[c].ts, got.cells[c].ts);
    }
  }
}

TEST_F(BatchedReadTest, MultiGetBatchMatchesGetCellPerPosition) {
  MultiGetRequest req;
  req.table = kTable;
  Random rng(11);
  for (int k = 0; k < 40; k++) {
    const char* columns[] = {"c", "a", "b", "zz"};
    req.keys.push_back(
        MultiGetKey{Row(static_cast<int>(rng.Uniform(64))),
                    columns[rng.Uniform(4)]});
  }
  req.keys.push_back(req.keys.front());  // a repeat
  std::string body, response;
  req.EncodeTo(&body);
  ASSERT_TRUE(
      server_->Handle(MsgType::kMultiGet, Slice(body), &response).ok());
  MultiGetResponse resp;
  Slice in(response);
  ASSERT_TRUE(MultiGetResponse::DecodeFrom(&in, &resp));
  ASSERT_EQ(resp.entries.size(), req.keys.size());

  for (size_t i = 0; i < req.keys.size(); i++) {
    const MultiGetKey& key = req.keys[i];
    std::string value;
    Timestamp ts = 0;
    const Status s = client_->GetCell(kTable, key.row, key.column,
                                      kMaxTimestamp, &value, &ts);
    ASSERT_TRUE(s.ok() || s.IsNotFound()) << s.ToString();
    EXPECT_EQ(resp.entries[i].found, s.ok()) << key.row << "/" << key.column;
    if (s.ok()) {
      EXPECT_EQ(resp.entries[i].value, value);
      EXPECT_EQ(resp.entries[i].ts, ts);
    }
    auto row = model_.find(key.row);
    const bool in_model =
        row != model_.end() && row->second.count(key.column) > 0;
    EXPECT_EQ(resp.entries[i].found, in_model) << key.row << "/" << key.column;
  }
}

TEST_F(BatchedReadTest, RowOfAnotherServerFailsTheWholeBatch) {
  GetRowRequest req;
  req.table = "no-such-table";
  req.rows = {Row(1), Row(2)};
  std::string body, response;
  req.EncodeTo(&body);
  EXPECT_TRUE(server_->Handle(MsgType::kGetRow, Slice(body), &response)
                  .IsWrongRegion());
}

}  // namespace
}  // namespace diffindex
