// Tests of the mini query layer (the Big SQL stand-in of Section 7):
// planning decisions, execution paths, residual filters, projection.

#include "core/query.h"

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "cluster/cluster.h"
#include "core/index_codec.h"

namespace diffindex {
namespace {

class QueryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ClusterOptions options;
    options.num_servers = 2;
    options.regions_per_table = 4;
    ASSERT_TRUE(Cluster::Create(options, &cluster_).ok());
    client_ = cluster_->NewDiffIndexClient();
    engine_ = std::make_unique<QueryEngine>(client_.get());

    ASSERT_TRUE(cluster_->master()->CreateTable("items").ok());
    IndexDescriptor title_index;
    title_index.name = "by_title";
    title_index.column = "title";
    title_index.scheme = IndexScheme::kSyncFull;
    ASSERT_TRUE(cluster_->master()->CreateIndex("items", title_index).ok());
    IndexDescriptor price_index;
    price_index.name = "by_price";
    price_index.column = "price";
    price_index.scheme = IndexScheme::kSyncFull;
    ASSERT_TRUE(cluster_->master()->CreateIndex("items", price_index).ok());
    ASSERT_TRUE(client_->raw_client()->RefreshLayout().ok());

    // 30 items: title "t<i%3>", price i*10, stock "s<i%2>".
    for (int i = 0; i < 30; i++) {
      char row[16];
      snprintf(row, sizeof(row), "%02x-item%d", (i * 9) % 256, i);
      ASSERT_TRUE(client_
                      ->Put("items", row,
                            {Cell{"title", "t" + std::to_string(i % 3),
                                  false},
                             Cell{"price",
                                  EncodeUint64IndexValue(
                                      static_cast<uint64_t>(i) * 10),
                                  false},
                             Cell{"stock", "s" + std::to_string(i % 2),
                                  false}})
                      .ok());
    }
  }

  Predicate Eq(const std::string& column, const std::string& value) {
    return Predicate{column, PredicateOp::kEq, value};
  }

  std::unique_ptr<Cluster> cluster_;
  std::unique_ptr<DiffIndexClient> client_;
  std::unique_ptr<QueryEngine> engine_;
};

TEST_F(QueryTest, EqualityOnIndexedColumnPlansIndexExact) {
  Query query;
  query.table = "items";
  query.predicates = {Eq("title", "t1")};
  QueryPlan plan;
  ASSERT_TRUE(engine_->Plan(query, &plan).ok());
  EXPECT_EQ(plan.kind, PlanKind::kIndexExact);
  EXPECT_EQ(plan.index_name, "by_title");
  EXPECT_TRUE(plan.residual.empty());
}

TEST_F(QueryTest, RangeOnIndexedColumnPlansIndexRange) {
  Query query;
  query.table = "items";
  query.predicates = {
      Predicate{"price", PredicateOp::kGe, EncodeUint64IndexValue(100)},
      Predicate{"price", PredicateOp::kLt, EncodeUint64IndexValue(200)}};
  QueryPlan plan;
  ASSERT_TRUE(engine_->Plan(query, &plan).ok());
  EXPECT_EQ(plan.kind, PlanKind::kIndexRange);
  EXPECT_EQ(plan.index_name, "by_price");
  EXPECT_TRUE(plan.residual.empty());
}

TEST_F(QueryTest, UnindexedPredicatePlansFullScan) {
  Query query;
  query.table = "items";
  query.predicates = {Eq("stock", "s0")};
  QueryPlan plan;
  ASSERT_TRUE(engine_->Plan(query, &plan).ok());
  EXPECT_EQ(plan.kind, PlanKind::kFullScan);
  EXPECT_EQ(plan.residual.size(), 1u);
}

TEST_F(QueryTest, EqualityPreferredOverRange) {
  Query query;
  query.table = "items";
  query.predicates = {
      Predicate{"price", PredicateOp::kGe, EncodeUint64IndexValue(0)},
      Eq("title", "t0")};
  QueryPlan plan;
  ASSERT_TRUE(engine_->Plan(query, &plan).ok());
  EXPECT_EQ(plan.kind, PlanKind::kIndexExact);
  EXPECT_EQ(plan.index_name, "by_title");
  EXPECT_EQ(plan.residual.size(), 1u);  // the price range becomes residual
}

TEST_F(QueryTest, ExecuteIndexExact) {
  Query query;
  query.table = "items";
  query.predicates = {Eq("title", "t1")};
  std::vector<ScannedRow> rows;
  ASSERT_TRUE(engine_->Execute(query, &rows).ok());
  EXPECT_EQ(rows.size(), 10u);  // i % 3 == 1
}

TEST_F(QueryTest, ExecuteIndexRange) {
  Query query;
  query.table = "items";
  query.predicates = {
      Predicate{"price", PredicateOp::kGe, EncodeUint64IndexValue(100)},
      Predicate{"price", PredicateOp::kLt, EncodeUint64IndexValue(200)}};
  std::vector<ScannedRow> rows;
  ASSERT_TRUE(engine_->Execute(query, &rows).ok());
  EXPECT_EQ(rows.size(), 10u);  // prices 100..190
}

TEST_F(QueryTest, InclusiveAndExclusiveBounds) {
  Query query;
  query.table = "items";
  query.predicates = {
      Predicate{"price", PredicateOp::kGt, EncodeUint64IndexValue(100)},
      Predicate{"price", PredicateOp::kLe, EncodeUint64IndexValue(200)}};
  std::vector<ScannedRow> rows;
  ASSERT_TRUE(engine_->Execute(query, &rows).ok());
  EXPECT_EQ(rows.size(), 10u);  // 110..200
}

TEST_F(QueryTest, ResidualFilterApplied) {
  Query query;
  query.table = "items";
  query.predicates = {Eq("title", "t0"), Eq("stock", "s0")};
  std::vector<ScannedRow> rows;
  ASSERT_TRUE(engine_->Execute(query, &rows).ok());
  // i % 3 == 0 AND i % 2 == 0 -> i in {0,6,12,18,24}.
  EXPECT_EQ(rows.size(), 5u);
}

TEST_F(QueryTest, FullScanWithFilterMatchesIndexPath) {
  Query by_scan;
  by_scan.table = "items";
  by_scan.predicates = {Eq("stock", "s1")};
  std::vector<ScannedRow> scan_rows;
  ASSERT_TRUE(engine_->Execute(by_scan, &scan_rows).ok());
  EXPECT_EQ(scan_rows.size(), 15u);
}

TEST_F(QueryTest, ProjectionTrimsColumns) {
  Query query;
  query.table = "items";
  query.predicates = {Eq("title", "t2")};
  query.projection = {"price"};
  std::vector<ScannedRow> rows;
  ASSERT_TRUE(engine_->Execute(query, &rows).ok());
  ASSERT_FALSE(rows.empty());
  for (const auto& row : rows) {
    ASSERT_EQ(row.cells.size(), 1u);
    EXPECT_EQ(row.cells[0].column, "price");
  }
}

TEST_F(QueryTest, LimitStopsEarly) {
  Query query;
  query.table = "items";
  query.predicates = {Eq("title", "t0")};
  query.limit = 3;
  std::vector<ScannedRow> rows;
  ASSERT_TRUE(engine_->Execute(query, &rows).ok());
  EXPECT_EQ(rows.size(), 3u);
}

TEST_F(QueryTest, NoPredicatesIsFullTable) {
  Query query;
  query.table = "items";
  std::vector<ScannedRow> rows;
  ASSERT_TRUE(engine_->Execute(query, &rows).ok());
  EXPECT_EQ(rows.size(), 30u);
}

TEST_F(QueryTest, UnknownTableFails) {
  Query query;
  query.table = "nope";
  std::vector<ScannedRow> rows;
  EXPECT_TRUE(engine_->Execute(query, &rows).IsNotFound());
}

// An equality plan runs as the range [v, v + '\0'), so a projection the
// index covers comes from the index entries alone: no base row is read.
TEST_F(QueryTest, EqualityPlanServesCoveredProjection) {
  Query query;
  query.table = "items";
  query.predicates = {Eq("title", "t1")};
  query.projection = {"title"};
  const uint64_t base_reads_before =
      cluster_->metrics()->GetCounter("query.base_reads")->value();
  const uint64_t covered_before =
      cluster_->metrics()->GetCounter("query.covered")->value();
  std::vector<ScannedRow> rows;
  ASSERT_TRUE(engine_->Execute(query, &rows).ok());
  ASSERT_EQ(rows.size(), 10u);  // i % 3 == 1
  for (const auto& row : rows) {
    ASSERT_EQ(row.cells.size(), 1u);
    EXPECT_EQ(row.cells[0].value, "t1");
  }
  EXPECT_EQ(cluster_->metrics()->GetCounter("query.base_reads")->value(),
            base_reads_before);
  EXPECT_GT(cluster_->metrics()->GetCounter("query.covered")->value(),
            covered_before);
}

// Plans over a local index — range and equality alike — read the hits
// from the broadcast scan and fetch their rows in one batch; neither
// goes through the global-only scatter-gather scan.
TEST_F(QueryTest, LocalIndexPlansExecute) {
  ASSERT_TRUE(cluster_->master()->CreateTable("stock").ok());
  IndexDescriptor qty_index;
  qty_index.name = "by_qty";
  qty_index.column = "qty";
  qty_index.is_local = true;
  ASSERT_TRUE(cluster_->master()->CreateIndex("stock", qty_index).ok());
  ASSERT_TRUE(client_->raw_client()->RefreshLayout().ok());
  // 20 rows: qty i*5, bin "b<i%4>".
  for (int i = 0; i < 20; i++) {
    char row[16];
    snprintf(row, sizeof(row), "%02x-stock%d", (i * 13) % 256, i);
    ASSERT_TRUE(
        client_
            ->Put("stock", row,
                  {Cell{"qty",
                        EncodeUint64IndexValue(static_cast<uint64_t>(i) * 5),
                        false},
                   Cell{"bin", "b" + std::to_string(i % 4), false}})
            .ok());
  }

  Query range;
  range.table = "stock";
  range.predicates = {
      Predicate{"qty", PredicateOp::kGe, EncodeUint64IndexValue(20)},
      Predicate{"qty", PredicateOp::kLt, EncodeUint64IndexValue(50)},
      Eq("bin", "b1")};
  range.projection = {"qty"};
  QueryPlan plan;
  ASSERT_TRUE(engine_->Plan(range, &plan).ok());
  EXPECT_EQ(plan.kind, PlanKind::kIndexRange);
  EXPECT_EQ(plan.index_name, "by_qty");
  std::vector<ScannedRow> rows;
  ASSERT_TRUE(engine_->Execute(range, &rows).ok());
  // qty 20..45 is i in 4..9; bin b1 keeps i = 5 and 9.
  std::set<std::string> got;
  for (const auto& row : rows) {
    ASSERT_EQ(row.cells.size(), 1u);
    EXPECT_EQ(row.cells[0].column, "qty");
    got.insert(row.cells[0].value);
  }
  EXPECT_EQ(got, (std::set<std::string>{EncodeUint64IndexValue(25),
                                        EncodeUint64IndexValue(45)}));

  Query exact;
  exact.table = "stock";
  exact.predicates = {Eq("qty", EncodeUint64IndexValue(35))};
  ASSERT_TRUE(engine_->Plan(exact, &plan).ok());
  EXPECT_EQ(plan.kind, PlanKind::kIndexExact);
  ASSERT_TRUE(engine_->Execute(exact, &rows).ok());
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].cells.size(), 2u);
}

TEST_F(QueryTest, ExplainDescribesPlan) {
  Query query;
  query.table = "items";
  query.predicates = {Eq("title", "t0")};
  std::string text;
  ASSERT_TRUE(engine_->Explain(query, &text).ok());
  EXPECT_NE(text.find("INDEX EXACT"), std::string::npos);
  EXPECT_NE(text.find("by_title"), std::string::npos);
}

}  // namespace
}  // namespace diffindex
