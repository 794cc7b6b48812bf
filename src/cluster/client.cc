#include "cluster/client.h"

#include <algorithm>
#include <chrono>
#include <numeric>
#include <thread>

#include "obs/trace.h"
#include "util/logging.h"

namespace diffindex {

Client::Client(Fabric* fabric, NodeId self_node, const ClientOptions& options)
    : fabric_(fabric), self_node_(self_node), options_(options),
      backoff_rng_(options.retry_jitter_seed != 0
                       ? options.retry_jitter_seed
                       : 0x9e3779b9u ^ static_cast<uint64_t>(self_node)) {}

void Client::BackoffBeforeRetry(int attempt) {
  if (options_.metrics != nullptr) {
    options_.metrics->GetCounter("client.retries")->Add();
  }
  // Exponential cap: base * 2^(attempt-1), clamped to retry_backoff_max_ms.
  const int base = std::max(options_.retry_backoff_ms, 1);
  const int max_ms = std::max(options_.retry_backoff_max_ms, base);
  int cap = base;
  for (int i = 1; i < attempt && cap < max_ms; i++) cap *= 2;
  cap = std::min(cap, max_ms);
  // Jitter: uniform in [cap/2, cap] so synchronized failures don't retry
  // in lockstep.
  int sleep_ms;
  {
    MutexLock lock(backoff_mu_);
    sleep_ms = static_cast<int>(backoff_rng_.Range(
        static_cast<uint64_t>(std::max(cap / 2, 1)),
        static_cast<uint64_t>(cap)));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms));
}

void Client::CountRetryExhausted() {
  if (options_.metrics != nullptr) {
    options_.metrics->GetCounter("client.retry_exhausted")->Add();
  }
}

Status Client::RefreshLayout() {
  MutexLock lock(mu_);
  layout_valid_ = false;
  return EnsureLayoutLocked();
}

Status Client::EnsureLayoutLocked() {
  if (layout_valid_) return Status::OK();
  std::string response;
  DIFFINDEX_RETURN_NOT_OK(
      fabric_->Call(self_node_, kMasterNode, MsgType::kFetchLayout, "",
                    &response));
  Slice in(response);
  FetchLayoutResponse layout;
  if (!FetchLayoutResponse::DecodeFrom(&in, &layout)) {
    return Status::Corruption("malformed layout response");
  }
  std::vector<TableDescriptor> tables;
  tables.reserve(layout.tables.size());
  for (const auto& wire : layout.tables) tables.push_back(FromWire(wire));
  catalog_ = CatalogSnapshot(std::move(tables));
  regions_ = std::move(layout.regions);
  std::sort(regions_.begin(), regions_.end(),
            [](const RegionInfoWire& a, const RegionInfoWire& b) {
              if (a.table != b.table) return a.table < b.table;
              return a.start_row < b.start_row;
            });
  layout_valid_ = true;
  layout_refreshes_++;
  if (options_.metrics != nullptr) {
    options_.metrics->GetCounter("client.layout_refreshes")->Add();
  }
  return Status::OK();
}

CatalogSnapshot Client::catalog() {
  MutexLock lock(mu_);
  // Best-effort refresh: on failure the caller gets the cached (possibly
  // empty) snapshot, the same view a data-plane call would retry from.
  EnsureLayoutLocked().IgnoreError();
  return catalog_;
}

Status Client::FindIndex(const std::string& table,
                         const std::string& index_name,
                         IndexDescriptor* index) {
  MutexLock lock(mu_);
  // Best-effort refresh: on failure the lookup runs on the cached
  // (possibly empty) catalog and reports NotFound.
  EnsureLayoutLocked().IgnoreError();
  const TableDescriptor* desc = catalog_.GetTable(table);
  if (desc == nullptr) return Status::NotFound("no such table: " + table);
  for (const auto& candidate : desc->indexes) {
    if (candidate.name == index_name) {
      *index = candidate;
      return Status::OK();
    }
  }
  return Status::NotFound("no such index: " + index_name + " on " + table);
}

const RegionInfoWire* Client::FindRegionLocked(const std::string& table,
                                               const Slice& row) const {
  // regions_ is sorted by (table, start_row): skip to the table, then the
  // first region whose range contains the row wins.
  auto it = std::lower_bound(
      regions_.begin(), regions_.end(), table,
      [](const RegionInfoWire& region, const std::string& t) {
        return region.table < t;
      });
  for (; it != regions_.end() && it->table == table; ++it) {
    if (Slice(it->start_row).compare(row) > 0) break;
    if (!it->end_row.empty() && row.compare(Slice(it->end_row)) >= 0) {
      continue;
    }
    return &*it;
  }
  return nullptr;
}

Status Client::RouteRow(const std::string& table, const Slice& row,
                        RegionInfoWire* info) {
  MutexLock lock(mu_);
  DIFFINDEX_RETURN_NOT_OK(EnsureLayoutLocked());
  const RegionInfoWire* region = FindRegionLocked(table, row);
  if (region == nullptr) {
    return Status::NotFound("no region for " + table);
  }
  *info = *region;
  return Status::OK();
}

std::vector<RegionInfoWire> Client::TableRegions(const std::string& table,
                                                 const std::string& start_row,
                                                 const std::string& end_row) {
  MutexLock lock(mu_);
  // Best-effort refresh; an unreachable master yields an empty listing.
  EnsureLayoutLocked().IgnoreError();
  std::vector<RegionInfoWire> result;
  for (const auto& region : regions_) {
    if (region.table != table) continue;
    if (!region.end_row.empty() && region.end_row <= start_row) continue;
    if (!end_row.empty() && !region.start_row.empty() &&
        region.start_row >= end_row) {
      continue;
    }
    result.push_back(region);
  }
  return result;
}

Status Client::CallRegion(const std::string& table, const Slice& row,
                          MsgType type, const std::string& body,
                          std::string* response) {
  Status last;
  for (int attempt = 0; attempt <= options_.max_retries; attempt++) {
    if (attempt > 0) {
      // Stale map or mid-failover: refresh and retry with backoff.
      BackoffBeforeRetry(attempt);
      Status rs = RefreshLayout();
      if (!rs.ok()) {
        last = rs;
        continue;
      }
    }
    RegionInfoWire region;
    last = RouteRow(table, row, &region);
    if (!last.ok()) continue;
    response->clear();
    last = fabric_->Call(self_node_, region.server_id, type, body, response);
    if (last.ok()) return last;
    if (!last.IsWrongRegion() && !last.IsUnavailable() &&
        !last.IsResourceExhausted()) {
      return last;
    }
  }
  CountRetryExhausted();
  return last;
}

Status Client::Put(const std::string& table, const std::string& row,
                   std::vector<Cell> cells, Timestamp ts,
                   bool return_old_values, PutResponse* resp) {
  PutRequest req;
  req.table = table;
  req.row = row;
  req.cells = std::move(cells);
  req.ts = ts;
  req.return_old_values = return_old_values;
  std::string body, response;
  req.EncodeTo(&body);
  DIFFINDEX_RETURN_NOT_OK(
      CallRegion(table, row, MsgType::kPut, body, &response));
  if (resp != nullptr) {
    Slice in(response);
    if (!PutResponse::DecodeFrom(&in, resp)) {
      return Status::Corruption("malformed put response");
    }
  }
  return Status::OK();
}

Status Client::PutColumn(const std::string& table, const std::string& row,
                         const std::string& column,
                         const std::string& value) {
  return Put(table, row, {Cell{column, value, false}});
}

Status Client::CallPerServer(size_t n, const KeyFn& table_of,
                             const KeyFn& row_of, bool by_row,
                             ThreadPool* pool, const BatchFn& send) {
  if (n == 0) return Status::OK();
  std::vector<NodeId> owner(n);
  std::vector<size_t> order(n);
  std::vector<std::span<const size_t>> batches;
  Status last;
  for (int attempt = 0; attempt <= options_.max_retries; attempt++) {
    if (attempt > 0) {
      BackoffBeforeRetry(attempt);
      Status rs = RefreshLayout();
      if (!rs.ok()) {
        last = rs;
        continue;
      }
    }
    {
      MutexLock lock(mu_);
      last = EnsureLayoutLocked();
      for (size_t i = 0; last.ok() && i < n; i++) {
        const RegionInfoWire* region = FindRegionLocked(table_of(i), row_of(i));
        if (region == nullptr) {
          last = Status::NotFound("no region for " + table_of(i));
        } else {
          owner[i] = region->server_id;
        }
      }
    }
    if (!last.ok()) continue;

    std::iota(order.begin(), order.end(), size_t{0});
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      if (owner[a] != owner[b]) return owner[a] < owner[b];
      if (by_row) {
        const int c = row_of(a).compare(row_of(b));
        if (c != 0) return c < 0;
      }
      return a < b;
    });
    batches.clear();
    for (size_t begin = 0, end = 0; begin < n; begin = end) {
      end = begin + 1;
      while (end < n && owner[order[end]] == owner[order[begin]]) end++;
      batches.emplace_back(order.data() + begin, end - begin);
    }
    std::vector<Status> statuses(batches.size());
    auto run = [&](size_t b) {
      statuses[b] = send(owner[batches[b].front()], batches[b]);
    };
    if (pool != nullptr && batches.size() > 1) {
      obs::RunAllTraced(pool, batches.size(), run);
    } else {
      for (size_t b = 0; b < batches.size(); b++) {
        run(b);
        if (!statuses[b].ok()) break;  // send nothing after a failure
      }
    }
    last = Status::OK();
    for (const Status& status : statuses) {
      if (!status.ok()) {
        last = status;
        break;
      }
    }
    if (last.ok()) return last;
    if (!last.IsWrongRegion() && !last.IsUnavailable() &&
        !last.IsResourceExhausted()) {
      return last;
    }
  }
  CountRetryExhausted();
  return last;
}

Status Client::MultiPut(const std::string& table,
                        std::vector<RowPut> puts) {
  std::vector<PutRequest> requests(puts.size());
  for (size_t i = 0; i < puts.size(); i++) {
    requests[i].table = table;
    requests[i].row = std::move(puts[i].row);
    requests[i].cells = std::move(puts[i].cells);
  }
  return MultiPutBatch(std::move(requests));
}

Status Client::MultiPutBatch(std::vector<PutRequest> puts) {
  return CallPerServer(
      puts.size(), [&](size_t i) -> const std::string& { return puts[i].table; },
      [&](size_t i) -> const std::string& { return puts[i].row; },
      /*by_row=*/false, /*pool=*/nullptr,
      [&](NodeId server, std::span<const size_t> positions) {
        MultiPutRequest batch;
        batch.puts.reserve(positions.size());
        for (size_t i : positions) batch.puts.push_back(puts[i]);
        std::string body, response;
        batch.EncodeTo(&body);
        DIFFINDEX_RETURN_NOT_OK(fabric_->Call(
            self_node_, server, MsgType::kMultiPut, body, &response));
        Slice in(response);
        MultiPutResponse resp;
        if (!MultiPutResponse::DecodeFrom(&in, &resp)) {
          return Status::Corruption("malformed multi-put response");
        }
        return Status::OK();
      });
}

Status Client::DeleteColumns(const std::string& table, const std::string& row,
                             const std::vector<std::string>& columns,
                             Timestamp ts) {
  std::vector<Cell> cells;
  cells.reserve(columns.size());
  for (const auto& column : columns) {
    cells.push_back(Cell{column, "", /*is_delete=*/true});
  }
  return Put(table, row, std::move(cells), ts);
}

Status Client::GetCell(const std::string& table, const std::string& row,
                       const std::string& column, Timestamp read_ts,
                       std::string* value, Timestamp* version_ts) {
  GetCellRequest req;
  req.table = table;
  req.row = row;
  req.column = column;
  req.read_ts = read_ts;
  std::string body, response;
  req.EncodeTo(&body);
  DIFFINDEX_RETURN_NOT_OK(
      CallRegion(table, row, MsgType::kGetCell, body, &response));
  Slice in(response);
  GetCellResponse resp;
  if (!GetCellResponse::DecodeFrom(&in, &resp)) {
    return Status::Corruption("malformed get response");
  }
  if (!resp.found) return Status::NotFound(table + "/" + row);
  *value = std::move(resp.value);
  if (version_ts != nullptr) *version_ts = resp.ts;
  return Status::OK();
}

Status Client::MultiGet(const std::string& table,
                        const std::vector<MultiGetKey>& keys,
                        Timestamp read_ts,
                        std::vector<MultiGetEntry>* entries,
                        ThreadPool* pool) {
  entries->assign(keys.size(), MultiGetEntry{});
  return CallPerServer(
      keys.size(), [&](size_t) -> const std::string& { return table; },
      [&](size_t i) -> const std::string& { return keys[i].row; },
      /*by_row=*/true, pool,
      [&](NodeId server, std::span<const size_t> positions) {
        MultiGetRequest batch;
        batch.table = table;
        batch.read_ts = read_ts;
        batch.keys.reserve(positions.size());
        for (size_t i : positions) batch.keys.push_back(keys[i]);
        std::string body, response;
        batch.EncodeTo(&body);
        DIFFINDEX_RETURN_NOT_OK(fabric_->Call(
            self_node_, server, MsgType::kMultiGet, body, &response));
        Slice in(response);
        MultiGetResponse resp;
        if (!MultiGetResponse::DecodeFrom(&in, &resp) ||
            resp.entries.size() != positions.size()) {
          return Status::Corruption("malformed multi-get response");
        }
        for (size_t j = 0; j < positions.size(); j++) {
          (*entries)[positions[j]] = std::move(resp.entries[j]);
        }
        return Status::OK();
      });
}

Status Client::IndexScanRegion(const std::string& index_table,
                               const RegionInfoWire& region,
                               const std::string& start_key,
                               const std::string& end_key, Timestamp read_ts,
                               uint32_t limit, IndexScanResponse* resp) {
  IndexScanRequest req;
  req.table = index_table;
  req.region_id = region.region_id;
  req.start_key = start_key;
  req.end_key = end_key;
  req.read_ts = read_ts;
  req.limit = limit;
  std::string body, response;
  req.EncodeTo(&body);
  DIFFINDEX_RETURN_NOT_OK(fabric_->Call(self_node_, region.server_id,
                                        MsgType::kIndexScan, body,
                                        &response));
  Slice in(response);
  if (!IndexScanResponse::DecodeFrom(&in, resp)) {
    return Status::Corruption("malformed index scan response");
  }
  return Status::OK();
}

Status Client::GetRows(const std::string& table,
                       const std::vector<std::string>& rows,
                       Timestamp read_ts, std::vector<RowResult>* results,
                       ThreadPool* pool) {
  results->assign(rows.size(), RowResult{});
  return CallPerServer(
      rows.size(), [&](size_t) -> const std::string& { return table; },
      [&](size_t i) -> const std::string& { return rows[i]; },
      /*by_row=*/true, pool,
      [&](NodeId server, std::span<const size_t> positions) {
        GetRowRequest batch;
        batch.table = table;
        batch.read_ts = read_ts;
        batch.rows.reserve(positions.size());
        for (size_t i : positions) batch.rows.push_back(rows[i]);
        std::string body, response;
        batch.EncodeTo(&body);
        DIFFINDEX_RETURN_NOT_OK(fabric_->Call(self_node_, server,
                                              MsgType::kGetRow, body,
                                              &response));
        Slice in(response);
        GetRowResponse resp;
        if (!GetRowResponse::DecodeFrom(&in, &resp) ||
            resp.rows.size() != positions.size()) {
          return Status::Corruption("malformed get-row response");
        }
        for (size_t j = 0; j < positions.size(); j++) {
          (*results)[positions[j]] = std::move(resp.rows[j]);
        }
        return Status::OK();
      });
}

Status Client::GetRow(const std::string& table, const std::string& row,
                      Timestamp read_ts, RowResult* result) {
  std::vector<RowResult> results;
  DIFFINDEX_RETURN_NOT_OK(GetRows(table, {row}, read_ts, &results));
  *result = std::move(results[0]);
  return Status::OK();
}

Status Client::ScanRows(const std::string& table,
                        const std::string& start_row,
                        const std::string& end_row, Timestamp read_ts,
                        uint32_t limit, std::vector<ScannedRow>* rows) {
  rows->clear();
  std::string cursor = start_row;
  for (;;) {
    // Each round trip covers one region (the server clamps to its range).
    ScanRowsRequest req;
    req.table = table;
    req.start_row = cursor;
    req.end_row = end_row;
    req.read_ts = read_ts;
    req.limit_rows =
        limit == 0 ? 0 : limit - static_cast<uint32_t>(rows->size());
    std::string body, response;
    req.EncodeTo(&body);
    DIFFINDEX_RETURN_NOT_OK(
        CallRegion(table, cursor, MsgType::kScanRows, body, &response));
    Slice in(response);
    ScanRowsResponse resp;
    if (!ScanRowsResponse::DecodeFrom(&in, &resp)) {
      return Status::Corruption("malformed scan response");
    }
    for (auto& row : resp.rows) rows->push_back(std::move(row));
    if (limit != 0 && rows->size() >= limit) {
      rows->resize(limit);
      return Status::OK();
    }

    // Advance to the next region.
    RegionInfoWire region;
    DIFFINDEX_RETURN_NOT_OK(RouteRow(table, cursor, &region));
    if (region.end_row.empty()) return Status::OK();
    if (!end_row.empty() && region.end_row >= end_row) return Status::OK();
    cursor = region.end_row;
  }
}

Status Client::ScanLocalIndex(const std::string& table,
                              const std::string& index_name,
                              const std::string& start_key,
                              const std::string& end_key, Timestamp read_ts,
                              uint32_t limit,
                              std::vector<RawEntry>* entries) {
  entries->clear();
  Status last = Status::OK();
  for (int attempt = 0; attempt <= options_.max_retries; attempt++) {
    if (attempt > 0) {
      BackoffBeforeRetry(attempt);
      DIFFINDEX_RETURN_NOT_OK(RefreshLayout());
      entries->clear();
    }
    last = Status::OK();
    for (const RegionInfoWire& region : TableRegions(table)) {
      LocalIndexScanRequest req;
      req.table = table;
      req.region_id = region.region_id;
      req.index_name = index_name;
      req.start_key = start_key;
      req.end_key = end_key;
      req.read_ts = read_ts;
      req.limit = limit;
      std::string body, response;
      req.EncodeTo(&body);
      last = fabric_->Call(self_node_, region.server_id,
                           MsgType::kLocalIndexScan, body, &response);
      if (!last.ok()) break;
      Slice in(response);
      RawScanResponse resp;
      if (!RawScanResponse::DecodeFrom(&in, &resp)) {
        return Status::Corruption("malformed local index scan response");
      }
      for (auto& entry : resp.entries) {
        entries->push_back(std::move(entry));
      }
      if (limit != 0 && entries->size() >= limit) {
        entries->resize(limit);
        return Status::OK();
      }
    }
    if (last.ok()) return Status::OK();
    if (!last.IsWrongRegion() && !last.IsUnavailable() &&
        !last.IsResourceExhausted()) {
      return last;
    }
  }
  CountRetryExhausted();
  return last;
}

Status Client::FlushTable(const std::string& table) {
  for (const auto& region : TableRegions(table)) {
    RegionAdminRequest req;
    req.table = table;
    req.region_id = region.region_id;
    std::string body, response;
    req.EncodeTo(&body);
    DIFFINDEX_RETURN_NOT_OK(fabric_->Call(self_node_, region.server_id,
                                          MsgType::kFlushRegion, body,
                                          &response));
  }
  return Status::OK();
}

Status Client::CompactTable(const std::string& table) {
  for (const auto& region : TableRegions(table)) {
    RegionAdminRequest req;
    req.table = table;
    req.region_id = region.region_id;
    std::string body, response;
    req.EncodeTo(&body);
    DIFFINDEX_RETURN_NOT_OK(fabric_->Call(self_node_, region.server_id,
                                          MsgType::kCompactRegion, body,
                                          &response));
  }
  return Status::OK();
}

}  // namespace diffindex
