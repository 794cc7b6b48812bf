#include "core/diff_index_client.h"

#include <algorithm>

#include "query/covered.h"
#include "query/engine.h"

namespace diffindex {

DiffIndexClient::DiffIndexClient(std::shared_ptr<Client> client,
                                 OpStats* stats,
                                 const SessionOptions& session_options)
    : client_(std::move(client)),
      stats_(stats),
      sessions_(session_options),
      engine_(std::make_unique<ReadEngine>(this)),
      metrics_(client_->metrics()),
      traces_(client_->traces()) {}

DiffIndexClient::~DiffIndexClient() = default;

Status DiffIndexClient::FindIndex(const std::string& table,
                                  const std::string& index_name,
                                  IndexDescriptor* index) {
  return client_->FindIndex(table, index_name, index);
}

std::string DiffIndexClient::SchemeTag(const std::string& table) {
  {
    MutexLock lock(scheme_mu_);
    auto it = scheme_by_table_.find(table);
    if (it != scheme_by_table_.end()) return it->second;
  }
  // One catalog lookup per table outside the lock (it may RPC the master).
  CatalogSnapshot catalog = client_->catalog();
  const TableDescriptor* desc = catalog.GetTable(table);
  if (desc == nullptr) return "";  // not cached: the table may appear later
  std::string tag;
  if (!desc->indexes.empty()) tag = IndexSchemeName(desc->indexes[0].scheme);
  MutexLock lock(scheme_mu_);
  return scheme_by_table_.emplace(table, std::move(tag)).first->second;
}

obs::TraceContext DiffIndexClient::OpContext(const char* op,
                                             const std::string& table) {
  std::string scheme = SchemeTag(table);
  const obs::TraceContext& ambient = obs::CurrentTraceContext();
  if (ambient.active()) {
    obs::TraceContext child = ambient.Child();
    if (child.scheme.empty()) child.scheme = std::move(scheme);
    return child;
  }
  return obs::TraceContext::NewRoot(op, std::move(scheme));
}

Status DiffIndexClient::Put(const std::string& table, const std::string& row,
                            std::vector<Cell> cells) {
  obs::ScopedTraceContext scope(OpContext("put", table));
  obs::SpanTimer span(metrics_, traces_, "client.put");
  if (stats_ != nullptr) stats_->AddBasePut();
  return client_->Put(table, row, std::move(cells));
}

Status DiffIndexClient::PutColumn(const std::string& table,
                                  const std::string& row,
                                  const std::string& column,
                                  const std::string& value) {
  return Put(table, row, {Cell{column, value, false}});
}

Status DiffIndexClient::DeleteColumns(
    const std::string& table, const std::string& row,
    const std::vector<std::string>& columns) {
  obs::ScopedTraceContext scope(OpContext("delete_columns", table));
  obs::SpanTimer span(metrics_, traces_, "client.delete_columns");
  if (stats_ != nullptr) stats_->AddBasePut();
  return client_->DeleteColumns(table, row, columns);
}

Status DiffIndexClient::Get(const std::string& table, const std::string& row,
                            const std::string& column, std::string* value) {
  obs::ScopedTraceContext scope(OpContext("get", table));
  obs::SpanTimer span(metrics_, traces_, "client.get");
  if (stats_ != nullptr) stats_->AddBaseRead();
  return client_->GetCell(table, row, column, kMaxTimestamp, value);
}

Status DiffIndexClient::GetRow(const std::string& table,
                               const std::string& row,
                               RowResult* result) {
  obs::ScopedTraceContext scope(OpContext("get_row", table));
  obs::SpanTimer span(metrics_, traces_, "client.get_row");
  if (stats_ != nullptr) stats_->AddBaseRead();
  return client_->GetRow(table, row, kMaxTimestamp, result);
}

Status DiffIndexClient::ReadIndex(const std::string& table,
                                  const std::string& index_name,
                                  const std::string& value_lo_encoded,
                                  const std::string& value_hi_encoded,
                                  uint32_t limit, SessionId session,
                                  std::vector<IndexHit>* hits) {
  hits->clear();
  IndexDescriptor index;
  DIFFINDEX_RETURN_NOT_OK(FindIndex(table, index_name, &index));
  if (metrics_ != nullptr) metrics_->GetCounter("index.read")->Add();
  if (stats_ != nullptr) stats_->AddIndexRead();
  if (index.is_local) {
    // Maintained inside the put itself, so a session's own writes are
    // already visible: no private entries to merge.
    return BroadcastLocalScan(index, table, value_lo_encoded,
                              value_hi_encoded, limit, hits);
  }
  ScanSpec spec;
  spec.table = table;
  spec.index_name = index_name;
  spec.value_lo_encoded = value_lo_encoded;
  spec.value_hi_encoded = value_hi_encoded;
  spec.limit = limit;
  ScanOptions options;
  // One page over the whole range: one leg per index region and one
  // sync-insert check MultiGet per base server, each fan-out on the
  // engine's pool when it has more than one leg (query/engine.h).
  options.page_entries = 0;
  options.session = session;
  return engine_->ReadHits(std::move(spec), options, std::move(index), hits);
}

Status DiffIndexClient::BroadcastLocalScan(const IndexDescriptor& index,
                                           const std::string& table,
                                           const std::string& value_lo_encoded,
                                           const std::string& value_hi_encoded,
                                           uint32_t limit,
                                           std::vector<IndexHit>* hits) {
  std::vector<RawEntry> entries;
  DIFFINDEX_RETURN_NOT_OK(client_->ScanLocalIndex(
      table, index.name, IndexRangeStart(value_lo_encoded),
      value_hi_encoded.empty() ? "" : IndexRangeEnd(value_hi_encoded),
      kMaxTimestamp, limit, &entries));
  hits->reserve(entries.size());
  for (const auto& entry : entries) {
    IndexHit hit;
    if (!DecodeIndexRow(entry.key, &hit.value_encoded, &hit.base_row)) {
      hits->clear();
      return Status::Corruption("malformed local index row");
    }
    hit.ts = entry.ts;
    hits->push_back(std::move(hit));
  }
  // Per-region results arrive region by region; normalize the order.
  std::sort(hits->begin(), hits->end(),
            [](const IndexHit& a, const IndexHit& b) {
              if (a.value_encoded != b.value_encoded) {
                return a.value_encoded < b.value_encoded;
              }
              return a.base_row < b.base_row;
            });
  return Status::OK();
}

// An exact match on v is the range [v, v + '\0'): no encoded value sorts
// strictly between the two.
Status DiffIndexClient::GetByIndex(const std::string& table,
                                   const std::string& index_name,
                                   const std::string& value_encoded,
                                   std::vector<IndexHit>* hits) {
  obs::ScopedTraceContext scope(OpContext("get_by_index", table));
  obs::SpanTimer span(metrics_, traces_, "client.get_by_index");
  return ReadIndex(table, index_name, value_encoded, value_encoded + '\0', 0,
                   /*session=*/0, hits);
}

Status DiffIndexClient::RangeByIndex(const std::string& table,
                                     const std::string& index_name,
                                     const std::string& value_lo_encoded,
                                     const std::string& value_hi_encoded,
                                     uint32_t limit,
                                     std::vector<IndexHit>* hits) {
  obs::ScopedTraceContext scope(OpContext("range_by_index", table));
  obs::SpanTimer span(metrics_, traces_, "client.range_by_index");
  return ReadIndex(table, index_name, value_lo_encoded, value_hi_encoded,
                   limit, /*session=*/0, hits);
}

Status DiffIndexClient::QueryByIndex(const std::string& table,
                                     const std::string& index_name,
                                     const std::string& value_encoded,
                                     std::vector<ScannedRow>* rows) {
  obs::ScopedTraceContext scope(OpContext("query_by_index", table));
  obs::SpanTimer span(metrics_, traces_, "client.query_by_index");
  return ReadRows(table, index_name, value_encoded, value_encoded + '\0',
                  /*projection=*/{}, rows);
}

Status DiffIndexClient::QueryRangeByIndex(
    const std::string& table, const std::string& index_name,
    const std::string& value_lo_encoded, const std::string& value_hi_encoded,
    const std::vector<std::string>& projection,
    std::vector<ScannedRow>* rows) {
  obs::ScopedTraceContext scope(OpContext("query_range_by_index", table));
  obs::SpanTimer span(metrics_, traces_, "client.query_range_by_index");
  return ReadRows(table, index_name, value_lo_encoded, value_hi_encoded,
                  projection, rows);
}

Status DiffIndexClient::ReadRows(const std::string& table,
                                 const std::string& index_name,
                                 const std::string& value_lo_encoded,
                                 const std::string& value_hi_encoded,
                                 const std::vector<std::string>& projection,
                                 std::vector<ScannedRow>* rows) {
  rows->clear();
  IndexDescriptor index;
  DIFFINDEX_RETURN_NOT_OK(FindIndex(table, index_name, &index));
  if (metrics_ != nullptr) metrics_->GetCounter("index.read")->Add();
  if (stats_ != nullptr) stats_->AddIndexRead();
  if (!index.is_local) {
    ScanSpec spec;
    spec.table = table;
    spec.index_name = index_name;
    spec.value_lo_encoded = value_lo_encoded;
    spec.value_hi_encoded = value_hi_encoded;
    spec.projection = projection;
    return engine_->ScanByIndex(spec, ScanOptions(), rows);
  }
  std::vector<IndexHit> hits;
  DIFFINDEX_RETURN_NOT_OK(BroadcastLocalScan(index, table, value_lo_encoded,
                                             value_hi_encoded, 0, &hits));
  // One kGetRow batch per base server.
  std::vector<std::string> keys;
  keys.reserve(hits.size());
  for (const IndexHit& hit : hits) keys.push_back(hit.base_row);
  std::vector<RowResult> fetched;
  if (stats_ != nullptr) {
    for (size_t i = 0; i < keys.size(); i++) stats_->AddBaseRead();
  }
  DIFFINDEX_RETURN_NOT_OK(
      client_->GetRows(table, keys, kMaxTimestamp, &fetched));
  for (size_t i = 0; i < keys.size(); i++) {
    if (!fetched[i].found) continue;  // row deleted since the index read
    ScannedRow row;
    row.row = std::move(keys[i]);
    row.cells = std::move(fetched[i].cells);
    ProjectCells(projection, &row);
    rows->push_back(std::move(row));
  }
  return Status::OK();
}

SessionId DiffIndexClient::GetSession() { return sessions_.CreateSession(); }

void DiffIndexClient::EndSession(SessionId session) {
  sessions_.EndSession(session);
}

Status DiffIndexClient::SessionPut(SessionId session, const std::string& table,
                                   const std::string& row,
                                   std::vector<Cell> cells) {
  // The server returns the previous value of each written cell plus the
  // assigned timestamp; the client library mirrors the server-side index
  // mutations into the session's private tables (Section 5.2).
  obs::ScopedTraceContext scope(OpContext("session_put", table));
  obs::SpanTimer span(metrics_, traces_, "client.session_put");
  if (stats_ != nullptr) stats_->AddBasePut();
  PutResponse resp;
  DIFFINDEX_RETURN_NOT_OK(client_->Put(table, row, cells, /*ts=*/0,
                                       /*return_old_values=*/true, &resp));
  const Timestamp ts = resp.assigned_ts;

  CatalogSnapshot catalog = client_->catalog();
  const TableDescriptor* desc = catalog.GetTable(table);
  if (desc == nullptr) return Status::OK();

  for (const IndexDescriptor& index : desc->indexes) {
    // A local index is updated inside the put, so reads already see it.
    if (index.is_local) continue;
    // Private tracking needs every component value client-side, so it is
    // maintained for indexes fully determined by this put (all single-
    // column indexes qualify).
    const Cell* new_cell = nullptr;
    for (const Cell& cell : cells) {
      if (cell.column == index.column) {
        new_cell = &cell;
        break;
      }
    }
    if (new_cell == nullptr || !index.extra_columns.empty()) continue;

    // Same logic as the server: delete-marker for the superseded entry at
    // ts - δ, new entry at ts.
    const OldCellValue* old = nullptr;
    for (const OldCellValue& candidate : resp.old_values) {
      if (candidate.column == index.column) {
        old = &candidate;
        break;
      }
    }
    if (old != nullptr && old->found) {
      std::string old_component;
      if (IndexComponentFromCell(index, old->value, &old_component).ok()) {
        const std::string old_row = EncodeIndexRow(old_component, row);
        DIFFINDEX_RETURN_NOT_OK(sessions_.RecordEntry(
            session, index.index_table, old_row, ts - kDelta,
            /*is_delete=*/true));
      }
    }
    if (!new_cell->is_delete) {
      std::string new_component;
      if (IndexComponentFromCell(index, new_cell->value, &new_component)
              .ok()) {
        const std::string new_row = EncodeIndexRow(new_component, row);
        DIFFINDEX_RETURN_NOT_OK(sessions_.RecordEntry(
            session, index.index_table, new_row, ts, /*is_delete=*/false));
      }
    }
  }
  return Status::OK();
}

Status DiffIndexClient::SessionGetByIndex(SessionId session,
                                          const std::string& table,
                                          const std::string& index_name,
                                          const std::string& value_encoded,
                                          std::vector<IndexHit>* hits) {
  obs::ScopedTraceContext scope(OpContext("session_get_by_index", table));
  obs::SpanTimer span(metrics_, traces_, "client.session_get_by_index");
  return ReadIndex(table, index_name, value_encoded, value_encoded + '\0', 0,
                   session, hits);
}

Status DiffIndexClient::SessionRangeByIndex(
    SessionId session, const std::string& table,
    const std::string& index_name, const std::string& value_lo_encoded,
    const std::string& value_hi_encoded, std::vector<IndexHit>* hits) {
  obs::ScopedTraceContext scope(OpContext("session_range_by_index", table));
  obs::SpanTimer span(metrics_, traces_, "client.session_range_by_index");
  // No limit: it would make the private-entry merge ambiguous about what
  // the cutoff hides.
  return ReadIndex(table, index_name, value_lo_encoded, value_hi_encoded, 0,
                   session, hits);
}

}  // namespace diffindex
