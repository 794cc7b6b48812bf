#include "query/read_repair.h"

#include <utility>

#include "check/yield.h"
#include "core/index_codec.h"
#include "obs/trace.h"

namespace diffindex {

namespace {

// [index.column, extra_columns...] — the columns whose current base
// values recompute the entry's encoded index value.
std::vector<std::string> VerificationColumns(const IndexDescriptor& index) {
  std::vector<std::string> columns;
  columns.reserve(1 + index.extra_columns.size());
  columns.push_back(index.column);
  for (const auto& extra : index.extra_columns) columns.push_back(extra);
  return columns;
}

}  // namespace

Status BatchedRepairHits(Client* client, ThreadPool* pool, OpStats* stats,
                         const std::string& base_table,
                         const IndexDescriptor& index,
                         std::vector<IndexHit>* hits,
                         std::vector<RowResult>* rows) {
  if (hits->empty()) return Status::OK();
  obs::MetricsRegistry* metrics = client->metrics();
  obs::SpanTimer span(metrics, client->traces(), "query.repair");

  const std::vector<std::string> columns = VerificationColumns(index);

  // Without fetched rows, read the verification columns: one flat key
  // list that Client::MultiGet groups into one RPC per owning server.
  std::vector<MultiGetEntry> entries;
  size_t batch = hits->size();
  if (rows == nullptr) {
    std::vector<MultiGetKey> keys;
    keys.reserve(hits->size() * columns.size());
    for (const auto& hit : *hits) {
      for (const auto& column : columns) {
        keys.push_back(MultiGetKey{hit.base_row, column});
      }
    }
    DIFFINDEX_RETURN_NOT_OK(
        client->MultiGet(base_table, keys, kMaxTimestamp, &entries, pool));
    batch = keys.size();
    if (stats != nullptr) {
      for (size_t i = 0; i < keys.size(); i++) stats->AddBaseRead();
    }
    if (metrics != nullptr) {
      metrics->GetCounter("query.base_reads")->Add(keys.size());
    }
  }
  if (metrics != nullptr) {
    metrics->GetCounter("query.repair.checked")->Add(hits->size());
    metrics->GetHistogram("query.repair.batch_size")->Add(batch);
  }

  // Current base value of hit i's verification column c; null if absent.
  auto current = [&](size_t i, size_t c) -> const std::string* {
    if (rows == nullptr) {
      const MultiGetEntry& entry = entries[i * columns.size() + c];
      return entry.found ? &entry.value : nullptr;
    }
    for (const RowCell& cell : (*rows)[i].cells) {
      if (cell.column == columns[c]) return &cell.value;
    }
    return nullptr;
  };

  // Hits that survive (and their rows) are compacted to the front.
  size_t kept = 0;
  std::vector<PutRequest> tombstones;
  std::vector<std::string> components;
  for (size_t i = 0; i < hits->size(); i++) {
    IndexHit& hit = (*hits)[i];
    components.clear();
    bool missing = false;
    for (size_t c = 0; c < columns.size(); c++) {
      const std::string* value = current(i, c);
      if (value == nullptr) {
        missing = true;
        break;
      }
      std::string component;
      if (c == 0) {
        Status s = IndexComponentFromCell(index, *value, &component);
        if (s.IsNotFound()) {
          missing = true;
          break;
        }
        DIFFINDEX_RETURN_NOT_OK(s);
      } else {
        component = *value;
      }
      components.push_back(std::move(component));
    }

    const bool live =
        !missing && (components.size() == 1
                         ? components[0] == hit.value_encoded
                         : EncodeCompositeIndexValue(components) ==
                               hit.value_encoded);
    if (live) {
      if (kept != i) {
        (*hits)[kept] = std::move(hit);
        if (rows != nullptr) (*rows)[kept] = std::move((*rows)[i]);
      }
      kept++;
      continue;
    }
    if (metrics != nullptr) {
      metrics->GetCounter("query.repair.deleted")->Add();
    }
    if (stats != nullptr) stats->AddIndexPut();
    PutRequest del;
    del.table = index.index_table;
    del.row = EncodeIndexRow(hit.value_encoded, hit.base_row);
    del.cells.push_back(Cell{"", "", /*is_delete=*/true});
    del.ts = hit.ts;
    tombstones.push_back(std::move(del));
  }

  if (!tombstones.empty()) {
    CHECK_YIELD("query.repair");
    // Best-effort: a failed delete leaves the entry stale for a later
    // read to repair.
    client->MultiPutBatch(std::move(tombstones)).IgnoreError();
  }
  hits->resize(kept);
  if (rows != nullptr) rows->resize(kept);
  return Status::OK();
}

}  // namespace diffindex
