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

Status BatchedRepairHits(Client* client, OpStats* stats,
                         const std::string& base_table,
                         const IndexDescriptor& index,
                         std::vector<IndexHit>* hits) {
  if (hits->empty()) return Status::OK();
  obs::MetricsRegistry* metrics = client->metrics();
  obs::SpanTimer span(metrics, client->traces(), "query.repair");

  const std::vector<std::string> columns = VerificationColumns(index);

  // One flat key list; Client::MultiGet groups it into one RPC per
  // owning server.
  std::vector<MultiGetKey> keys;
  keys.reserve(hits->size() * columns.size());
  for (const auto& hit : *hits) {
    for (const auto& column : columns) {
      keys.push_back(MultiGetKey{hit.base_row, column});
    }
  }
  std::vector<MultiGetEntry> entries;
  DIFFINDEX_RETURN_NOT_OK(
      client->MultiGet(base_table, keys, kMaxTimestamp, &entries));
  if (stats != nullptr) {
    for (size_t i = 0; i < keys.size(); i++) stats->AddBaseRead();
  }
  if (metrics != nullptr) {
    metrics->GetCounter("query.base_reads")->Add(keys.size());
    metrics->GetCounter("query.repair.checked")->Add(hits->size());
    metrics->GetHistogram("query.repair.batch_size")->Add(keys.size());
  }

  // Hits that survive are compacted to the front of *hits.
  size_t kept = 0;
  std::vector<PutRequest> tombstones;
  std::vector<std::string> components;
  size_t cursor = 0;
  for (size_t i = 0; i < hits->size(); i++) {
    IndexHit& hit = (*hits)[i];
    components.clear();
    bool missing = false;
    for (const auto& column : columns) {
      MultiGetEntry& entry = entries[cursor++];
      if (!entry.found) {
        missing = true;
        continue;  // remaining columns were fetched anyway; skip them
      }
      std::string component;
      if (column == index.column) {
        Status s = IndexComponentFromCell(index, entry.value, &component);
        if (s.IsNotFound()) {
          missing = true;
          continue;
        }
        DIFFINDEX_RETURN_NOT_OK(s);
      } else {
        component = std::move(entry.value);
      }
      components.push_back(std::move(component));
    }

    const bool live =
        !missing && (components.size() == 1
                         ? components[0] == hit.value_encoded
                         : EncodeCompositeIndexValue(components) ==
                               hit.value_encoded);
    if (live) {
      if (kept != i) (*hits)[kept] = std::move(hit);
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
  return Status::OK();
}

}  // namespace diffindex
