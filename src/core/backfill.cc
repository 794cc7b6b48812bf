#include "core/backfill.h"

#include <algorithm>

#include "core/index_codec.h"

namespace diffindex {

Status IndexBackfill::FindIndex(const std::string& base_table,
                                const std::string& index_name,
                                IndexDescriptor* index) {
  CatalogSnapshot catalog = client_->catalog();
  const TableDescriptor* table = catalog.GetTable(base_table);
  if (table == nullptr) {
    return Status::NotFound("no such table: " + base_table);
  }
  for (const auto& candidate : table->indexes) {
    if (candidate.name == index_name) {
      *index = candidate;
      return Status::OK();
    }
  }
  return Status::NotFound("no such index: " + index_name);
}

Status IndexBackfill::Run(const std::string& base_table,
                          const std::string& index_name,
                          BackfillReport* report) {
  *report = BackfillReport{};
  IndexDescriptor index;
  DIFFINDEX_RETURN_NOT_OK(FindIndex(base_table, index_name, &index));

  std::vector<std::string> columns;
  columns.push_back(index.column);
  for (const auto& extra : index.extra_columns) columns.push_back(extra);

  std::string cursor;  // "" = table start
  for (;;) {
    std::vector<ScannedRow> rows;
    DIFFINDEX_RETURN_NOT_OK(client_->ScanRows(base_table, cursor, "",
                                              kMaxTimestamp, kScanBatch,
                                              &rows));
    if (rows.empty()) return Status::OK();

    for (const ScannedRow& row : rows) {
      report->rows_scanned++;
      std::vector<std::string> components;
      Timestamp entry_ts = 0;
      bool missing = false;
      for (const auto& column : columns) {
        const RowCell* found = nullptr;
        for (const RowCell& cell : row.cells) {
          if (cell.column == column) {
            found = &cell;
            break;
          }
        }
        if (found == nullptr) {
          missing = true;
          break;
        }
        std::string component = found->value;
        if (column == index.column &&
            !IndexComponentFromCell(index, found->value, &component).ok()) {
          missing = true;
          break;
        }
        components.push_back(std::move(component));
        entry_ts = std::max(entry_ts, found->ts);
      }
      if (missing) {
        report->rows_skipped++;
        continue;
      }
      const std::string value_encoded =
          components.size() == 1 ? components[0]
                                 : EncodeCompositeIndexValue(components);
      const std::string index_row = EncodeIndexRow(value_encoded, row.row);
      if (stats_ != nullptr) stats_->AddIndexPut();
      // Entry carries the base cell's own timestamp: a concurrent normal
      // update (newer ts) wins over the backfill, never the reverse.
      DIFFINDEX_RETURN_NOT_OK(client_->Put(
          index.index_table, index_row, {Cell{"", "", false}}, entry_ts));
      report->entries_written++;
    }
    cursor = rows.back().row + '\x01';  // next possible row key
  }
}

Status IndexBackfill::Verify(const std::string& base_table,
                             const std::string& index_name,
                             VerifyReport* report) {
  *report = VerifyReport{};
  IndexDescriptor index;
  DIFFINDEX_RETURN_NOT_OK(FindIndex(base_table, index_name, &index));
  if (index.is_local) {
    return Status::NotSupported(
        "verify targets global indexes (local indexes are rebuilt from "
        "base data on open and cannot drift persistently)");
  }

  std::vector<std::string> columns;
  columns.push_back(index.column);
  for (const auto& extra : index.extra_columns) columns.push_back(extra);

  // Direction 1: every index entry points at a base row that still
  // carries the entry's value.
  std::string cursor;
  for (;;) {
    std::vector<ScannedRow> rows;
    DIFFINDEX_RETURN_NOT_OK(client_->ScanRows(index.index_table, cursor, "",
                                              kMaxTimestamp, kScanBatch,
                                              &rows));
    if (rows.empty()) break;
    for (const ScannedRow& entry : rows) {
      report->entries_scanned++;
      std::string value_encoded, base_row;
      if (!DecodeIndexRow(entry.row, &value_encoded, &base_row)) {
        report->stale_entries++;
        continue;
      }
      std::vector<std::string> components;
      bool missing = false;
      for (const auto& column : columns) {
        std::string value;
        Status s = client_->GetCell(base_table, base_row, column,
                                    kMaxTimestamp, &value);
        if (s.ok() && column == index.column) {
          std::string component;
          s = IndexComponentFromCell(index, value, &component);
          value = std::move(component);
        }
        if (s.IsNotFound()) {
          missing = true;
          break;
        }
        DIFFINDEX_RETURN_NOT_OK(s);
        components.push_back(std::move(value));
      }
      const std::string current =
          missing ? std::string()
                  : (components.size() == 1
                         ? components[0]
                         : EncodeCompositeIndexValue(components));
      if (missing || current != value_encoded) report->stale_entries++;
    }
    cursor = rows.back().row + '\x01';
  }

  // Direction 2: every base row with the indexed column(s) has its entry.
  cursor.clear();
  for (;;) {
    std::vector<ScannedRow> rows;
    DIFFINDEX_RETURN_NOT_OK(client_->ScanRows(base_table, cursor, "",
                                              kMaxTimestamp, kScanBatch,
                                              &rows));
    if (rows.empty()) break;
    for (const ScannedRow& row : rows) {
      report->rows_scanned++;
      std::vector<std::string> components;
      bool absent = false;
      for (const auto& column : columns) {
        const RowCell* found = nullptr;
        for (const RowCell& cell : row.cells) {
          if (cell.column == column) {
            found = &cell;
            break;
          }
        }
        if (found == nullptr) {
          absent = true;
          break;
        }
        std::string component = found->value;
        if (column == index.column &&
            !IndexComponentFromCell(index, found->value, &component).ok()) {
          absent = true;
          break;
        }
        components.push_back(std::move(component));
      }
      if (absent) continue;  // nothing to index for this row
      const std::string value_encoded =
          components.size() == 1 ? components[0]
                                 : EncodeCompositeIndexValue(components);
      const std::string index_row = EncodeIndexRow(value_encoded, row.row);
      RowResult entry;
      DIFFINDEX_RETURN_NOT_OK(client_->GetRow(index.index_table, index_row,
                                              kMaxTimestamp, &entry));
      if (!entry.found) report->missing_entries++;
    }
    cursor = rows.back().row + '\x01';
  }
  return Status::OK();
}

Status IndexBackfill::Cleanse(const std::string& base_table,
                              const std::string& index_name,
                              CleanseReport* report) {
  *report = CleanseReport{};
  IndexDescriptor index;
  DIFFINDEX_RETURN_NOT_OK(FindIndex(base_table, index_name, &index));

  std::vector<std::string> columns;
  columns.push_back(index.column);
  for (const auto& extra : index.extra_columns) columns.push_back(extra);

  std::string cursor;
  for (;;) {
    std::vector<ScannedRow> rows;
    DIFFINDEX_RETURN_NOT_OK(client_->ScanRows(index.index_table, cursor, "",
                                              kMaxTimestamp, kScanBatch,
                                              &rows));
    if (rows.empty()) return Status::OK();

    for (const ScannedRow& entry : rows) {
      report->entries_scanned++;
      std::string value_encoded, base_row;
      if (!DecodeIndexRow(entry.row, &value_encoded, &base_row)) continue;
      const Timestamp entry_ts =
          entry.cells.empty() ? 0 : entry.cells[0].ts;

      std::vector<std::string> components;
      bool missing = false;
      for (const auto& column : columns) {
        std::string value;
        if (stats_ != nullptr) stats_->AddBaseRead();
        Status s = client_->GetCell(base_table, base_row, column,
                                    kMaxTimestamp, &value);
        if (s.ok() && column == index.column) {
          std::string component;
          s = IndexComponentFromCell(index, value, &component);
          value = std::move(component);
        }
        if (s.IsNotFound()) {
          missing = true;
          break;
        }
        DIFFINDEX_RETURN_NOT_OK(s);
        components.push_back(std::move(value));
      }
      std::string current;
      if (!missing) {
        current = components.size() == 1
                      ? components[0]
                      : EncodeCompositeIndexValue(components);
      }
      if (!missing && current == value_encoded) continue;  // up to date

      if (stats_ != nullptr) stats_->AddIndexPut();
      DIFFINDEX_RETURN_NOT_OK(client_->Put(index.index_table, entry.row,
                                           {Cell{"", "", true}}, entry_ts));
      report->stale_removed++;
    }
    cursor = rows.back().row + '\x01';
  }
}

}  // namespace diffindex
