#include "query/covered.h"

#include <algorithm>
#include <utility>

#include "core/index_codec.h"

namespace diffindex {

bool CoveredProjectionEligible(const IndexDescriptor& index,
                               const std::vector<std::string>& projection) {
  if (projection.empty()) return false;
  if (!index.dense_field.empty()) return false;
  for (const auto& column : projection) {
    if (column == index.column) continue;
    if (std::find(index.extra_columns.begin(), index.extra_columns.end(),
                  column) == index.extra_columns.end()) {
      return false;
    }
  }
  return true;
}

bool MaterializeCoveredRow(const IndexDescriptor& index,
                           const std::vector<std::string>& projection,
                           const IndexHit& hit, ScannedRow* row) {
  // Component i of the encoded value is column i of
  // [index.column, extra_columns...]. Single-column indexes store the bare
  // component (no tuple framing).
  std::vector<std::string> components;
  if (index.extra_columns.empty()) {
    components.push_back(hit.value_encoded);
  } else if (!DecodeCompositeIndexValue(hit.value_encoded, &components) ||
             components.size() != index.extra_columns.size() + 1) {
    return false;
  }

  // Distinct projection columns, sorted — the order a base-row fetch
  // (cells sorted by cell key) followed by projection would yield.
  std::vector<std::string> wanted(projection);
  std::sort(wanted.begin(), wanted.end());
  wanted.erase(std::unique(wanted.begin(), wanted.end()), wanted.end());

  row->row = hit.base_row;
  row->cells.clear();
  for (const auto& column : wanted) {
    size_t slot;
    if (column == index.column) {
      slot = 0;
    } else {
      auto it = std::find(index.extra_columns.begin(),
                          index.extra_columns.end(), column);
      if (it == index.extra_columns.end()) return false;
      slot = 1 + static_cast<size_t>(it - index.extra_columns.begin());
    }
    row->cells.push_back(RowCell{column, components[slot], hit.ts});
  }
  return true;
}

void ProjectCells(const std::vector<std::string>& projection,
                  ScannedRow* row) {
  if (projection.empty()) return;
  std::vector<RowCell> kept;
  kept.reserve(row->cells.size());
  for (auto& cell : row->cells) {
    if (std::find(projection.begin(), projection.end(), cell.column) !=
        projection.end()) {
      kept.push_back(std::move(cell));
    }
  }
  row->cells = std::move(kept);
}

}  // namespace diffindex
