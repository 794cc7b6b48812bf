// Covered-index projections: when a query's requested columns are all
// stored inside the index entries themselves (the indexed column plus any
// composite components), the result rows can be materialized straight
// from the index scan with zero base-table reads — the classic covering-
// index optimization catalogued for LSM secondary indexes by Luo & Carey
// (arXiv 1808.08896, §5).
//
// Cells materialized this way carry the *index entry's* timestamp, which
// equals the base put's timestamp for every maintenance scheme (entries
// are delivered with the originating put's explicit ts). For composite
// indexes whose component columns were written by different puts, the
// non-leading components report the entry's ts rather than their own
// cell's ts — documented in DESIGN.md §13.

#ifndef DIFFINDEX_QUERY_COVERED_H_
#define DIFFINDEX_QUERY_COVERED_H_

#include <string>
#include <vector>

#include "cluster/catalog.h"
#include "core/index_codec.h"

namespace diffindex {

// True when `projection` (non-empty) is a subset of the columns the index
// stores: {index.column} ∪ index.extra_columns. Dense-field indexes never
// qualify — their entries hold one extracted field, not the column value.
bool CoveredProjectionEligible(const IndexDescriptor& index,
                               const std::vector<std::string>& projection);

// Materializes one result row from an index hit alone. Produces the
// requested `projection` columns (which must satisfy
// CoveredProjectionEligible), sorted by column name — the same order a
// base-row fetch followed by projection yields. False when the hit's
// encoded value does not decode against the index's component list.
bool MaterializeCoveredRow(const IndexDescriptor& index,
                           const std::vector<std::string>& projection,
                           const IndexHit& hit, ScannedRow* row);

// Keeps only the cells whose column is in `projection` (empty = all),
// preserving cell order: the projection of a fetched base row.
void ProjectCells(const std::vector<std::string>& projection,
                  ScannedRow* row);

}  // namespace diffindex

#endif  // DIFFINDEX_QUERY_COVERED_H_
