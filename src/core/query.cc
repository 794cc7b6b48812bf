#include "core/query.h"

#include <algorithm>

#include "query/engine.h"

namespace diffindex {

namespace {

// Smallest byte string strictly greater than `v` in prefix order: append
// 0x00 (encoded-value order is plain byte order).
std::string NextKey(const std::string& v) {
  std::string next = v;
  next.push_back('\0');
  return next;
}

}  // namespace

Status QueryEngine::Plan(const Query& query, QueryPlan* plan) {
  *plan = QueryPlan{};
  if (query.table.empty()) {
    return Status::InvalidArgument("query: no table");
  }
  CatalogSnapshot catalog = client_->raw_client()->catalog();
  const TableDescriptor* table = catalog.GetTable(query.table);
  if (table == nullptr) {
    return Status::NotFound("no such table: " + query.table);
  }

  // Pass 1: an equality predicate on an indexed column wins (most
  // selective access path).
  for (const IndexDescriptor& index : table->indexes) {
    // Planning only targets plain single-column indexes; composite and
    // dense-field indexes are queried through the index API directly.
    if (!index.extra_columns.empty() || !index.dense_field.empty()) {
      continue;
    }
    for (const Predicate& predicate : query.predicates) {
      if (predicate.column != index.column ||
          predicate.op != PredicateOp::kEq) {
        continue;
      }
      plan->kind = PlanKind::kIndexExact;
      plan->index_name = index.name;
      plan->exact_value = predicate.value_encoded;
      for (const Predicate& other : query.predicates) {
        if (&other != &predicate) plan->residual.push_back(other);
      }
      plan->explanation = "INDEX EXACT " + index.name + " (" +
                          index.column + " = ...), " +
                          std::to_string(plan->residual.size()) +
                          " residual predicate(s)";
      return Status::OK();
    }
  }

  // Pass 2: range predicates on an indexed column.
  for (const IndexDescriptor& index : table->indexes) {
    if (!index.extra_columns.empty() || !index.dense_field.empty()) {
      continue;
    }
    std::string start, end;
    bool bounded = false;
    std::vector<const Predicate*> consumed;
    for (const Predicate& predicate : query.predicates) {
      if (predicate.column != index.column) continue;
      switch (predicate.op) {
        case PredicateOp::kGe:
          if (start.empty() || predicate.value_encoded > start) {
            start = predicate.value_encoded;
          }
          break;
        case PredicateOp::kGt:
          if (start.empty() || NextKey(predicate.value_encoded) > start) {
            start = NextKey(predicate.value_encoded);
          }
          break;
        case PredicateOp::kLt:
          if (end.empty() || predicate.value_encoded < end) {
            end = predicate.value_encoded;
          }
          break;
        case PredicateOp::kLe:
          if (end.empty() || NextKey(predicate.value_encoded) < end) {
            end = NextKey(predicate.value_encoded);
          }
          break;
        case PredicateOp::kEq:
          continue;  // handled in pass 1
      }
      bounded = true;
      consumed.push_back(&predicate);
    }
    if (!bounded) continue;
    plan->kind = PlanKind::kIndexRange;
    plan->index_name = index.name;
    plan->range_start = start;
    plan->range_end = end;
    for (const Predicate& other : query.predicates) {
      if (std::find(consumed.begin(), consumed.end(), &other) ==
          consumed.end()) {
        plan->residual.push_back(other);
      }
    }
    plan->explanation = "INDEX RANGE " + index.name + " (" + index.column +
                        " in [" + (start.empty() ? "-inf" : "...") + ", " +
                        (end.empty() ? "+inf" : "...") + ")), " +
                        std::to_string(plan->residual.size()) +
                        " residual predicate(s)";
    return Status::OK();
  }

  // Fallback: parallel table scan with every predicate residual.
  plan->kind = PlanKind::kFullScan;
  plan->residual = query.predicates;
  plan->explanation = "FULL SCAN " + query.table + ", " +
                      std::to_string(plan->residual.size()) +
                      " residual predicate(s)";
  return Status::OK();
}

bool QueryEngine::RowMatches(const ScannedRow& row,
                             const std::vector<Predicate>& predicates) {
  for (const Predicate& predicate : predicates) {
    const RowCell* cell = nullptr;
    for (const RowCell& candidate : row.cells) {
      if (candidate.column == predicate.column) {
        cell = &candidate;
        break;
      }
    }
    if (cell == nullptr) return false;
    const int cmp = Slice(cell->value).compare(predicate.value_encoded);
    bool ok = false;
    switch (predicate.op) {
      case PredicateOp::kEq:
        ok = cmp == 0;
        break;
      case PredicateOp::kLt:
        ok = cmp < 0;
        break;
      case PredicateOp::kLe:
        ok = cmp <= 0;
        break;
      case PredicateOp::kGt:
        ok = cmp > 0;
        break;
      case PredicateOp::kGe:
        ok = cmp >= 0;
        break;
    }
    if (!ok) return false;
  }
  return true;
}

void QueryEngine::Project(const std::vector<std::string>& projection,
                          std::vector<ScannedRow>* rows) {
  if (projection.empty()) return;
  for (ScannedRow& row : *rows) {
    std::vector<RowCell> kept;
    for (RowCell& cell : row.cells) {
      if (std::find(projection.begin(), projection.end(), cell.column) !=
          projection.end()) {
        kept.push_back(std::move(cell));
      }
    }
    row.cells = std::move(kept);
  }
}

Status QueryEngine::Execute(const Query& query,
                            std::vector<ScannedRow>* rows) {
  rows->clear();
  QueryPlan plan;
  DIFFINDEX_RETURN_NOT_OK(Plan(query, &plan));

  std::vector<ScannedRow> fetched;
  switch (plan.kind) {
    case PlanKind::kIndexExact: {
      DIFFINDEX_RETURN_NOT_OK(client_->QueryByIndex(
          query.table, plan.index_name, plan.exact_value, &fetched));
      break;
    }
    case PlanKind::kIndexRange: {
      // Scatter-gather scan (query/engine.h): one leg per index region,
      // rows come back already fetched — straight from the index entries
      // when the projection is covered. The engine only sees the
      // projection when no residual predicate needs other columns.
      ScanSpec spec;
      spec.table = query.table;
      spec.index_name = plan.index_name;
      spec.value_lo_encoded = plan.range_start;
      spec.value_hi_encoded = plan.range_end;
      if (plan.residual.empty()) spec.projection = query.projection;
      DIFFINDEX_RETURN_NOT_OK(
          client_->read_engine()->ScanByIndex(spec, ScanOptions(), &fetched));
      break;
    }
    case PlanKind::kFullScan: {
      DIFFINDEX_RETURN_NOT_OK(client_->raw_client()->ScanRows(
          query.table, "", "", kMaxTimestamp, 0, &fetched));
      break;
    }
  }

  for (ScannedRow& row : fetched) {
    if (!RowMatches(row, plan.residual)) continue;
    rows->push_back(std::move(row));
    if (query.limit != 0 && rows->size() >= query.limit) break;
  }
  Project(query.projection, rows);
  return Status::OK();
}

Status QueryEngine::Explain(const Query& query, std::string* text) {
  QueryPlan plan;
  DIFFINDEX_RETURN_NOT_OK(Plan(query, &plan));
  *text = plan.explanation;
  return Status::OK();
}

}  // namespace diffindex
