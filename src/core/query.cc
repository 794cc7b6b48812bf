#include "core/query.h"

#include <algorithm>

#include "query/covered.h"

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
      plan->range_start = predicate.value_encoded;
      plan->range_end = NextKey(predicate.value_encoded);
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

Status QueryEngine::Execute(const Query& query,
                            std::vector<ScannedRow>* rows) {
  rows->clear();
  QueryPlan plan;
  DIFFINDEX_RETURN_NOT_OK(Plan(query, &plan));

  std::vector<ScannedRow> fetched;
  switch (plan.kind) {
    case PlanKind::kIndexExact:
    case PlanKind::kIndexRange: {
      // An exact match is the range [v, v + '\0'). Rows come back already
      // fetched — straight from the index entries when the projection is
      // covered, which the read only sees when no residual predicate
      // needs other columns.
      DIFFINDEX_RETURN_NOT_OK(client_->QueryRangeByIndex(
          query.table, plan.index_name, plan.range_start, plan.range_end,
          plan.residual.empty() ? query.projection
                                : std::vector<std::string>(),
          &fetched));
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
  for (ScannedRow& row : *rows) ProjectCells(query.projection, &row);
  return Status::OK();
}

Status QueryEngine::Explain(const Query& query, std::string* text) {
  QueryPlan plan;
  DIFFINDEX_RETURN_NOT_OK(Plan(query, &plan));
  *text = plan.explanation;
  return Status::OK();
}

}  // namespace diffindex
