#include "db/table.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <sstream>
#include <unordered_map>

#include "rank/conversions.h"

namespace rankties {

Status Table::AddRow(std::vector<Value> row) {
  if (row.size() != schema_.num_columns()) {
    return Status::InvalidArgument("row arity does not match schema");
  }
  for (std::size_t c = 0; c < row.size(); ++c) {
    if (row[c].is_null()) continue;
    const bool numeric_ok =
        schema_.column(c).type == ColumnType::kNumeric && row[c].is_number();
    const bool categorical_ok =
        schema_.column(c).type == ColumnType::kCategorical && row[c].is_text();
    if (!numeric_ok && !categorical_ok) {
      return Status::InvalidArgument("cell type mismatch in column '" +
                                     schema_.column(c).name + "'");
    }
  }
  rows_.push_back(std::move(row));
  return Status::Ok();
}

std::vector<Value> Table::ColumnValues(std::size_t col) const {
  std::vector<Value> values;
  values.reserve(rows_.size());
  for (const auto& row : rows_) values.push_back(row[col]);
  return values;
}

StatusOr<std::vector<double>> Table::NumericColumn(
    const std::string& name) const {
  StatusOr<std::size_t> col = schema_.IndexOf(name);
  if (!col.ok()) return col.status();
  if (schema_.column(*col).type != ColumnType::kNumeric) {
    return Status::FailedPrecondition("column '" + name + "' is not numeric");
  }
  std::vector<double> values;
  values.reserve(rows_.size());
  for (const auto& row : rows_) {
    values.push_back(row[*col].is_null()
                         ? std::numeric_limits<double>::infinity()
                         : row[*col].AsNumber().value());
  }
  return values;
}

StatusOr<std::vector<std::string>> Table::CategoricalLevels(
    const std::string& name) const {
  StatusOr<std::size_t> col = schema_.IndexOf(name);
  if (!col.ok()) return col.status();
  if (schema_.column(*col).type != ColumnType::kCategorical) {
    return Status::FailedPrecondition("column '" + name +
                                      "' is not categorical");
  }
  std::set<std::string> levels;
  for (const auto& row : rows_) {
    if (!row[*col].is_null()) levels.insert(row[*col].AsText().value());
  }
  return std::vector<std::string>(levels.begin(), levels.end());
}

StatusOr<BucketOrder> Table::RankAscending(const std::string& column,
                                           double granularity) const {
  StatusOr<std::vector<double>> values = NumericColumn(column);
  if (!values.ok()) return values.status();
  if (granularity > 0) return QuantizeScores(*values, granularity);
  return BucketOrder::FromScores(*values);
}

StatusOr<BucketOrder> Table::RankDescending(const std::string& column,
                                            double granularity) const {
  StatusOr<std::vector<double>> values = NumericColumn(column);
  if (!values.ok()) return values.status();
  std::vector<double> negated(values->size());
  for (std::size_t i = 0; i < values->size(); ++i) {
    negated[i] = -(*values)[i];
  }
  if (granularity > 0) return QuantizeScores(negated, granularity);
  return BucketOrder::FromScores(negated);
}

StatusOr<BucketOrder> Table::RankNear(const std::string& column, double target,
                                      double granularity) const {
  StatusOr<std::vector<double>> values = NumericColumn(column);
  if (!values.ok()) return values.status();
  return RankByDistance(*values, target, granularity);
}

StatusOr<BucketOrder> Table::RankCategorical(
    const std::string& column,
    const std::vector<std::string>& preference) const {
  StatusOr<std::size_t> col = schema_.IndexOf(column);
  if (!col.ok()) return col.status();
  if (schema_.column(*col).type != ColumnType::kCategorical) {
    return Status::FailedPrecondition("column '" + column +
                                      "' is not categorical");
  }
  std::unordered_map<std::string, std::int64_t> rank_of_level;
  for (std::size_t i = 0; i < preference.size(); ++i) {
    if (!rank_of_level.emplace(preference[i], static_cast<std::int64_t>(i))
             .second) {
      return Status::InvalidArgument("duplicate level in preference order");
    }
  }
  const std::int64_t bottom = static_cast<std::int64_t>(preference.size());
  std::vector<std::int64_t> keys(rows_.size(), bottom);
  for (std::size_t r = 0; r < rows_.size(); ++r) {
    const Value& cell = rows_[r][*col];
    if (cell.is_null()) continue;
    const auto it = rank_of_level.find(cell.AsText().value());
    if (it != rank_of_level.end()) keys[r] = it->second;
  }
  return BucketOrder::FromIntKeys(keys);
}

namespace {

// Copies the rows selected by `keep` into a fresh table.
StatusOr<TableFilterResult> CopyRows(const Table& table,
                                     const std::vector<bool>& keep) {
  TableFilterResult result;
  result.table = Table(table.schema());
  for (std::size_t r = 0; r < table.num_rows(); ++r) {
    if (!keep[r]) continue;
    std::vector<Value> row;
    row.reserve(table.schema().num_columns());
    for (std::size_t c = 0; c < table.schema().num_columns(); ++c) {
      row.push_back(table.At(r, c));
    }
    Status s = result.table.AddRow(std::move(row));
    if (!s.ok()) return s;
    result.original_rows.push_back(static_cast<ElementId>(r));
  }
  return result;
}

}  // namespace

StatusOr<TableFilterResult> Table::WhereNumericRange(
    const std::string& column, double lo, double hi) const {
  StatusOr<std::size_t> col = schema_.IndexOf(column);
  if (!col.ok()) return col.status();
  if (schema_.column(*col).type != ColumnType::kNumeric) {
    return Status::FailedPrecondition("column '" + column +
                                      "' is not numeric");
  }
  std::vector<bool> keep(rows_.size(), false);
  for (std::size_t r = 0; r < rows_.size(); ++r) {
    const Value& cell = rows_[r][*col];
    if (cell.is_null()) continue;
    const double v = cell.AsNumber().value();
    keep[r] = v >= lo && v <= hi;
  }
  return CopyRows(*this, keep);
}

StatusOr<TableFilterResult> Table::WhereCategoryIn(
    const std::string& column, const std::vector<std::string>& levels) const {
  StatusOr<std::size_t> col = schema_.IndexOf(column);
  if (!col.ok()) return col.status();
  if (schema_.column(*col).type != ColumnType::kCategorical) {
    return Status::FailedPrecondition("column '" + column +
                                      "' is not categorical");
  }
  std::vector<bool> keep(rows_.size(), false);
  for (std::size_t r = 0; r < rows_.size(); ++r) {
    const Value& cell = rows_[r][*col];
    if (cell.is_null()) continue;
    const std::string text = cell.AsText().value();
    keep[r] = std::find(levels.begin(), levels.end(), text) != levels.end();
  }
  return CopyRows(*this, keep);
}

StatusOr<Table> Table::Select(const std::vector<std::string>& columns) const {
  std::vector<std::size_t> picks;
  std::vector<Column> schema_columns;
  for (const std::string& name : columns) {
    StatusOr<std::size_t> col = schema_.IndexOf(name);
    if (!col.ok()) return col.status();
    if (std::find(picks.begin(), picks.end(), *col) != picks.end()) {
      return Status::InvalidArgument("duplicate column '" + name + "'");
    }
    picks.push_back(*col);
    schema_columns.push_back(schema_.column(*col));
  }
  if (picks.empty()) return Status::InvalidArgument("empty projection");
  Table projected(Schema(std::move(schema_columns)));
  for (const auto& row : rows_) {
    std::vector<Value> out;
    out.reserve(picks.size());
    for (std::size_t c : picks) out.push_back(row[c]);
    Status s = projected.AddRow(std::move(out));
    if (!s.ok()) return s;
  }
  return projected;
}

namespace {

bool NeedsQuoting(const std::string& text) {
  return text.find_first_of(",\"\n") != std::string::npos;
}

std::string QuoteCsv(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

// Splits one CSV record, honoring double-quoted fields.
StatusOr<std::vector<std::string>> SplitCsvLine(const std::string& line) {
  std::vector<std::string> fields;
  std::string field;
  bool in_quotes = false;
  for (std::size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          field += '"';
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        field += c;
      }
    } else if (c == '"') {
      in_quotes = true;
    } else if (c == ',') {
      fields.push_back(std::move(field));
      field.clear();
    } else {
      field += c;
    }
  }
  if (in_quotes) return Status::InvalidArgument("unterminated quote in CSV");
  fields.push_back(std::move(field));
  return fields;
}

}  // namespace

std::string Table::ToCsv() const {
  std::ostringstream os;
  for (std::size_t c = 0; c < schema_.num_columns(); ++c) {
    if (c > 0) os << ",";
    const std::string& name = schema_.column(c).name;
    os << (NeedsQuoting(name) ? QuoteCsv(name) : name);
  }
  os << "\n";
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      if (c > 0) os << ",";
      const std::string text = row[c].ToString();
      os << (NeedsQuoting(text) ? QuoteCsv(text) : text);
    }
    os << "\n";
  }
  return os.str();
}

StatusOr<Table> Table::FromCsv(const Schema& schema, const std::string& csv) {
  Table table(schema);
  std::istringstream is(csv);
  std::string line;
  bool header = true;
  while (std::getline(is, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    StatusOr<std::vector<std::string>> fields = SplitCsvLine(line);
    if (!fields.ok()) return fields.status();
    if (header) {
      if (fields->size() != schema.num_columns()) {
        return Status::InvalidArgument("CSV header arity mismatch");
      }
      for (std::size_t c = 0; c < fields->size(); ++c) {
        if ((*fields)[c] != schema.column(c).name) {
          return Status::InvalidArgument("CSV header name mismatch: '" +
                                         (*fields)[c] + "'");
        }
      }
      header = false;
      continue;
    }
    if (fields->size() != schema.num_columns()) {
      return Status::InvalidArgument("CSV row arity mismatch");
    }
    std::vector<Value> row;
    row.reserve(fields->size());
    for (std::size_t c = 0; c < fields->size(); ++c) {
      const std::string& text = (*fields)[c];
      if (text.empty()) {
        row.emplace_back();
      } else if (schema.column(c).type == ColumnType::kNumeric) {
        std::size_t consumed = 0;
        double number = 0;
        try {
          number = std::stod(text, &consumed);
        } catch (...) {
          return Status::InvalidArgument("bad numeric cell: '" + text + "'");
        }
        // NaN would break the strict weak order the rankings sort by;
        // +-inf sorts, so it stays.
        if (consumed != text.size() || std::isnan(number)) {
          return Status::InvalidArgument("bad numeric cell: '" + text + "'");
        }
        row.emplace_back(number);
      } else {
        row.emplace_back(text);
      }
    }
    Status s = table.AddRow(std::move(row));
    if (!s.ok()) return s;
  }
  if (header) return Status::InvalidArgument("CSV missing header");
  return table;
}

}  // namespace rankties
