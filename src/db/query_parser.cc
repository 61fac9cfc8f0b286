#include "db/query_parser.h"

#include <cmath>
#include <cstdlib>
#include <sstream>

namespace rankties {

namespace {

// Parses "9" / "9.5"; consumed must cover the whole token. NaN is refused
// (it has no place in a ranking); +-inf is accepted.
StatusOr<double> ParseNumber(const std::string& text,
                             const std::string& term) {
  if (text.empty()) {
    return Status::InvalidArgument("missing number in term '" + term + "'");
  }
  std::size_t consumed = 0;
  double value = 0;
  try {
    value = std::stod(text, &consumed);
  } catch (...) {
    return Status::InvalidArgument("bad number '" + text + "' in term '" +
                                   term + "'");
  }
  if (consumed != text.size() || std::isnan(value)) {
    return Status::InvalidArgument("bad number '" + text + "' in term '" +
                                   term + "'");
  }
  return value;
}

// Splits "spec" and an optional "~granularity" suffix.
StatusOr<double> SplitGranularity(std::string& spec, const std::string& term) {
  const std::size_t tilde = spec.find('~');
  if (tilde == std::string::npos) return 0.0;
  StatusOr<double> granularity = ParseNumber(spec.substr(tilde + 1), term);
  if (!granularity.ok()) return granularity;
  if (*granularity <= 0) {
    return Status::InvalidArgument("granularity must be positive in '" +
                                   term + "'");
  }
  spec = spec.substr(0, tilde);
  return granularity;
}

StatusOr<AttributePreference> ParseTerm(const Schema& schema,
                                        const std::string& term) {
  const std::size_t colon = term.find(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 >= term.size()) {
    return Status::InvalidArgument("expected column:spec in '" + term + "'");
  }
  AttributePreference pref;
  pref.column = term.substr(0, colon);
  std::string spec = term.substr(colon + 1);

  StatusOr<std::size_t> col = schema.IndexOf(pref.column);
  if (!col.ok()) {
    return Status::InvalidArgument("unknown column '" + pref.column +
                                   "' in '" + term + "'");
  }
  const ColumnType type = schema.column(*col).type;

  if (spec.find('>') != std::string::npos ||
      (type == ColumnType::kCategorical && spec != "asc" && spec != "desc")) {
    if (type != ColumnType::kCategorical) {
      return Status::InvalidArgument("category order on numeric column in '" +
                                     term + "'");
    }
    if (spec.rfind("near=", 0) == 0) {
      return Status::InvalidArgument(
          "near= needs a numeric column in '" + term + "'");
    }
    pref.mode = AttributePreference::Mode::kCategoryOrder;
    std::string level;
    std::istringstream is(spec);
    while (std::getline(is, level, '>')) {
      if (level.empty()) {
        return Status::InvalidArgument("empty category level in '" + term +
                                       "'");
      }
      pref.category_order.push_back(level);
    }
    return pref;
  }

  if (type != ColumnType::kNumeric) {
    return Status::InvalidArgument("asc/desc/near need a numeric column in '" +
                                   term + "'");
  }
  StatusOr<double> granularity = SplitGranularity(spec, term);
  if (!granularity.ok()) return granularity.status();
  pref.granularity = *granularity;

  if (spec == "asc") {
    pref.mode = AttributePreference::Mode::kAscending;
  } else if (spec == "desc") {
    pref.mode = AttributePreference::Mode::kDescending;
  } else if (spec.rfind("near=", 0) == 0) {
    pref.mode = AttributePreference::Mode::kNear;
    StatusOr<double> target = ParseNumber(spec.substr(5), term);
    if (!target.ok()) return target.status();
    pref.target = *target;
  } else {
    return Status::InvalidArgument("unknown spec '" + spec + "' in '" + term +
                                   "' (want asc, desc, near=<x>, or a>b)");
  }
  return pref;
}

}  // namespace

StatusOr<std::vector<AttributePreference>> ParsePreferences(
    const Schema& schema, const std::string& query) {
  std::vector<AttributePreference> prefs;
  std::istringstream is(query);
  std::string term;
  while (is >> term) {
    StatusOr<AttributePreference> pref = ParseTerm(schema, term);
    if (!pref.ok()) return pref.status();
    prefs.push_back(std::move(pref).value());
  }
  if (prefs.empty()) {
    return Status::InvalidArgument("empty preference query");
  }
  return prefs;
}

std::string FormatPreferences(const std::vector<AttributePreference>& prefs) {
  std::ostringstream os;
  for (std::size_t i = 0; i < prefs.size(); ++i) {
    if (i > 0) os << " ";
    os << prefs[i].column << ":";
    switch (prefs[i].mode) {
      case AttributePreference::Mode::kAscending:
        os << "asc";
        break;
      case AttributePreference::Mode::kDescending:
        os << "desc";
        break;
      case AttributePreference::Mode::kNear:
        os << "near=" << prefs[i].target;
        break;
      case AttributePreference::Mode::kCategoryOrder:
        for (std::size_t l = 0; l < prefs[i].category_order.size(); ++l) {
          if (l > 0) os << ">";
          os << prefs[i].category_order[l];
        }
        break;
    }
    if (prefs[i].granularity > 0 &&
        prefs[i].mode != AttributePreference::Mode::kCategoryOrder) {
      os << "~" << prefs[i].granularity;
    }
  }
  return os.str();
}

}  // namespace rankties
