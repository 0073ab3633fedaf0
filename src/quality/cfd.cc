#include "quality/cfd.h"

#include <algorithm>
#include <map>
#include <set>

#include "common/strings.h"

namespace vada {

PatternValue PatternValue::Wildcard() { return PatternValue(); }

PatternValue PatternValue::Constant(Value v) {
  PatternValue p;
  p.is_wildcard_ = false;
  p.value_ = std::move(v);
  return p;
}

bool PatternValue::Matches(const Value& v) const {
  if (is_wildcard_) return !v.is_null();
  return v == value_;
}

std::string PatternValue::ToString() const {
  return is_wildcard_ ? "_" : value_.ToLiteral();
}

std::string Cfd::ToString() const {
  std::string out = "[";
  for (size_t i = 0; i < lhs_attributes.size(); ++i) {
    if (i > 0) out += ", ";
    out += lhs_attributes[i] + "=" + lhs_pattern[i].ToString();
  }
  out += "] -> " + rhs_attribute + "=" + rhs_pattern.ToString();
  char buf[64];
  std::snprintf(buf, sizeof(buf), " (sup %.2f, conf %.2f)", support,
                confidence);
  out += buf;
  return out;
}

Relation CfdsToRelation(const std::vector<Cfd>& cfds,
                        const std::string& relation_name) {
  Relation rel(Schema::Untyped(relation_name,
                               {"id", "lhs_attributes", "lhs_pattern",
                                "rhs_attribute", "rhs_pattern", "support",
                                "confidence"}));
  int64_t id = 0;
  for (const Cfd& c : cfds) {
    std::vector<std::string> pattern_parts;
    for (const PatternValue& p : c.lhs_pattern) {
      pattern_parts.push_back(p.is_wildcard() ? "_" : p.value().ToString());
    }
    rel.InsertUnchecked(Tuple(
        {Value::Int(id++), Value::String(Join(c.lhs_attributes, "|")),
         Value::String(Join(pattern_parts, "|")),
         Value::String(c.rhs_attribute),
         Value::String(c.rhs_pattern.is_wildcard()
                           ? "_"
                           : c.rhs_pattern.value().ToString()),
         Value::Double(c.support), Value::Double(c.confidence)}));
  }
  return rel;
}

Result<std::vector<Cfd>> CfdsFromRelation(const Relation& rel) {
  if (rel.schema().arity() != 7) {
    return Status::InvalidArgument("cfd relation must have arity 7");
  }
  std::vector<Cfd> out;
  for (const Tuple& t : rel.rows()) {
    Cfd c;
    c.lhs_attributes = Split(t.at(1).ToString(), '|');
    std::vector<std::string> patterns = Split(t.at(2).ToString(), '|');
    if (patterns.size() != c.lhs_attributes.size()) {
      return Status::InvalidArgument("cfd pattern arity mismatch: " +
                                     t.ToString());
    }
    for (const std::string& p : patterns) {
      c.lhs_pattern.push_back(p == "_"
                                  ? PatternValue::Wildcard()
                                  : PatternValue::Constant(Value::FromText(p)));
    }
    c.rhs_attribute = t.at(3).ToString();
    std::string rhs = t.at(4).ToString();
    c.rhs_pattern = (rhs == "_") ? PatternValue::Wildcard()
                                 : PatternValue::Constant(Value::FromText(rhs));
    c.support = t.at(5).AsDouble().value_or(0.0);
    c.confidence = t.at(6).AsDouble().value_or(0.0);
    out.push_back(std::move(c));
  }
  return out;
}

CfdLearner::CfdLearner(CfdLearnerOptions options) : options_(options) {}

void CfdLearner::LearnForLhs(const Relation& data,
                             const std::vector<size_t>& lhs_idx,
                             std::vector<Cfd>* out) const {
  const size_t n_rows = data.size();
  if (n_rows == 0) return;
  const Schema& schema = data.schema();

  for (size_t rhs = 0; rhs < schema.arity(); ++rhs) {
    if (std::find(lhs_idx.begin(), lhs_idx.end(), rhs) != lhs_idx.end()) {
      continue;
    }
    // Group rows by lhs values; count rhs values per group.
    std::map<Tuple, std::map<Value, size_t>> groups;
    size_t usable = 0;
    for (const Tuple& row : data.rows()) {
      bool has_null = row.at(rhs).is_null();
      std::vector<Value> key;
      key.reserve(lhs_idx.size());
      for (size_t li : lhs_idx) {
        if (row.at(li).is_null()) {
          has_null = true;
          break;
        }
        key.push_back(row.at(li));
      }
      if (has_null) continue;
      ++usable;
      groups[Tuple(std::move(key))][row.at(rhs)]++;
    }
    if (usable < options_.min_support_count) continue;

    // Variable CFD confidence: majority agreement across all groups.
    size_t agree = 0;
    struct PureGroup {
      Tuple key;
      Value rhs_value;
      size_t size;
    };
    std::vector<PureGroup> pure_groups;
    for (const auto& [key, counts] : groups) {
      size_t group_size = 0;
      size_t majority = 0;
      const Value* majority_value = nullptr;
      for (const auto& [v, c] : counts) {
        group_size += c;
        if (c > majority) {
          majority = c;
          majority_value = &v;
        }
      }
      agree += majority;
      if (counts.size() == 1 && group_size >= options_.constant_min_group) {
        pure_groups.push_back(PureGroup{key, *majority_value, group_size});
      }
    }
    double confidence = static_cast<double>(agree) / static_cast<double>(usable);
    double support = static_cast<double>(usable) / static_cast<double>(n_rows);

    if (confidence >= options_.min_confidence) {
      Cfd c;
      for (size_t li : lhs_idx) {
        c.lhs_attributes.push_back(schema.attributes()[li].name);
        c.lhs_pattern.push_back(PatternValue::Wildcard());
      }
      c.rhs_attribute = schema.attributes()[rhs].name;
      c.rhs_pattern = PatternValue::Wildcard();
      c.support = support;
      c.confidence = confidence;
      out->push_back(std::move(c));
    } else {
      // No global dependency; emit the strongest constant CFDs instead.
      std::sort(pure_groups.begin(), pure_groups.end(),
                [](const PureGroup& a, const PureGroup& b) {
                  if (a.size != b.size) return a.size > b.size;
                  return a.key < b.key;
                });
      size_t emitted = 0;
      for (const PureGroup& g : pure_groups) {
        if (emitted >= options_.max_constant_cfds) break;
        Cfd c;
        for (size_t k = 0; k < lhs_idx.size(); ++k) {
          c.lhs_attributes.push_back(schema.attributes()[lhs_idx[k]].name);
          c.lhs_pattern.push_back(PatternValue::Constant(g.key.at(k)));
        }
        c.rhs_attribute = schema.attributes()[rhs].name;
        c.rhs_pattern = PatternValue::Constant(g.rhs_value);
        c.support = static_cast<double>(g.size) / static_cast<double>(n_rows);
        c.confidence = 1.0;
        out->push_back(std::move(c));
        ++emitted;
      }
    }
  }
}

std::vector<Cfd> CfdLearner::Learn(const Relation& data) const {
  std::vector<Cfd> out;
  const size_t arity = data.schema().arity();
  for (size_t i = 0; i < arity; ++i) {
    LearnForLhs(data, {i}, &out);
  }
  if (options_.try_pairs) {
    for (size_t i = 0; i < arity; ++i) {
      for (size_t j = i + 1; j < arity; ++j) {
        // Skip pairs subsumed by an already-found single-attribute
        // variable CFD with the same rhs (a superset lhs is weaker).
        LearnForLhs(data, {i, j}, &out);
      }
    }
    // Remove pair CFDs subsumed by single-attribute variable CFDs. Index
    // the singles first (moving elements while scanning would corrupt the
    // subsumption check).
    std::set<std::pair<std::string, std::string>> single_fds;  // (lhs, rhs)
    for (const Cfd& c : out) {
      if (c.lhs_attributes.size() == 1 && c.is_variable()) {
        single_fds.insert({c.lhs_attributes[0], c.rhs_attribute});
      }
    }
    std::vector<Cfd> filtered;
    for (Cfd& c : out) {
      bool subsumed = false;
      if (c.lhs_attributes.size() > 1 && c.is_variable()) {
        for (const std::string& lhs : c.lhs_attributes) {
          if (single_fds.count({lhs, c.rhs_attribute}) > 0) {
            subsumed = true;
            break;
          }
        }
      }
      if (!subsumed) filtered.push_back(std::move(c));
    }
    out = std::move(filtered);
  }
  return out;
}

std::string CfdViolation::ToString() const {
  std::string out = "row " + std::to_string(row_index) + " violates " +
                    (cfd != nullptr ? cfd->ToString() : "<none>");
  if (!expected.is_null()) {
    out += ", expected " + expected.ToLiteral();
  }
  return out;
}

namespace {

/// Builds lhs-value -> expected-rhs map for a variable CFD from a
/// relation (skips groups with conflicting rhs — no expectation there).
std::unordered_map<Tuple, Value, TupleHash> BuildExpectation(
    const Cfd& cfd, const Relation& rel) {
  std::unordered_map<Tuple, Value, TupleHash> expected;
  std::vector<size_t> lhs_idx;
  for (const std::string& a : cfd.lhs_attributes) {
    std::optional<size_t> i = rel.schema().AttributeIndex(a);
    if (!i.has_value()) return {};
    lhs_idx.push_back(*i);
  }
  std::optional<size_t> rhs_idx = rel.schema().AttributeIndex(cfd.rhs_attribute);
  if (!rhs_idx.has_value()) return {};

  std::map<Tuple, std::map<Value, size_t>> groups;
  for (const Tuple& row : rel.rows()) {
    if (row.at(*rhs_idx).is_null()) continue;
    std::vector<Value> key;
    bool has_null = false;
    for (size_t k = 0; k < lhs_idx.size(); ++k) {
      const Value& v = row.at(lhs_idx[k]);
      if (!cfd.lhs_pattern[k].Matches(v)) {
        has_null = true;
        break;
      }
      key.push_back(v);
    }
    if (has_null) continue;
    groups[Tuple(std::move(key))][row.at(*rhs_idx)]++;
  }
  for (const auto& [key, counts] : groups) {
    const Value* best = nullptr;
    size_t best_count = 0;
    size_t total = 0;
    for (const auto& [v, c] : counts) {
      total += c;
      if (c > best_count) {
        best_count = c;
        best = &v;
      }
    }
    // Expect the majority value only when it is a clear majority.
    if (best != nullptr && best_count * 2 > total) {
      expected.emplace(key, *best);
    }
  }
  return expected;
}

/// Whether `row` matches every lhs pattern of `cfd` at `lhs_idx`.
bool MatchesLhs(const Cfd& cfd, const std::vector<size_t>& lhs_idx,
                const Tuple& row) {
  for (size_t k = 0; k < lhs_idx.size(); ++k) {
    if (!cfd.lhs_pattern[k].Matches(row.at(lhs_idx[k]))) return false;
  }
  return true;
}

}  // namespace

CfdChecker::CfdChecker(std::vector<Cfd> cfds, const Relation* evidence)
    : cfds_(std::move(cfds)), compiled_(evidence != nullptr) {
  expectations_.resize(cfds_.size());
  if (!compiled_) return;
  for (size_t c = 0; c < cfds_.size(); ++c) {
    if (cfds_[c].is_variable()) {
      expectations_[c] = BuildExpectation(cfds_[c], *evidence);
    }
  }
}

std::vector<CfdViolation> CfdChecker::FindViolations(
    const Relation& data) const {
  std::vector<CfdViolation> out;
  for (size_t c = 0; c < cfds_.size(); ++c) {
    const Cfd& cfd = cfds_[c];
    std::vector<size_t> lhs_idx;
    bool attrs_ok = true;
    for (const std::string& a : cfd.lhs_attributes) {
      std::optional<size_t> i = data.schema().AttributeIndex(a);
      if (!i.has_value()) {
        attrs_ok = false;
        break;
      }
      lhs_idx.push_back(*i);
    }
    std::optional<size_t> rhs_idx =
        data.schema().AttributeIndex(cfd.rhs_attribute);
    if (!attrs_ok || !rhs_idx.has_value()) continue;
    const std::vector<Tuple>& rows = data.rows();

    if (!cfd.is_variable()) {
      for (size_t r = 0; r < rows.size(); ++r) {
        const Value& rhs_value = rows[r].at(*rhs_idx);
        if (rhs_value.is_null()) continue;  // incompleteness, not violation
        if (MatchesLhs(cfd, lhs_idx, rows[r]) &&
            !cfd.rhs_pattern.Matches(rhs_value)) {
          out.push_back(CfdViolation{r, &cfd, cfd.rhs_pattern.value()});
        }
      }
      continue;
    }

    Expectation derived;
    if (!compiled_) derived = BuildExpectation(cfd, data);
    const Expectation& expected = compiled_ ? expectations_[c] : derived;
    if (expected.empty()) continue;
    // One key reused for every row: assigning a value into it copies no
    // more than the value itself.
    Tuple key(std::vector<Value>(lhs_idx.size()));
    for (size_t r = 0; r < rows.size(); ++r) {
      const Tuple& row = rows[r];
      const Value& rhs_value = row.at(*rhs_idx);
      if (rhs_value.is_null()) continue;  // incompleteness, not violation
      if (!MatchesLhs(cfd, lhs_idx, row)) continue;
      for (size_t k = 0; k < lhs_idx.size(); ++k) key[k] = row.at(lhs_idx[k]);
      auto it = expected.find(key);
      if (it != expected.end() && !(it->second == rhs_value)) {
        out.push_back(CfdViolation{r, &cfd, it->second});
      }
    }
  }
  return out;
}

double CfdChecker::ConsistencyScore(const Relation& data) const {
  if (data.empty()) return 1.0;
  std::vector<CfdViolation> violations = FindViolations(data);
  std::set<size_t> bad_rows;
  for (const CfdViolation& v : violations) bad_rows.insert(v.row_index);
  return 1.0 - static_cast<double>(bad_rows.size()) /
                   static_cast<double>(data.size());
}

Result<Relation> CfdChecker::Repaired(const Relation& data,
                                      const std::string& name,
                                      size_t* repaired) const {
  // The cells to set, in violation order; a stable sort by row keeps each
  // row's patches in CFD order.
  struct Patch {
    size_t row;
    size_t column;
    const Value* value;
  };
  std::vector<CfdViolation> violations = FindViolations(data);
  std::vector<Patch> patches;
  for (const CfdViolation& v : violations) {
    if (v.expected.is_null() || v.cfd == nullptr) continue;
    std::optional<size_t> rhs_idx =
        data.schema().AttributeIndex(v.cfd->rhs_attribute);
    if (!rhs_idx.has_value()) continue;
    patches.push_back(Patch{v.row_index, *rhs_idx, &v.expected});
  }
  std::stable_sort(patches.begin(), patches.end(),
                   [](const Patch& a, const Patch& b) { return a.row < b.row; });

  Relation out(Schema(name, data.schema().attributes()));
  size_t changed = 0;
  auto patch = patches.begin();
  for (size_t r = 0; r < data.size(); ++r) {
    Tuple row = data.rows()[r];
    for (; patch != patches.end() && patch->row == r; ++patch) {
      if (!(row.at(patch->column) == *patch->value)) {
        row[patch->column] = *patch->value;
        ++changed;
      }
    }
    VADA_RETURN_IF_ERROR(out.InsertUnchecked(std::move(row)));
  }
  if (repaired != nullptr) *repaired = changed;
  return out;
}

Result<size_t> CfdChecker::Repair(Relation* data) const {
  size_t changed = 0;
  Result<Relation> repaired = Repaired(*data, data->name(), &changed);
  if (!repaired.ok()) return repaired.status();
  *data = std::move(repaired).value();
  return changed;
}

}  // namespace vada
