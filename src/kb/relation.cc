#include "kb/relation.h"

#include <algorithm>

namespace vada {

Status Relation::CheckTuple(const Tuple& t, bool type_check) const {
  if (t.size() != schema_.arity()) {
    return Status::InvalidArgument(
        "tuple arity " + std::to_string(t.size()) + " does not match schema " +
        schema_.ToString());
  }
  if (type_check) {
    for (size_t i = 0; i < t.size(); ++i) {
      if (!IsCompatible(schema_.attributes()[i].type, t.at(i).type())) {
        return Status::InvalidArgument(
            "value " + t.at(i).ToLiteral() + " incompatible with attribute " +
            schema_.attributes()[i].name + ":" +
            AttributeTypeName(schema_.attributes()[i].type) + " of relation " +
            name());
      }
    }
  }
  return Status::OK();
}

namespace {

/// Slot where a probe for `hash` starts. Tuple hashes of small integers
/// are close to the identity, so the bits are mixed before masking.
size_t HomeSlot(size_t hash, size_t mask) {
  uint64_t h = static_cast<uint64_t>(hash) * 0x9E3779B97F4A7C15ull;
  return static_cast<size_t>(h ^ (h >> 32)) & mask;
}

}  // namespace

Status Relation::Insert(Tuple t, bool* added) {
  return Add(std::move(t), /*type_check=*/true, added);
}

Status Relation::InsertUnchecked(Tuple t, bool* added) {
  return Add(std::move(t), /*type_check=*/false, added);
}

Status Relation::Add(Tuple t, bool type_check, bool* added) {
  VADA_RETURN_IF_ERROR(CheckTuple(t, type_check));
  const size_t hash = t.Hash();
  size_t slot = 0;
  if (!slots_.empty()) {
    slot = Probe(t, hash);
    if (slots_[slot] != kEmptySlot) {  // already present
      if (added != nullptr) *added = false;
      return Status::OK();
    }
  }
  // A new row: grow first when it would push the load above 1/2.
  if (slots_.size() < 2 * (rows_.size() + 1)) {
    Rehash(std::max<size_t>(8, 2 * slots_.size()));
    slot = Probe(t, hash);
  }
  slots_[slot] = static_cast<uint32_t>(rows_.size());
  rows_.push_back(std::move(t));
  hashes_.push_back(hash);
  if (added != nullptr) *added = true;
  return Status::OK();
}

size_t Relation::Probe(const Tuple& t, size_t hash) const {
  const size_t mask = slots_.size() - 1;
  for (size_t i = HomeSlot(hash, mask);; i = (i + 1) & mask) {
    const uint32_t id = slots_[i];
    if (id == kEmptySlot || (hashes_[id] == hash && rows_[id] == t)) return i;
  }
}

void Relation::Rehash(size_t slot_count) {
  slots_.assign(slot_count, kEmptySlot);
  const size_t mask = slot_count - 1;
  for (size_t id = 0; id < hashes_.size(); ++id) {
    size_t i = HomeSlot(hashes_[id], mask);
    while (slots_[i] != kEmptySlot) i = (i + 1) & mask;
    slots_[i] = static_cast<uint32_t>(id);
  }
}

bool Relation::Contains(const Tuple& t) const {
  return !slots_.empty() && slots_[Probe(t, t.Hash())] != kEmptySlot;
}

bool Relation::SameRows(const Relation& other) const {
  if (rows_.size() != other.rows_.size()) return false;
  for (size_t i = 0; i < other.rows_.size(); ++i) {
    if (slots_[Probe(other.rows_[i], other.hashes_[i])] == kEmptySlot) {
      return false;
    }
  }
  return true;
}

Status Relation::TypeCheck() const {
  for (const Tuple& row : rows_) {
    VADA_RETURN_IF_ERROR(CheckTuple(row, /*type_check=*/true));
  }
  return Status::OK();
}

bool Relation::Erase(const Tuple& t) {
  if (slots_.empty()) return false;
  const uint32_t id = slots_[Probe(t, t.Hash())];
  if (id == kEmptySlot) return false;
  rows_.erase(rows_.begin() + id);
  hashes_.erase(hashes_.begin() + id);
  // The rows behind `id` moved down by one: renumber by rebuilding the
  // table from the cached hashes (linear, like the erase itself).
  Rehash(slots_.size());
  return true;
}

void Relation::Clear() {
  rows_.clear();
  hashes_.clear();
  slots_.clear();
}

Result<Relation> Relation::Project(
    const std::vector<std::string>& attribute_names,
    const std::string& new_name) const {
  std::vector<size_t> indexes;
  std::vector<Attribute> attrs;
  for (const std::string& n : attribute_names) {
    std::optional<size_t> idx = schema_.AttributeIndex(n);
    if (!idx.has_value()) {
      return Status::NotFound("attribute " + n + " not in " + schema_.ToString());
    }
    indexes.push_back(*idx);
    attrs.push_back(schema_.attributes()[*idx]);
  }
  Relation out(Schema(new_name, std::move(attrs)));
  for (const Tuple& row : rows_) {
    Status s = out.InsertUnchecked(row.Project(indexes));
    if (!s.ok()) return s;
  }
  return out;
}

Result<Relation> Relation::SelectEquals(const std::string& attribute,
                                        const Value& value) const {
  std::optional<size_t> idx = schema_.AttributeIndex(attribute);
  if (!idx.has_value()) {
    return Status::NotFound("attribute " + attribute + " not in " +
                            schema_.ToString());
  }
  Relation out(schema_);
  for (const Tuple& row : rows_) {
    if (row.at(*idx) == value) {
      Status s = out.InsertUnchecked(row);
      if (!s.ok()) return s;
    }
  }
  return out;
}

Result<double> Relation::NonNullFraction(const std::string& attribute) const {
  std::optional<size_t> idx = schema_.AttributeIndex(attribute);
  if (!idx.has_value()) {
    return Status::NotFound("attribute " + attribute + " not in " +
                            schema_.ToString());
  }
  if (rows_.empty()) return 1.0;
  size_t non_null = 0;
  for (const Tuple& row : rows_) {
    if (!row.at(*idx).is_null()) ++non_null;
  }
  return static_cast<double>(non_null) / static_cast<double>(rows_.size());
}

std::vector<Tuple> Relation::SortedRows() const {
  std::vector<Tuple> out = rows_;
  std::sort(out.begin(), out.end());
  return out;
}

std::string Relation::ToDebugString(size_t max_rows) const {
  std::string out = schema_.ToString() + " [" + std::to_string(rows_.size()) +
                    " rows]\n";
  size_t shown = 0;
  for (const Tuple& row : rows_) {
    if (shown++ >= max_rows) {
      out += "  ...\n";
      break;
    }
    out += "  " + row.ToString() + "\n";
  }
  return out;
}

size_t Relation::ApproxBytes() const {
  size_t bytes = sizeof(Relation) +
                 (rows_.capacity() - rows_.size()) * sizeof(Tuple) +
                 hashes_.capacity() * sizeof(size_t) +
                 slots_.capacity() * sizeof(uint32_t);
  for (const Tuple& row : rows_) bytes += row.ApproxBytes();
  return bytes;
}

}  // namespace vada
