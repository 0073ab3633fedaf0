#include "kb/persistence.h"

#include <cstdio>

#include "common/strings.h"
#include "kb/csv.h"
#include "kb/fs_util.h"

namespace vada {

namespace {

Result<AttributeType> AttributeTypeFromName(const std::string& name) {
  if (name == "any") return AttributeType::kAny;
  if (name == "bool") return AttributeType::kBool;
  if (name == "int") return AttributeType::kInt;
  if (name == "double") return AttributeType::kDouble;
  if (name == "string") return AttributeType::kString;
  return Status::ParseError("unknown attribute type " + name);
}

}  // namespace

std::string EncodeCell(const Value& value) {
  // Doubles need round-trip precision (the display form %g, 6 digits,
  // would corrupt them) AND a decimal marker, or whole-valued doubles
  // like 1.0 would decode as integers.
  if (value.type() == ValueType::kDouble) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value.double_value());
    std::string out = buf;
    if (out.find_first_of(".eEnN") == std::string::npos) out += ".0";
    return out;
  }
  return value.ToLiteral();
}

Result<Value> DecodeCell(const std::string& text) {
  if (text.empty()) return Value::Null();
  if (text[0] == '"') {
    // Quoted string literal with backslash escapes.
    std::string out;
    for (size_t i = 1; i < text.size(); ++i) {
      char c = text[i];
      if (c == '\\' && i + 1 < text.size()) {
        out += text[++i];
        continue;
      }
      if (c == '"') {
        if (i + 1 != text.size()) {
          return Status::ParseError("trailing characters after string: " +
                                    text);
        }
        return Value::String(std::move(out));
      }
      out += c;
    }
    return Status::ParseError("unterminated string literal: " + text);
  }
  if (text == "NULL") return Value::Null();
  Value v = Value::FromText(text);
  if (v.type() == ValueType::kString) {
    return Status::ParseError("unquoted non-literal cell: " + text);
  }
  return v;
}

Status SaveKnowledgeBase(const KnowledgeBase& kb,
                         const std::string& directory) {
  // Stage the whole image in a sibling directory, then swap it into
  // place with renames: a crash mid-save leaves the previous image
  // intact (or, between the two renames, as `<dir>.old`, which
  // LoadKnowledgeBase falls back to). As a bonus the swap cannot leak
  // stale `<relation>.csv` files of since-dropped relations, which
  // overwriting in place did.
  const std::string tmp_dir = directory + ".tmp-save";
  VADA_RETURN_IF_ERROR(RemoveRecursively(tmp_dir));
  VADA_RETURN_IF_ERROR(EnsureDirectory(tmp_dir));

  std::string manifest = "vada-kb\tv1\n";
  for (const std::string& name : kb.RelationNames()) {
    const Relation* rel = kb.FindRelation(name);
    if (rel == nullptr) continue;

    std::vector<std::string> attr_specs;
    for (const Attribute& a : rel->schema().attributes()) {
      attr_specs.push_back(a.name + ":" + AttributeTypeName(a.type));
    }
    std::optional<RelationRole> role = kb.catalog().GetRole(name);
    manifest += name + "\t" +
                (role.has_value() ? RelationRoleName(*role) : "-") + "\t" +
                Join(attr_specs, "|") + "\n";

    // Typed-literal cells, then standard CSV escaping.
    Relation encoded(Schema::Untyped(name, rel->schema().AttributeNames()));
    for (const Tuple& row : rel->rows()) {
      std::vector<Value> cells;
      cells.reserve(row.size());
      for (const Value& v : row.values()) {
        cells.push_back(Value::String(EncodeCell(v)));
      }
      VADA_RETURN_IF_ERROR(encoded.InsertUnchecked(Tuple(std::move(cells))));
    }
    VADA_RETURN_IF_ERROR(
        WriteFileText(tmp_dir + "/" + name + ".csv", ToCsv(encoded)));
  }
  VADA_RETURN_IF_ERROR(WriteFileText(tmp_dir + "/manifest.tsv", manifest));

  if (!PathExists(directory)) return RenamePath(tmp_dir, directory);
  const std::string old_dir = directory + ".old";
  VADA_RETURN_IF_ERROR(RemoveRecursively(old_dir));
  VADA_RETURN_IF_ERROR(RenamePath(directory, old_dir));
  VADA_RETURN_IF_ERROR(RenamePath(tmp_dir, directory));
  return RemoveRecursively(old_dir);
}

Result<KnowledgeBase> LoadKnowledgeBase(const std::string& directory) {
  Result<std::string> manifest = ReadFileText(directory + "/manifest.tsv");
  if (!manifest.ok()) {
    // A crash between SaveKnowledgeBase's two renames leaves the
    // previous (complete) image parked at `<dir>.old`.
    if (!EndsWith(directory, ".old") &&
        PathExists(directory + ".old/manifest.tsv")) {
      return LoadKnowledgeBase(directory + ".old");
    }
    return manifest.status();
  }

  KnowledgeBase kb;
  std::vector<std::string> lines = Split(manifest.value(), '\n');
  if (lines.empty() || !StartsWith(lines[0], "vada-kb")) {
    return Status::ParseError(directory + " is not a vada-kb directory");
  }
  for (size_t li = 1; li < lines.size(); ++li) {
    if (Trim(lines[li]).empty()) continue;
    std::vector<std::string> fields = Split(lines[li], '\t');
    if (fields.size() != 3) {
      return Status::ParseError("bad manifest line: " + lines[li]);
    }
    const std::string& name = fields[0];

    std::vector<Attribute> attrs;
    if (!fields[2].empty()) {
      for (const std::string& spec : Split(fields[2], '|')) {
        size_t colon = spec.rfind(':');
        if (colon == std::string::npos) {
          return Status::ParseError("bad attribute spec: " + spec);
        }
        Result<AttributeType> type =
            AttributeTypeFromName(spec.substr(colon + 1));
        if (!type.ok()) return type.status();
        attrs.push_back(Attribute{spec.substr(0, colon), type.value()});
      }
    }
    VADA_RETURN_IF_ERROR(kb.CreateRelation(Schema(name, attrs)));
    if (fields[1] != "-") {
      Result<RelationRole> role = RelationRoleFromName(fields[1]);
      if (!role.ok()) return role.status();
      kb.catalog().SetRole(name, role.value());
    }

    // Rows: raw (string) CSV cells holding typed literals.
    Result<std::string> text = ReadFileText(directory + "/" + name + ".csv");
    if (!text.ok()) return text.status();
    CsvOptions csv_options;
    csv_options.infer_types = false;
    Result<Relation> encoded = ParseCsv(text.value(), name, csv_options);
    if (!encoded.ok()) return encoded.status();
    for (const Tuple& row : encoded.value().rows()) {
      std::vector<Value> cells;
      cells.reserve(row.size());
      for (const Value& cell : row.values()) {
        Result<Value> decoded =
            DecodeCell(cell.is_null() ? "" : cell.string_value());
        if (!decoded.ok()) return decoded.status();
        cells.push_back(std::move(decoded).value());
      }
      VADA_RETURN_IF_ERROR(kb.Insert(name, Tuple(std::move(cells))));
    }
  }
  return kb;
}

}  // namespace vada
