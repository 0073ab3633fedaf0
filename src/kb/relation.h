#ifndef VADA_KB_RELATION_H_
#define VADA_KB_RELATION_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "kb/schema.h"
#include "kb/tuple.h"

namespace vada {

/// A set-semantics relation instance: a schema plus deduplicated rows in
/// insertion order. Insertions are type-checked against the schema.
///
/// Each row is stored once, in `rows()`. Deduplication goes through a
/// flat open-addressing table of 32-bit row ids (linear probing, load at
/// most 1/2) keyed by one cached hash per row, so copies, moves and
/// rehashes never hash a tuple again. A relation therefore holds fewer
/// than 2^32 - 1 rows.
class Relation {
 public:
  Relation() = default;
  explicit Relation(Schema schema) : schema_(std::move(schema)) {}

  const Schema& schema() const { return schema_; }
  const std::string& name() const { return schema_.relation_name(); }
  size_t size() const { return rows_.size(); }
  bool empty() const { return rows_.empty(); }
  const std::vector<Tuple>& rows() const { return rows_; }

  /// Inserts `t` if absent; reports arity/type violations. Sets `*added`
  /// (optional) to whether the row was new.
  Status Insert(Tuple t, bool* added = nullptr);

  /// Insert without schema type-checking (arity still enforced).
  /// Used by internal engines that construct well-typed tuples in bulk.
  Status InsertUnchecked(Tuple t, bool* added = nullptr);

  /// Removes `t` if present, keeping the order of the remaining rows;
  /// returns whether a row was removed. O(size()).
  bool Erase(const Tuple& t);

  bool Contains(const Tuple& t) const;

  /// Whether both relations hold the same set of rows, in any order.
  /// Schemas are not compared.
  bool SameRows(const Relation& other) const;

  /// OK when every row passes the arity and type checks Insert applies.
  Status TypeCheck() const;

  void Clear();

  /// New relation (named `new_name`) with only the given attributes.
  Result<Relation> Project(const std::vector<std::string>& attribute_names,
                           const std::string& new_name) const;

  /// New relation with the rows where `attribute` equals `value`.
  Result<Relation> SelectEquals(const std::string& attribute,
                                const Value& value) const;

  /// Fraction of non-null cells in `attribute` (1.0 for empty relation).
  Result<double> NonNullFraction(const std::string& attribute) const;

  /// Sorted copy of the rows (for deterministic output in tests/benches).
  std::vector<Tuple> SortedRows() const;

  /// Multi-line table rendering for examples and traces.
  std::string ToDebugString(size_t max_rows = 20) const;

  /// Approximate resident size of the relation: its rows, the per-row
  /// hashes and the slot array of the dedup table.
  /// Feeds the `vada_kb_relation_bytes` gauge (DESIGN.md §5g).
  size_t ApproxBytes() const;

 private:
  static constexpr uint32_t kEmptySlot = UINT32_MAX;

  Status CheckTuple(const Tuple& t, bool type_check) const;
  Status Add(Tuple t, bool type_check, bool* added);

  /// Index into slots_ of the row equal to `t` (whose hash is `hash`), or
  /// of the empty slot that ends its probe sequence. Pre: !slots_.empty().
  size_t Probe(const Tuple& t, size_t hash) const;

  /// Rebuilds slots_ with `slot_count` (a power of two) slots from the
  /// cached hashes.
  void Rehash(size_t slot_count);

  Schema schema_;
  std::vector<Tuple> rows_;
  std::vector<size_t> hashes_;   // hashes_[i] == rows_[i].Hash()
  std::vector<uint32_t> slots_;  // row ids or kEmptySlot; size 0 or 2^k
};

}  // namespace vada

#endif  // VADA_KB_RELATION_H_
