#ifndef VADA_DATALOG_DATABASE_H_
#define VADA_DATALOG_DATABASE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/thread_annotations.h"
#include "datalog/symbol_table.h"
#include "kb/relation.h"
#include "kb/tuple.h"

namespace vada::datalog {

/// Hash functor over a composite index key (the symbol ids of the bound
/// columns, in bound-position order).
struct IdKeyHash {
  size_t operator()(const std::vector<SymbolId>& key) const {
    uint64_t h = 1469598103934665603ULL;  // FNV-1a over the id words
    for (SymbolId id : key) {
      h ^= id;
      h *= 1099511628211ULL;
    }
    return static_cast<size_t>(h);
  }
};

/// Composite hash index over one predicate: maps the projection of a
/// fact's symbol ids onto a fixed set of column positions to the
/// insertion-order indexes of the matching facts. Bucket vectors keep
/// insertion order, so probing an index enumerates exactly the facts a
/// scan would, in the same order — the property that makes indexed
/// evaluation bit-identical to scanning (DESIGN.md §5f). Keys are ids,
/// not Values: a probe hashes a handful of uint32s (DESIGN.md §5j).
struct BoundIndex {
  std::unordered_map<std::vector<SymbolId>, std::vector<uint32_t>, IdKeyHash>
      buckets;
  /// Approximate resident size, computed once at build time (the index
  /// is immutable afterwards). Feeds `vada_index_bytes` (DESIGN.md §5g).
  size_t approx_bytes = 0;
};

/// Fact storage for the Datalog engine, columnar over the process-wide
/// SymbolTable (DESIGN.md §5j): each predicate stores one uint32 symbol
/// id vector per column, in insertion order, plus a row-level dedup
/// table, eager per-column id indexes, and lazy composite indexes per
/// (predicate, bound-position-set) so joins can seek on their whole
/// bound prefix. The evaluator's probe loops run entirely on ids;
/// `facts()` materializes Values only at the KB/provenance boundary.
/// Tuples of one predicate must share an arity (checked).
///
/// A database can additionally *borrow* predicates from immutable shared
/// snapshots (AttachShared): reads see the shared store without copying
/// a single id, and the first write to a borrowed predicate detaches it
/// by deep copy (a memcpy of id vectors — no string traffic). This is
/// what lets the snapshot cache hand one per-relation snapshot to many
/// concurrent evaluations.
class Database {
 public:
  Database();

  /// Copies columns and borrowed views; composite indexes are *not*
  /// copied — the copy rebuilds its own lazily on first probe.
  Database(const Database& other);
  Database& operator=(const Database& other);
  Database(Database&&) noexcept = default;
  Database& operator=(Database&&) noexcept = default;

  /// Inserts `t`, interning its values; returns whether it was new.
  /// Establishes the predicate's arity on first insert; later arity
  /// mismatches are ignored and return false (callers go through
  /// validated rules so this is defensive). Writing to a predicate
  /// borrowed via AttachShared first detaches it (copy-on-write), so
  /// the shared snapshot is never mutated.
  bool Insert(const std::string& predicate, const Tuple& t);

  /// Id-level insert: `ids[0..n)` are symbol ids from the global table.
  /// Same semantics as Insert; this is the evaluator's hot path (derived
  /// facts arrive as ids and are stored without materializing a Value).
  bool InsertIds(const std::string& predicate, const SymbolId* ids, size_t n);

  /// Loads every row of `relation` under its relation name (the KB ->
  /// engine boundary: values are interned here, once per load).
  void LoadRelation(const Relation& relation);

  /// Borrows every predicate of `base` as a read-only view backed by the
  /// shared snapshot (kept alive by the stored shared_ptr). Predicates
  /// this database already owns or borrows are left untouched — first
  /// binding wins, matching LoadReferencedRelations' dedup semantics.
  void AttachShared(std::shared_ptr<const Database> base);

  bool Contains(const std::string& predicate, const Tuple& t) const;

  /// All facts of `predicate` in insertion order, materialized from the
  /// column store; empty for unknown. This is a boundary API (KB
  /// write-back, provenance, tests, Query results) — the evaluator reads
  /// columns through View instead and never pays for materialization.
  std::vector<Tuple> facts(const std::string& predicate) const;

  /// Zero-copy columnar read access to one predicate (owned or
  /// borrowed). Invalid view (`!valid()`) for unknown predicates. The
  /// view borrows the store: callers must not hold it across mutations
  /// of this database.
  class View {
   public:
    View() = default;
    bool valid() const { return store_ != nullptr; }
    size_t rows() const;
    size_t arity() const;
    /// Column `pos` as a dense id vector of length rows().
    /// Pre-condition: pos < arity().
    const SymbolId* column(size_t pos) const;
    /// Insertion-order indexes of facts whose column `position` equals
    /// `id`; nullptr when the position is out of range or nothing
    /// matches (the eager single-column seek path).
    const std::vector<uint32_t>* LookupId(size_t position, SymbolId id) const;
    /// Whether the fact with exactly these ids (length must equal
    /// arity()) is stored.
    bool ContainsIds(const SymbolId* ids) const;

   private:
    friend class Database;
    struct PredicateStoreTag;
    explicit View(const void* store) : store_(store) {}
    const void* store_ = nullptr;  // const PredicateStore*
  };

  /// View of `predicate`'s store; invalid when unknown.
  View view(const std::string& predicate) const;

  /// Returns the composite hash index of `predicate` over the column
  /// set `positions` (sorted, non-empty), building it lazily on first
  /// request. nullptr when the predicate is unknown or any position is
  /// out of range. `*built` is incremented iff this call performed the
  /// build (each index is built at most once per invalidation cycle).
  ///
  /// Borrowed predicates delegate to the owning snapshot database, so
  /// every evaluation sharing one snapshot (via SnapshotCache /
  /// AttachShared) shares one index. Thread-safe: concurrent const
  /// callers may race to build; the returned index is immutable until
  /// the next Insert into the predicate (or Clear), which drops the
  /// predicate's composite indexes. Callers must not hold the pointer
  /// across mutations.
  const BoundIndex* EnsureBoundIndex(const std::string& predicate,
                                     const std::vector<size_t>& positions,
                                     size_t* built = nullptr) const;

  size_t FactCount(const std::string& predicate) const;
  size_t TotalFacts() const;

  /// Approximate resident bytes of one owned predicate's columnar
  /// storage (id columns, dedup table, eager per-column indexes); 0 for
  /// unknown or borrowed predicates — borrowed storage is owned (and
  /// counted) by the snapshot database. Symbol payloads (the strings
  /// behind the ids) live in the shared SymbolTable and are reported by
  /// `vada_symtab_bytes`, not here.
  size_t ApproxBytes(const std::string& predicate) const;

  /// Sum of ApproxBytes over every owned predicate.
  size_t ApproxBytes() const;

  /// Approximate resident bytes of the lazily built composite indexes
  /// this database owns (borrowers' indexes live on, and are counted
  /// by, the owning snapshot).
  size_t IndexBytes() const;

  /// Known predicate names (owned and borrowed), sorted.
  std::vector<std::string> Predicates() const;

  void Clear();

 private:
  struct PredicateStore {
    size_t arity = 0;
    bool arity_set = false;
    size_t rows = 0;
    /// arity column vectors, each `rows` long, in insertion order.
    std::vector<std::vector<SymbolId>> columns;
    /// Row-level dedup: 64-bit row hash -> insertion-order row indexes
    /// (chained; collisions resolved by comparing the id row).
    std::unordered_map<uint64_t, std::vector<uint32_t>> dedup;
    /// Eager single-column indexes: per position, id -> row indexes.
    std::vector<std::unordered_map<SymbolId, std::vector<uint32_t>>> indexes;

    bool RowEquals(uint32_t row, const SymbolId* ids) const {
      for (size_t pos = 0; pos < arity; ++pos) {
        if (columns[pos][row] != ids[pos]) return false;
      }
      return true;
    }
  };

  struct SharedView {
    std::shared_ptr<const Database> owner;  // keepalive
    const PredicateStore* store = nullptr;
  };

  /// Lazily built composite indexes of the *owned* stores, keyed by
  /// (predicate, position set). Guarded by its mutex so concurrent
  /// read-only evaluations sharing this database (snapshot borrowers
  /// delegate here) can build on demand; entries for a predicate are
  /// dropped by Insert/Clear. Held behind a unique_ptr so the Database
  /// stays movable.
  struct IndexCache {
    Mutex mutex;
    std::map<std::string, std::map<std::vector<size_t>, BoundIndex>> entries
        VADA_GUARDED_BY(mutex);
  };

  static uint64_t RowHash(const SymbolId* ids, size_t n) {
    uint64_t h = 1469598103934665603ULL;
    for (size_t i = 0; i < n; ++i) {
      h ^= ids[i];
      h *= 1099511628211ULL;
    }
    return h;
  }

  /// Owned store if present, else borrowed store, else nullptr.
  const PredicateStore* Find(const std::string& predicate) const;

  std::map<std::string, PredicateStore> stores_;
  std::map<std::string, SharedView> shared_;
  std::unique_ptr<IndexCache> index_cache_;
};

}  // namespace vada::datalog

#endif  // VADA_DATALOG_DATABASE_H_
