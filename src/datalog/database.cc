#include "datalog/database.h"

#include <algorithm>
#include <utility>

namespace vada::datalog {
namespace {

/// Approximate heap bytes of one unordered_map from a POD key to a
/// row-index posting vector (the dedup table and the eager per-column
/// indexes share this shape): node overhead, key/value pair, and each
/// posting vector's payload.
template <typename Map>
size_t MapApproxBytes(const Map& map) {
  size_t bytes = map.bucket_count() * sizeof(void*);
  for (const auto& [key, postings] : map) {
    bytes += sizeof(key) + sizeof(postings) + 2 * sizeof(void*);
    bytes += postings.capacity() * sizeof(uint32_t);
  }
  return bytes;
}

}  // namespace

size_t Database::View::rows() const {
  return static_cast<const PredicateStore*>(store_)->rows;
}

size_t Database::View::arity() const {
  return static_cast<const PredicateStore*>(store_)->arity;
}

const SymbolId* Database::View::column(size_t pos) const {
  return static_cast<const PredicateStore*>(store_)->columns[pos].data();
}

const std::vector<uint32_t>* Database::View::LookupId(size_t position,
                                                      SymbolId id) const {
  const auto* store = static_cast<const PredicateStore*>(store_);
  if (position >= store->indexes.size()) return nullptr;
  auto it = store->indexes[position].find(id);
  if (it == store->indexes[position].end()) return nullptr;
  return &it->second;
}

bool Database::View::ContainsIds(const SymbolId* ids) const {
  const auto* store = static_cast<const PredicateStore*>(store_);
  auto it = store->dedup.find(RowHash(ids, store->arity));
  if (it == store->dedup.end()) return false;
  for (uint32_t row : it->second) {
    if (store->RowEquals(row, ids)) return true;
  }
  return false;
}

Database::Database() : index_cache_(std::make_unique<IndexCache>()) {}

Database::Database(const Database& other)
    : stores_(other.stores_),
      shared_(other.shared_),
      index_cache_(std::make_unique<IndexCache>()) {}

Database& Database::operator=(const Database& other) {
  if (this == &other) return *this;
  stores_ = other.stores_;
  shared_ = other.shared_;
  index_cache_ = std::make_unique<IndexCache>();
  return *this;
}

const Database::PredicateStore* Database::Find(
    const std::string& predicate) const {
  auto it = stores_.find(predicate);
  if (it != stores_.end()) return &it->second;
  auto sit = shared_.find(predicate);
  if (sit != shared_.end()) return sit->second.store;
  return nullptr;
}

bool Database::Insert(const std::string& predicate, const Tuple& t) {
  SymbolTable& table = SymbolTable::Global();
  SymbolId local[8];
  std::vector<SymbolId> heap;
  SymbolId* ids = local;
  if (t.size() > 8) {
    heap.resize(t.size());
    ids = heap.data();
  }
  for (size_t i = 0; i < t.size(); ++i) ids[i] = table.Intern(t.at(i));
  return InsertIds(predicate, ids, t.size());
}

bool Database::InsertIds(const std::string& predicate, const SymbolId* ids,
                         size_t n) {
  if (!shared_.empty()) {
    auto sit = shared_.find(predicate);
    if (sit != shared_.end() && stores_.count(predicate) == 0) {
      // Copy-on-write: detach the borrowed predicate before mutating.
      // Columnar detach copies flat id vectors — no string traffic.
      stores_[predicate] = *sit->second.store;
      shared_.erase(sit);
    }
  }
  PredicateStore& store = stores_[predicate];
  if (!store.arity_set) {
    store.arity = n;
    store.arity_set = true;
    store.columns.resize(n);
    store.indexes.resize(n);
  } else if (n != store.arity) {
    return false;
  }
  uint64_t hash = RowHash(ids, n);
  std::vector<uint32_t>& chain = store.dedup[hash];
  for (uint32_t row : chain) {
    if (store.RowEquals(row, ids)) return false;
  }
  uint32_t row = static_cast<uint32_t>(store.rows);
  for (size_t pos = 0; pos < n; ++pos) {
    store.columns[pos].push_back(ids[pos]);
    store.indexes[pos][ids[pos]].push_back(row);
  }
  chain.push_back(row);
  ++store.rows;
  // Composite indexes over this predicate are stale now; they rebuild
  // lazily on the next probe. (A moved-from database has no cache.)
  if (index_cache_ != nullptr) {
    MutexLock lock(index_cache_->mutex);
    if (!index_cache_->entries.empty()) index_cache_->entries.erase(predicate);
  }
  return true;
}

const BoundIndex* Database::EnsureBoundIndex(
    const std::string& predicate, const std::vector<size_t>& positions,
    size_t* built) const {
  if (positions.empty()) return nullptr;
  auto it = stores_.find(predicate);
  if (it == stores_.end()) {
    // Borrowed predicates index on the owning snapshot, so every
    // borrower of one shared snapshot shares one index.
    auto sit = shared_.find(predicate);
    if (sit == shared_.end()) return nullptr;
    return sit->second.owner->EnsureBoundIndex(predicate, positions, built);
  }
  const PredicateStore& store = it->second;
  for (size_t pos : positions) {
    if (pos >= store.arity) return nullptr;
  }
  if (index_cache_ == nullptr) return nullptr;  // moved-from; defensive
  MutexLock lock(index_cache_->mutex);
  auto& per_predicate = index_cache_->entries[predicate];
  auto iit = per_predicate.find(positions);
  if (iit == per_predicate.end()) {
    BoundIndex index;
    index.buckets.reserve(store.rows);
    std::vector<SymbolId> key(positions.size());
    for (size_t row = 0; row < store.rows; ++row) {
      for (size_t k = 0; k < positions.size(); ++k) {
        key[k] = store.columns[positions[k]][row];
      }
      index.buckets[key].push_back(static_cast<uint32_t>(row));
    }
    size_t bytes = sizeof(BoundIndex) +
                   index.buckets.bucket_count() * sizeof(void*);
    for (const auto& [bucket_key, postings] : index.buckets) {
      bytes += sizeof(bucket_key) + bucket_key.capacity() * sizeof(SymbolId) +
               sizeof(postings) + postings.capacity() * sizeof(uint32_t) +
               2 * sizeof(void*);
    }
    index.approx_bytes = bytes;
    iit = per_predicate.emplace(positions, std::move(index)).first;
    if (built != nullptr) ++*built;
  }
  return &iit->second;
}

size_t Database::ApproxBytes(const std::string& predicate) const {
  auto it = stores_.find(predicate);
  if (it == stores_.end()) return 0;
  const PredicateStore& store = it->second;
  size_t bytes = sizeof(PredicateStore);
  for (const auto& column : store.columns) {
    bytes += column.capacity() * sizeof(SymbolId);
  }
  bytes += MapApproxBytes(store.dedup);
  for (const auto& index : store.indexes) bytes += MapApproxBytes(index);
  return bytes;
}

size_t Database::ApproxBytes() const {
  size_t bytes = 0;
  for (const auto& [name, store] : stores_) bytes += ApproxBytes(name);
  return bytes;
}

size_t Database::IndexBytes() const {
  if (index_cache_ == nullptr) return 0;
  MutexLock lock(index_cache_->mutex);
  size_t bytes = 0;
  for (const auto& [predicate, per_predicate] : index_cache_->entries) {
    for (const auto& [positions, index] : per_predicate) {
      bytes += index.approx_bytes;
    }
  }
  return bytes;
}

void Database::LoadRelation(const Relation& relation) {
  for (const Tuple& row : relation.rows()) {
    Insert(relation.name(), row);
  }
}

void Database::AttachShared(std::shared_ptr<const Database> base) {
  if (base == nullptr) return;
  for (const auto& [name, store] : base->stores_) {
    if (stores_.count(name) > 0 || shared_.count(name) > 0) continue;
    shared_[name] = SharedView{base, &store};
  }
  // If the snapshot itself borrows predicates, forward the inner owner
  // so lifetime tracking stays precise.
  for (const auto& [name, view] : base->shared_) {
    if (stores_.count(name) > 0 || shared_.count(name) > 0) continue;
    shared_[name] = view;
  }
}

bool Database::Contains(const std::string& predicate, const Tuple& t) const {
  const PredicateStore* store = Find(predicate);
  if (store == nullptr || !store->arity_set || store->arity != t.size()) {
    return false;
  }
  // Find, not Intern: a Value nobody ever interned cannot be stored
  // anywhere, and containment checks must not grow the global table.
  SymbolTable& table = SymbolTable::Global();
  SymbolId local[8];
  std::vector<SymbolId> heap;
  SymbolId* ids = local;
  if (t.size() > 8) {
    heap.resize(t.size());
    ids = heap.data();
  }
  for (size_t i = 0; i < t.size(); ++i) {
    std::optional<SymbolId> id = table.Find(t.at(i));
    if (!id.has_value()) return false;
    ids[i] = *id;
  }
  return View(store).ContainsIds(ids);
}

std::vector<Tuple> Database::facts(const std::string& predicate) const {
  std::vector<Tuple> out;
  const PredicateStore* store = Find(predicate);
  if (store == nullptr) return out;
  const SymbolTable& table = SymbolTable::Global();
  out.reserve(store->rows);
  std::vector<Value> values(store->arity);
  for (size_t row = 0; row < store->rows; ++row) {
    for (size_t pos = 0; pos < store->arity; ++pos) {
      values[pos] = table.value(store->columns[pos][row]);
    }
    out.emplace_back(values);
  }
  return out;
}

Database::View Database::view(const std::string& predicate) const {
  return View(Find(predicate));
}

size_t Database::FactCount(const std::string& predicate) const {
  const PredicateStore* store = Find(predicate);
  return store == nullptr ? 0 : store->rows;
}

size_t Database::TotalFacts() const {
  size_t total = 0;
  for (const auto& [name, store] : stores_) total += store.rows;
  for (const auto& [name, view] : shared_) total += view.store->rows;
  return total;
}

std::vector<std::string> Database::Predicates() const {
  std::vector<std::string> out;
  out.reserve(stores_.size() + shared_.size());
  // Merge of two sorted key ranges keeps the documented sorted order.
  auto own = stores_.begin();
  auto borrowed = shared_.begin();
  while (own != stores_.end() || borrowed != shared_.end()) {
    if (borrowed == shared_.end() ||
        (own != stores_.end() && own->first < borrowed->first)) {
      out.push_back(own->first);
      ++own;
    } else {
      out.push_back(borrowed->first);
      ++borrowed;
    }
  }
  return out;
}

void Database::Clear() {
  stores_.clear();
  shared_.clear();
  if (index_cache_ != nullptr) {
    MutexLock lock(index_cache_->mutex);
    index_cache_->entries.clear();
  }
}

}  // namespace vada::datalog
