#ifndef VADA_KB_READ_SET_H_
#define VADA_KB_READ_SET_H_

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "kb/catalog.h"

namespace vada {

class KnowledgeBase;

/// What one computation touched in a knowledge base: the relations it
/// looked up or mutated by name (absent ones included), the relations
/// whose schema alone it read, the catalog roles it listed, or — after a
/// whole-KB query such as RelationNames() — everything. A KnowledgeBase
/// fills one while it is attached as the access log
/// (KnowledgeBase::RecordAccesses).
struct ReadSet {
  std::set<std::string> relations;
  std::set<std::string> schemas;
  std::set<RelationRole> roles;
  bool whole_kb = false;

  /// Adds everything `other` names.
  void Merge(const ReadSet& other);
};

/// A read set plus the versions it had at one moment: the KB version
/// epoch, then each relation's version (0 = absent), each schema's
/// version and each role's catalog version — or the global version alone
/// for a whole-KB read set. While the key holds, every relation, schema
/// and role it names has the content it had, so anything computed from
/// them alone is still valid.
/// The orchestrator keys both transducers and dependency answers on it
/// (DESIGN.md §5l, §5n); caches of values derived from KB relations use
/// it too.
class ReadSetKey {
 public:
  /// An empty key, which holds for no KB.
  ReadSetKey() = default;
  /// The current versions of `reads` in `kb`.
  ReadSetKey(const KnowledgeBase& kb, ReadSet reads);

  /// A key on everything: it holds until the KB's global version moves.
  static ReadSetKey WholeKb(const KnowledgeBase& kb);

  /// Whether every captured version still matches `kb`. When it holds,
  /// an attached access log records every relation, schema and role it
  /// names: the reads a recomputation would have made. When it does not,
  /// the log records nothing, so what the recomputation reads is all a
  /// miss leaves in it.
  bool Holds(const KnowledgeBase& kb) const;

  /// What the key was taken on.
  const ReadSet& reads() const { return reads_; }

  /// Approximate resident bytes.
  size_t ApproxBytes() const;

 private:
  ReadSet reads_;
  std::vector<uint64_t> versions_;
};

}  // namespace vada

#endif  // VADA_KB_READ_SET_H_
