#ifndef VADA_QUALITY_CFD_H_
#define VADA_QUALITY_CFD_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "kb/relation.h"

namespace vada {

/// A pattern cell of a conditional functional dependency: either a
/// constant that must be equal, or a wildcard '_' matching any non-null
/// value.
class PatternValue {
 public:
  static PatternValue Wildcard();
  static PatternValue Constant(Value v);

  bool is_wildcard() const { return is_wildcard_; }
  const Value& value() const { return value_; }

  /// Wildcards match any non-null value; constants match equal values.
  bool Matches(const Value& v) const;

  std::string ToString() const;

  friend bool operator==(const PatternValue& a, const PatternValue& b) {
    return a.is_wildcard_ == b.is_wildcard_ &&
           (a.is_wildcard_ || a.value_ == b.value_);
  }

 private:
  bool is_wildcard_ = true;
  Value value_;
};

/// A conditional functional dependency  (lhs_attributes, lhs_pattern) ->
/// (rhs_attribute, rhs_pattern)  in the style of Fan & Geerts
/// ("Foundations of Data Quality Management", the paper's reference [4]).
///
/// A wildcard rhs makes it a variable CFD: within tuples matching the lhs
/// pattern, equal lhs values must imply equal rhs values. A constant rhs
/// additionally pins the value.
struct Cfd {
  std::vector<std::string> lhs_attributes;
  std::vector<PatternValue> lhs_pattern;
  std::string rhs_attribute;
  PatternValue rhs_pattern = PatternValue::Wildcard();
  /// Fraction of learning tuples matching the lhs pattern.
  double support = 0.0;
  /// Fraction of matching tuples consistent with the dependency.
  double confidence = 0.0;

  bool is_variable() const { return rhs_pattern.is_wildcard(); }
  std::string ToString() const;
};

/// Serialises CFDs as the KB control relation
/// cfd(id, lhs_attributes, lhs_pattern, rhs_attribute, rhs_pattern,
/// support, confidence) with '|'-joined lists, so "CFD facts exist"
/// becomes a Datalog-checkable transducer dependency.
Relation CfdsToRelation(const std::vector<Cfd>& cfds,
                        const std::string& relation_name = "cfd");

/// Parses the relation produced by CfdsToRelation.
Result<std::vector<Cfd>> CfdsFromRelation(const Relation& rel);

/// Options for CFD learning.
struct CfdLearnerOptions {
  /// Candidate lhs sizes: 1 always; also attribute pairs when true.
  bool try_pairs = true;
  /// Minimum matching-tuple count for a dependency to be emitted.
  size_t min_support_count = 3;
  /// Minimum confidence (majority agreement) for variable CFDs.
  double min_confidence = 0.95;
  /// Emit constant CFDs for pure lhs groups of at least this size.
  size_t constant_min_group = 4;
  /// Cap on emitted constant CFDs (highest support first).
  size_t max_constant_cfds = 50;
};

/// Learns CFDs from (clean) reference/master data, the paper's CFD
/// Learning transducer: "the data context for the target schema includes
/// instances (e.g., from master or reference data)" (Table 1, §2.3).
class CfdLearner {
 public:
  explicit CfdLearner(CfdLearnerOptions options = CfdLearnerOptions());

  /// Learns dependencies among the attributes of `data`. Null lhs values
  /// are skipped (they carry no evidence).
  std::vector<Cfd> Learn(const Relation& data) const;

 private:
  void LearnForLhs(const Relation& data, const std::vector<size_t>& lhs_idx,
                   std::vector<Cfd>* out) const;

  CfdLearnerOptions options_;
};

/// A detected violation: row index plus the value the dependency expects
/// (null when the expectation is ambiguous).
struct CfdViolation {
  size_t row_index = 0;
  const Cfd* cfd = nullptr;
  Value expected;

  std::string ToString() const;
};

/// Checks relations against CFDs.
///
/// Construction compiles the checker. For each variable CFD it builds the
/// expectation once from `evidence` (typically the reference data the CFDs
/// were learned from): the map from lhs values to the rhs value a clear
/// majority of the matching evidence rows agree on. Groups without a clear
/// majority, and CFDs whose attributes the evidence lacks, expect nothing.
/// The checker keeps no pointer to `evidence`, so the relation may go away
/// (or the checker move) afterwards. With no evidence (nullptr), the
/// expectation is the majority within the checked relation itself, derived
/// on each call.
///
/// Violations come out in CFD order, then row order.
class CfdChecker {
 public:
  CfdChecker(std::vector<Cfd> cfds, const Relation* evidence);

  /// All violations in `data`. Null rhs values do not violate (they are
  /// incompleteness, not inconsistency).
  std::vector<CfdViolation> FindViolations(const Relation& data) const;

  /// 1 - (violating tuples / tuples); 1.0 for empty relations.
  double ConsistencyScore(const Relation& data) const;

  /// `data` repaired, under the name `name`: each row is copied once, in
  /// order, with every violating rhs cell set to the expected value when
  /// one is known (violations of several CFDs on one cell apply in CFD
  /// order, so the last wins). Set semantics hold: a row that a repair
  /// makes equal to an earlier row is dropped. Sets `*repaired`
  /// (optional) to the number of changed cells.
  Result<Relation> Repaired(const Relation& data, const std::string& name,
                            size_t* repaired = nullptr) const;

  /// Repairs `data` in place (Repaired under its own name). Returns the
  /// number of changed cells.
  Result<size_t> Repair(Relation* data) const;

  const std::vector<Cfd>& cfds() const { return cfds_; }

 private:
  /// lhs values -> expected rhs value, probed by Value equality.
  using Expectation = std::unordered_map<Tuple, Value, TupleHash>;

  std::vector<Cfd> cfds_;
  /// Whether expectations_ was compiled from evidence at construction.
  bool compiled_ = false;
  /// Parallel to cfds_: each variable CFD's expectation from the
  /// evidence (empty for constant CFDs, and without evidence).
  std::vector<Expectation> expectations_;
};

}  // namespace vada

#endif  // VADA_QUALITY_CFD_H_
