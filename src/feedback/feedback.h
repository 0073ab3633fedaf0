#ifndef VADA_FEEDBACK_FEEDBACK_H_
#define VADA_FEEDBACK_FEEDBACK_H_

#include <cstdint>
#include <string>
#include <vector>

#include "kb/relation.h"

namespace vada {

/// User verdict on a result tuple or one of its attribute values.
enum class FeedbackPolarity { kCorrect, kIncorrect };

const char* FeedbackPolarityName(FeedbackPolarity polarity);

/// One annotation, per the paper §3 step 3: "feedback ... can be at the
/// tuple level or the attribute level".
struct FeedbackItem {
  /// The annotated result tuple (value-identified: results are sets).
  Tuple tuple;
  /// Attribute the verdict concerns; empty = whole tuple.
  std::string attribute;
  FeedbackPolarity polarity = FeedbackPolarity::kIncorrect;

  std::string ToString() const;
};

/// Collects feedback and renders it as the KB control relation
/// feedback(tuple_key, attribute, polarity, seq), whose non-emptiness is
/// the input dependency of feedback-driven transducers. `tuple_key` is a
/// hash of the annotated tuple and `seq` the annotation's position, so a
/// repeated annotation is a row of its own.
class FeedbackStore {
 public:
  FeedbackStore() = default;

  void Add(FeedbackItem item);
  void Clear();

  const std::vector<FeedbackItem>& items() const { return items_; }
  bool empty() const { return items_.empty(); }
  size_t size() const { return items_.size(); }

  /// Items concerning `attribute` (tuple-level items excluded).
  std::vector<const FeedbackItem*> ItemsForAttribute(
      const std::string& attribute) const;

  /// Schema of the feedback relation.
  static Schema RelationSchema(const std::string& relation_name = "feedback");
  /// The row of `item` as the annotation at position `seq`.
  static Tuple ToRow(const FeedbackItem& item, int64_t seq);

 private:
  std::vector<FeedbackItem> items_;
};

}  // namespace vada

#endif  // VADA_FEEDBACK_FEEDBACK_H_
