#include "feedback/feedback.h"

namespace vada {

const char* FeedbackPolarityName(FeedbackPolarity polarity) {
  switch (polarity) {
    case FeedbackPolarity::kCorrect:
      return "correct";
    case FeedbackPolarity::kIncorrect:
      return "incorrect";
  }
  return "?";
}

std::string FeedbackItem::ToString() const {
  std::string out = tuple.ToString();
  if (!attribute.empty()) out += "." + attribute;
  out += " is ";
  out += FeedbackPolarityName(polarity);
  return out;
}

void FeedbackStore::Add(FeedbackItem item) { items_.push_back(std::move(item)); }

void FeedbackStore::Clear() { items_.clear(); }

std::vector<const FeedbackItem*> FeedbackStore::ItemsForAttribute(
    const std::string& attribute) const {
  std::vector<const FeedbackItem*> out;
  for (const FeedbackItem& item : items_) {
    if (item.attribute == attribute) out.push_back(&item);
  }
  return out;
}

Schema FeedbackStore::RelationSchema(const std::string& relation_name) {
  return Schema::Untyped(relation_name,
                         {"tuple_key", "attribute", "polarity", "seq"});
}

Tuple FeedbackStore::ToRow(const FeedbackItem& item, int64_t seq) {
  return Tuple({Value::String(std::to_string(item.tuple.Hash())),
                Value::String(item.attribute),
                Value::String(FeedbackPolarityName(item.polarity)),
                Value::Int(seq)});
}

}  // namespace vada
