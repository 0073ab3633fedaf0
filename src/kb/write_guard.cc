#include "kb/write_guard.h"

#include <cassert>

#include "kb/durability.h"

namespace vada {

WriteGuard::WriteGuard(KnowledgeBase* kb) : kb_(kb) {
  assert(kb_ != nullptr);
  // Guards do not nest: the orchestrator holds at most one per Execute().
  assert(kb_->guard_ == nullptr && "WriteGuard does not nest");
  global_version_ = kb_->global_version_;
  facts_added_ = kb_->facts_added_;
  facts_removed_ = kb_->facts_removed_;
  versions_ = kb_->versions_;
  roles_ = kb_->catalog_.Snapshot();
  kb_->guard_ = this;
  // Guard boundaries are WAL transaction boundaries (kb/durability.h).
  if (kb_->durability_ != nullptr) kb_->durability_->OnTxnBegin();
}

WriteGuard::~WriteGuard() {
  if (!done_) Rollback();
}

void WriteGuard::OnMutation(const std::string& relation) {
  auto it = touched_.find(relation);
  if (it != touched_.end()) return;  // pre-image already saved
  const Relation* rel = kb_->FindRelation(relation);
  if (rel != nullptr) {
    touched_.emplace(relation, *rel);
  } else {
    touched_.emplace(relation, std::nullopt);
  }
}

void WriteGuard::OnReplace(const std::string& relation, Relation* current) {
  // try_emplace leaves *current alone when a pre-image is already saved.
  touched_.try_emplace(relation, std::move(*current));
}

void WriteGuard::Commit() {
  if (done_) return;
  done_ = true;
  kb_->guard_ = nullptr;
  touched_.clear();
  if (kb_->durability_ != nullptr) kb_->durability_->OnTxnCommit();
}

void WriteGuard::Rollback() {
  if (done_) return;
  done_ = true;
  kb_->guard_ = nullptr;
  for (auto& [name, pre_image] : touched_) {
    if (!pre_image.has_value()) {
      kb_->relations_.erase(name);
      continue;
    }
    // Every effective mutation bumps the relation's version, so one whose
    // version did not move still holds exactly its pre-image's rows; it
    // stays as it is (capacity included, which the byte gauges read).
    auto saved = versions_.find(name);
    auto current = kb_->versions_.find(name);
    if (saved != versions_.end() && current != kb_->versions_.end() &&
        saved->second.rows == current->second.rows) {
      continue;
    }
    kb_->relations_.insert_or_assign(name, std::move(*pre_image));
  }
  kb_->versions_ = std::move(versions_);
  if (kb_->global_version_ != global_version_) ++kb_->version_epoch_;
  kb_->global_version_ = global_version_;
  kb_->facts_added_ = facts_added_;
  kb_->facts_removed_ = facts_removed_;
  kb_->catalog_.Restore(std::move(roles_));
  touched_.clear();
  if (kb_->durability_ != nullptr) kb_->durability_->OnTxnAbort();
}

}  // namespace vada
