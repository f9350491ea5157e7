#include "obs/template_table.h"

namespace dqep {
namespace obs {

TemplateFacts& TemplateTable::SeenLocked(uint64_t fingerprint) {
  auto [it, inserted] = index_.try_emplace(fingerprint);
  if (!inserted) {
    recency_.splice(recency_.end(), recency_, it->second);
    return it->second->second;
  }
  if (recency_.size() == kTemplateTableCapacity) {
    index_.erase(recency_.front().first);
    recency_.pop_front();
  }
  it->second = recency_.emplace(recency_.end(), fingerprint, TemplateFacts{});
  return it->second->second;
}

}  // namespace obs
}  // namespace dqep
