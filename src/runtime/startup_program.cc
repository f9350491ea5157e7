#include "runtime/startup_program.h"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "common/macros.h"

namespace dqep {

namespace {

/// Post-order walk assigning dense indices; the pointer-keyed map lives
/// only for the duration of the build.
class ProgramBuilder {
 public:
  ProgramBuilder(std::vector<const PhysNode*>* nodes,
                 std::vector<uint32_t>* child_begin,
                 std::vector<uint32_t>* children)
      : nodes_(nodes), child_begin_(child_begin), children_(children) {}

  uint32_t Visit(const PhysNode* node) {
    auto [it, inserted] = index_.emplace(node, kUnassigned);
    if (!inserted) {
      return it->second;
    }
    // Children first; their indices wait on a shared stack until this
    // node's edge range opens, so the range stays contiguous.
    const size_t mark = pending_.size();
    for (const PhysNodePtr& child : node->children()) {
      uint32_t child_index = Visit(child.get());
      pending_.push_back(child_index);
    }
    uint32_t index = static_cast<uint32_t>(nodes_->size());
    index_[node] = index;
    nodes_->push_back(node);
    child_begin_->push_back(static_cast<uint32_t>(children_->size()));
    children_->insert(children_->end(), pending_.begin() + mark,
                      pending_.end());
    pending_.resize(mark);
    return index;
  }

 private:
  std::vector<const PhysNode*>* nodes_;
  std::vector<uint32_t>* child_begin_;
  std::vector<uint32_t>* children_;
  static constexpr uint32_t kUnassigned = ~0u;
  std::unordered_map<const PhysNode*, uint32_t> index_;
  std::vector<uint32_t> pending_;
};

}  // namespace

StartupProgram::StartupProgram(PhysNodePtr root) : root_(std::move(root)) {
  DQEP_CHECK(root_ != nullptr);
  ProgramBuilder(&nodes_, &child_begin_, &children_).Visit(root_.get());
  child_begin_.push_back(static_cast<uint32_t>(children_.size()));
  choose_ordinal_.assign(nodes_.size(), -1);
  for (uint32_t i = 0; i < size(); ++i) {
    const PhysNode& n = node(i);
    if (n.kind() == PhysOpKind::kChoosePlan) {
      choose_ordinal_[i] = static_cast<int32_t>(choose_nodes_.size());
      choose_nodes_.push_back(i);
    }
    for (const SelectionPredicate& pred : n.predicates()) {
      if (pred.HasParam()) {
        params_.push_back(pred.operand.param());
      }
    }
  }
  std::sort(params_.begin(), params_.end());
  params_.erase(std::unique(params_.begin(), params_.end()), params_.end());
}

}  // namespace dqep
