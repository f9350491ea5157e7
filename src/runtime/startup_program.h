// The compiled form of a dynamic plan's start-up decision procedure.
//
// The paper's economics (§1, §4) are to compile a dynamic plan once and
// pay only the start-up decision procedure per run.  That procedure
// re-evaluates cost functions bottom-up over a DAG whose structure never
// changes between runs; only the bound values do.  A StartupProgram is
// that structure, flattened once: every distinct node in topological
// order (children before parents, the root last), each node's children
// as a range of dense node indices, a dense ordinal per choose-plan
// node, and the host variables the plan references.  Resolution
// (runtime/decision_engine.h) then costs the plan over plain arrays
// indexed by node, instead of hash maps keyed by node address.
//
// The program is structure only: it holds no cost-model constants and
// no estimates, so one program stays valid under any CostModel (a
// recalibrated profile re-resolves the same program).  It is immutable
// after construction and shared by every concurrent resolution of a
// cached plan (runtime/plan_cache.h builds one per entry, on the miss
// path).  It holds a reference to the plan's root, so the node pointers
// it stores stay valid for its lifetime.

#ifndef DQEP_RUNTIME_STARTUP_PROGRAM_H_
#define DQEP_RUNTIME_STARTUP_PROGRAM_H_

#include <cstdint>
#include <vector>

#include "cost/param_env.h"
#include "physical/plan.h"

namespace dqep {

class StartupProgram {
 public:
  /// Flattens the DAG rooted at `root` (one depth-first walk, children
  /// visited in order, each shared node once — PhysNode::TopologicalOrder's
  /// order).
  explicit StartupProgram(PhysNodePtr root);

  const PhysNodePtr& root() const { return root_; }

  /// Distinct nodes in the DAG (== root()->CountNodes()).
  uint32_t size() const { return static_cast<uint32_t>(nodes_.size()); }
  uint32_t root_index() const { return size() - 1; }
  const PhysNode& node(uint32_t index) const { return *nodes_[index]; }

  /// Node `index`'s children occupy edge positions
  /// [child_begin(index), child_end(index)), in child order;
  /// child_at(edge) is the child's node index.
  uint32_t child_begin(uint32_t index) const { return child_begin_[index]; }
  uint32_t child_end(uint32_t index) const { return child_begin_[index + 1]; }
  uint32_t child_at(uint32_t edge) const { return children_[edge]; }
  /// Total child edges (== child_end(root_index())).
  uint32_t edge_count() const { return static_cast<uint32_t>(children_.size()); }

  /// Dense ordinal of a choose-plan node (0 .. choose_count()-1, in
  /// topological order), or -1 for any other node.
  int32_t choose_ordinal(uint32_t index) const {
    return choose_ordinal_[index];
  }
  /// Node index of the choose-plan node with ordinal `ordinal`.
  uint32_t choose_node(int32_t ordinal) const {
    return choose_nodes_[static_cast<size_t>(ordinal)];
  }
  uint32_t choose_count() const {
    return static_cast<uint32_t>(choose_nodes_.size());
  }

  /// Every host-variable id referenced anywhere in the plan, ascending.
  const std::vector<ParamId>& params() const { return params_; }

 private:
  PhysNodePtr root_;
  std::vector<const PhysNode*> nodes_;
  std::vector<uint32_t> child_begin_;  // size() + 1 entries
  std::vector<uint32_t> children_;
  std::vector<int32_t> choose_ordinal_;
  std::vector<uint32_t> choose_nodes_;
  std::vector<ParamId> params_;
};

}  // namespace dqep

#endif  // DQEP_RUNTIME_STARTUP_PROGRAM_H_
