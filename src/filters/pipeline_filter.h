// Composite filter: a named pipeline of child filters that inserts and
// removes as ONE unit. This is how a third party uploads a multi-stage
// transformation (e.g. "compress, then encrypt") into a running proxy — the
// chained-worker composition the paper contrasts with TranSend's TACC
// model (Section 6), packaged as a mobile component.
//
// The composite never runs itself. It reports its children as its
// stages(), and core::FilterChain splices them into the host chain as
// consecutive stages on the chain's worker — a composite filter is
// equivalent to its expanded network (Philipps & Rumpe, PAPERS.md). The
// chain still treats the composite as one unit for positions, removal and
// typing; removing it detaches the children in order, each flushing into
// the next, so the chain-removal contract holds transitively.
#pragma once

#include <memory>
#include <vector>

#include "core/filter.h"
#include "core/filter_registry.h"

namespace rapidware::filters {

class PipelineFilter final : public core::Filter {
 public:
  /// Children must be idle; the chain starts and stops them as stages.
  PipelineFilter(std::string name,
                 std::vector<std::shared_ptr<core::Filter>> children);

  /// The children's stages, in order (nested composites flatten too).
  std::vector<core::Filter*> stages() override;

  std::string describe() const override;
  core::ParamMap params() const override;

  /// Composability: the pipeline requires what its first child requires and
  /// transforms types by folding the children.
  std::string input_requirement() const override;
  std::string output_type(const std::string& input) const override;

  /// Publishes each child's metrics under "<i>.<child-name>" (the keys
  /// params() uses) instead of the composite's own, idle, streams.
  void register_metrics(obs::Scope scope) override;

  std::size_t child_count() const noexcept { return children_.size(); }

 protected:
  /// Never driven: the chain runs the children in the composite's place.
  Drive on_ready() override { return Drive::kDone; }

 private:
  std::vector<std::shared_ptr<core::Filter>> children_;
};

/// Registers the "pipeline" factory with a registry. The parameter "of" is
/// a comma-separated list of registered filter names, each instantiated
/// with defaults, e.g. {"pipeline", {{"of", "compress,encrypt"}}}. Combine
/// with upload aliases to parameterize members.
void register_pipeline_factory(core::FilterRegistry& registry);

}  // namespace rapidware::filters
