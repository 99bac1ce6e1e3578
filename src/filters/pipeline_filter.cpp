#include "filters/pipeline_filter.h"

#include <sstream>
#include <stdexcept>

namespace rapidware::filters {

PipelineFilter::PipelineFilter(
    std::string name, std::vector<std::shared_ptr<core::Filter>> children)
    : Filter(std::move(name)), children_(std::move(children)) {
  for (const auto& child : children_) {
    if (!child) {
      throw std::invalid_argument("PipelineFilter: null child");
    }
    if (child->running()) {
      throw std::invalid_argument("PipelineFilter: child already running");
    }
  }
}

std::vector<core::Filter*> PipelineFilter::stages() {
  std::vector<core::Filter*> out;
  for (const auto& child : children_) {
    for (core::Filter* s : child->stages()) out.push_back(s);
  }
  return out;
}

std::string PipelineFilter::describe() const {
  std::ostringstream os;
  os << name() << "[";
  for (std::size_t i = 0; i < children_.size(); ++i) {
    os << (i ? " -> " : "") << children_[i]->describe();
  }
  os << "]";
  return os.str();
}

core::ParamMap PipelineFilter::params() const {
  core::ParamMap out;
  for (std::size_t i = 0; i < children_.size(); ++i) {
    for (const auto& [k, v] : children_[i]->params()) {
      out[std::to_string(i) + "." + children_[i]->name() + "." + k] = v;
    }
  }
  return out;
}

std::string PipelineFilter::input_requirement() const {
  return children_.empty() ? "any" : children_.front()->input_requirement();
}

std::string PipelineFilter::output_type(const std::string& input) const {
  std::string type = input;
  for (const auto& child : children_) type = child->output_type(type);
  return type;
}

void PipelineFilter::register_metrics(obs::Scope scope) {
  for (std::size_t i = 0; i < children_.size(); ++i) {
    children_[i]->register_metrics(
        scope.child(std::to_string(i) + "." + children_[i]->name()));
  }
}

void register_pipeline_factory(core::FilterRegistry& registry) {
  registry.register_factory(
      "pipeline", [&registry](const core::ParamMap& params) {
        std::vector<std::shared_ptr<core::Filter>> children;
        std::string names;
        if (auto it = params.find("of"); it != params.end()) names = it->second;
        std::string piece;
        std::istringstream in(names);
        while (std::getline(in, piece, ',')) {
          if (!piece.empty()) children.push_back(registry.create({piece, {}}));
        }
        std::string name = "pipeline";
        if (auto it = params.find("name"); it != params.end()) name = it->second;
        return std::make_shared<PipelineFilter>(std::move(name),
                                                std::move(children));
      });
}

}  // namespace rapidware::filters
