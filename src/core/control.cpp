#include "core/control.h"

#include <sstream>

#include "util/serial.h"

namespace rapidware::core {
namespace wire {

util::Bytes ok_response(util::ByteSpan payload) {
  util::Writer w;
  w.u8(1);
  w.raw(payload);
  return w.take();
}

util::Bytes error_response(const std::string& message) {
  util::Writer w;
  w.u8(0);
  w.str(message);
  return w.take();
}

}  // namespace wire

ControlServer::ControlServer(std::shared_ptr<FilterChain> chain,
                             FilterRegistry* registry, obs::Registry* metrics)
    : chain_(std::move(chain)), registry_(registry), metrics_(metrics) {
  if (!chain_ || registry_ == nullptr || metrics_ == nullptr) {
    throw std::invalid_argument("ControlServer: null chain or registry");
  }
}

void ControlServer::set_classifier(FlowClassifier* classifier) {
  classifier_ = classifier;
}

void ControlServer::on_rules_changed(std::function<void()> hook) {
  rules_changed_ = std::move(hook);
}

util::Bytes ControlServer::handle(util::ByteSpan request) {
  try {
    return dispatch(request);
  } catch (const std::exception& e) {
    return wire::error_response(e.what());
  }
}

util::Bytes ControlServer::dispatch(util::ByteSpan request) {
  util::Reader r(request);
  const auto op = static_cast<ControlOp>(r.u8());
  switch (op) {
    case ControlOp::kListChain: {
      util::Writer w;
      // One atomic snapshot: size() followed by at(i) re-acquires the chain
      // mutex per call, and a remove() landing between the two made the
      // stats path answer "bad position" for a request that was valid when
      // it started.
      const auto filters = chain_->list();
      w.u32(static_cast<std::uint32_t>(filters.size()));
      for (const auto& f : filters) {
        w.str(f->name());
        w.str(f->describe());
        const ParamMap params = f->params();
        w.u32(static_cast<std::uint32_t>(params.size()));
        for (const auto& [k, v] : params) {
          w.str(k);
          w.str(v);
        }
      }
      return wire::ok_response(w.bytes());
    }
    case ControlOp::kListAvailable: {
      util::Writer w;
      const auto names = registry_->names();
      w.u32(static_cast<std::uint32_t>(names.size()));
      for (const auto& name : names) w.str(name);
      return wire::ok_response(w.bytes());
    }
    case ControlOp::kInsert: {
      const util::Bytes blob = r.blob();
      const auto pos = r.u32();
      const FilterSpec spec = FilterSpec::deserialize(blob);
      chain_->insert(registry_->create(spec), pos);
      return wire::ok_response();
    }
    case ControlOp::kRemove: {
      chain_->remove(r.u32());
      return wire::ok_response();
    }
    case ControlOp::kReorder: {
      const auto from = r.u32();
      const auto to = r.u32();
      chain_->reorder(from, to);
      return wire::ok_response();
    }
    case ControlOp::kSetParam: {
      const auto pos = r.u32();
      const std::string key = r.str();
      const std::string value = r.str();
      if (!chain_->set_param(pos, key, value)) {
        return wire::error_response("set_param rejected: " + key);
      }
      return wire::ok_response();
    }
    case ControlOp::kUpload: {
      std::string alias = r.str();
      const FilterSpec base = FilterSpec::deserialize(r.blob());
      registry_->register_alias(std::move(alias), base);
      return wire::ok_response();
    }
    case ControlOp::kStats: {
      const std::string prefix = r.str();
      std::string text =
          "proto_version=" + std::to_string(kControlProtocolVersion) + "\n";
      text += obs::render(metrics_->snapshot(prefix));
      util::Writer w;
      w.str(text);
      return wire::ok_response(w.bytes());
    }
    case ControlOp::kRuleAdd: {
      if (classifier_ == nullptr) {
        return wire::error_response("no flow classifier");
      }
      classifier_->add_rule(FlowRule::deserialize(r.blob()));
      if (rules_changed_) rules_changed_();
      return wire::ok_response();
    }
    case ControlOp::kRuleDel: {
      if (classifier_ == nullptr) {
        return wire::error_response("no flow classifier");
      }
      const std::string name = r.str();
      if (!classifier_->remove_rule(name)) {
        return wire::error_response("unknown rule: " + name);
      }
      if (rules_changed_) rules_changed_();
      return wire::ok_response();
    }
    case ControlOp::kRuleList: {
      if (classifier_ == nullptr) {
        return wire::error_response("no flow classifier");
      }
      util::Writer w;
      const auto rules = classifier_->rules();
      w.u32(static_cast<std::uint32_t>(rules.size()));
      for (const FlowRule& rule : rules) w.blob(rule.serialize());
      return wire::ok_response(w.bytes());
    }
  }
  return wire::error_response("unknown control op");
}

ControlManager::ControlManager(Transport transport)
    : transport_(std::move(transport)) {
  if (!transport_) throw std::invalid_argument("ControlManager: null transport");
}

ControlManager ControlManager::local(std::shared_ptr<ControlServer> server) {
  return ControlManager([server = std::move(server)](util::ByteSpan request) {
    return server->handle(request);
  });
}

util::Bytes ControlManager::roundtrip(util::ByteSpan request) {
  util::Bytes response = transport_(request);
  util::Reader r(response);
  if (r.u8() == 1) {
    return r.raw(r.remaining());
  }
  throw ControlError(r.str());
}

std::vector<FilterInfo> ControlManager::list_chain() {
  util::Writer req;
  req.u8(static_cast<std::uint8_t>(ControlOp::kListChain));
  const util::Bytes payload = roundtrip(req.bytes());
  util::Reader r(payload);
  std::vector<FilterInfo> out(r.u32());
  for (auto& info : out) {
    info.name = r.str();
    info.description = r.str();
    const std::uint32_t np = r.u32();
    for (std::uint32_t i = 0; i < np; ++i) {
      std::string k = r.str();
      info.params[k] = r.str();
    }
  }
  return out;
}

std::optional<std::size_t> ControlManager::find(const std::string& name) {
  const auto infos = list_chain();
  for (std::size_t i = 0; i < infos.size(); ++i) {
    if (infos[i].name == name) return i;
  }
  return std::nullopt;
}

std::vector<std::string> ControlManager::list_available() {
  util::Writer req;
  req.u8(static_cast<std::uint8_t>(ControlOp::kListAvailable));
  const util::Bytes payload = roundtrip(req.bytes());
  util::Reader r(payload);
  std::vector<std::string> out(r.u32());
  for (auto& name : out) name = r.str();
  return out;
}

void ControlManager::insert(const FilterSpec& spec, std::size_t pos) {
  util::Writer req;
  req.u8(static_cast<std::uint8_t>(ControlOp::kInsert));
  req.blob(spec.serialize());
  req.u32(static_cast<std::uint32_t>(pos));
  roundtrip(req.bytes());
}

void ControlManager::remove(std::size_t pos) {
  util::Writer req;
  req.u8(static_cast<std::uint8_t>(ControlOp::kRemove));
  req.u32(static_cast<std::uint32_t>(pos));
  roundtrip(req.bytes());
}

void ControlManager::reorder(std::size_t from, std::size_t to) {
  util::Writer req;
  req.u8(static_cast<std::uint8_t>(ControlOp::kReorder));
  req.u32(static_cast<std::uint32_t>(from));
  req.u32(static_cast<std::uint32_t>(to));
  roundtrip(req.bytes());
}

void ControlManager::set_param(std::size_t pos, const std::string& key,
                               const std::string& value) {
  util::Writer req;
  req.u8(static_cast<std::uint8_t>(ControlOp::kSetParam));
  req.u32(static_cast<std::uint32_t>(pos));
  req.str(key);
  req.str(value);
  roundtrip(req.bytes());
}

void ControlManager::upload(const std::string& name, const FilterSpec& base) {
  util::Writer req;
  req.u8(static_cast<std::uint8_t>(ControlOp::kUpload));
  req.str(name);
  req.blob(base.serialize());
  roundtrip(req.bytes());
}

void ControlManager::rule_add(const FlowRule& rule) {
  util::Writer req;
  req.u8(static_cast<std::uint8_t>(ControlOp::kRuleAdd));
  req.blob(rule.serialize());
  roundtrip(req.bytes());
}

void ControlManager::rule_del(const std::string& name) {
  util::Writer req;
  req.u8(static_cast<std::uint8_t>(ControlOp::kRuleDel));
  req.str(name);
  roundtrip(req.bytes());
}

std::vector<FlowRule> ControlManager::rule_list() {
  util::Writer req;
  req.u8(static_cast<std::uint8_t>(ControlOp::kRuleList));
  const util::Bytes payload = roundtrip(req.bytes());
  util::Reader r(payload);
  const std::uint32_t count = r.u32();
  std::vector<FlowRule> out;
  out.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    out.push_back(FlowRule::deserialize(r.blob()));
  }
  return out;
}

std::string ControlManager::stats_text(const std::string& scope) {
  util::Writer req;
  req.u8(static_cast<std::uint8_t>(ControlOp::kStats));
  req.str(scope);
  const util::Bytes payload = roundtrip(req.bytes());
  util::Reader r(payload);
  return r.str();
}

std::vector<std::pair<std::string, std::string>> ControlManager::stats(
    const std::string& scope) {
  std::vector<std::pair<std::string, std::string>> out;
  std::istringstream is(stats_text(scope));
  std::string line;
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    const auto eq = line.find('=');
    if (eq == std::string::npos) continue;
    out.emplace_back(line.substr(0, eq), line.substr(eq + 1));
  }
  return out;
}

std::string ControlManager::render_chain(const std::string& head,
                                         const std::string& tail) {
  std::ostringstream os;
  os << "[" << head << "]";
  for (const auto& info : list_chain()) os << " -> " << info.description;
  os << " -> [" << tail << "]";
  return os.str();
}

}  // namespace rapidware::core
