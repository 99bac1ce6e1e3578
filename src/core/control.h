// Proxy control protocol — the wire interface between the ControlManager
// (administration client, Section 4) and a proxy's filter chain.
//
// The protocol is transport-agnostic: ControlServer turns a request byte
// blob into a response byte blob; bindings (in-process call, datagram
// service in src/proxy) carry the blobs. ControlManager is the typed client
// over any such transport, replacing the paper's Swing GUI with a
// programmatic API that exposes the same operations: query configuration,
// insert/remove/reorder filters, tune parameters, and upload new filter
// definitions.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/filter_chain.h"
#include "core/filter_registry.h"
#include "core/flow_classifier.h"
#include "obs/metrics.h"
#include "util/bytes.h"

namespace rapidware::core {

enum class ControlOp : std::uint8_t {
  kListChain = 1,    // -> FilterInfo list
  kListAvailable = 2,// -> registry names
  kInsert = 3,       // spec + position
  kRemove = 4,       // position
  kReorder = 5,      // from + to
  kSetParam = 6,     // position + key + value
  kUpload = 7,       // alias name + base spec
  kStats = 8,        // scope prefix -> metrics text (v2)
  kRuleAdd = 9,      // blob(FlowRule): add/replace a classifier rule (v3)
  kRuleDel = 10,     // rule name (v3)
  kRuleList = 11,    // -> FlowRule list in match order (v3)
};

/// Protocol version, reported as the first "proto_version=N" line of every
/// STATS response. Compatibility rule (docs/control_protocol.md): existing
/// op encodings are frozen; new capability = new op tag; a server answers an
/// op it does not know with the error "unknown control op", which is how an
/// older server tells a newer client to back off.
///   v1: ops 1-7.
///   v2: adds kStats.
///   v3: adds kRuleAdd/kRuleDel/kRuleList (per-flow rule table).
inline constexpr int kControlProtocolVersion = 3;

/// Snapshot of one configured filter, as reported by kListChain.
struct FilterInfo {
  std::string name;
  std::string description;
  ParamMap params;

  bool operator==(const FilterInfo&) const = default;
};

/// Raw request/response encoding helpers (exposed for tests).
namespace wire {
util::Bytes ok_response(util::ByteSpan payload = {});
util::Bytes error_response(const std::string& message);
}  // namespace wire

/// Server side: applies control requests to a chain + registry. kStats
/// serves snapshots of `metrics` (default: the process-global registry,
/// which is where Proxy publishes everything).
class ControlServer {
 public:
  ControlServer(std::shared_ptr<FilterChain> chain,
                FilterRegistry* registry = &global_registry(),
                obs::Registry* metrics = &obs::registry());

  /// Attaches the per-flow rule table the v3 RULE_* verbs operate on. A
  /// server without a classifier answers them with an error (the same
  /// degrade-cleanly path as an older server). Not owned; must outlive the
  /// server.
  void set_classifier(FlowClassifier* classifier);

  /// Called after every successful RULE_ADD / RULE_DEL, outside any
  /// classifier lock — the hook a proxy uses to re-resolve its live flows
  /// (docs/flow_classification.md, "Live updates").
  void on_rules_changed(std::function<void()> hook);

  /// Decodes, executes, and answers one request. Never throws: failures are
  /// reported in the response.
  util::Bytes handle(util::ByteSpan request);

 private:
  util::Bytes dispatch(util::ByteSpan request);

  std::shared_ptr<FilterChain> chain_;
  FilterRegistry* registry_;
  obs::Registry* metrics_;
  FlowClassifier* classifier_ = nullptr;
  std::function<void()> rules_changed_;
};

/// Thrown by ControlManager when the server reports an error.
class ControlError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Client side. The transport maps a request blob to a response blob —
/// a direct call into ControlServer::handle, or a network round trip.
class ControlManager {
 public:
  using Transport = std::function<util::Bytes(util::ByteSpan)>;

  explicit ControlManager(Transport transport);

  /// Convenience: manager wired straight to an in-process server.
  static ControlManager local(std::shared_ptr<ControlServer> server);

  std::vector<FilterInfo> list_chain();
  /// Position of the first filter named `name` in the chain, or nullopt.
  std::optional<std::size_t> find(const std::string& name);
  std::vector<std::string> list_available();
  void insert(const FilterSpec& spec, std::size_t pos);
  void remove(std::size_t pos);
  void reorder(std::size_t from, std::size_t to);
  void set_param(std::size_t pos, const std::string& key,
                 const std::string& value);
  /// Uploads a third-party filter definition (alias over registered
  /// primitives); afterwards insert() accepts the new name.
  void upload(const std::string& name, const FilterSpec& base);

  /// v3 rule-table verbs. Servers without a classifier (or pre-v3 servers)
  /// answer with an error, surfaced here as ControlError.
  void rule_add(const FlowRule& rule);
  void rule_del(const std::string& name);
  std::vector<FlowRule> rule_list();

  /// STATS: the raw "name=value\n" metrics dump for `scope` (empty: all
  /// metrics). The first line is always "proto_version=N".
  std::string stats_text(const std::string& scope = "");

  /// STATS, parsed: (name, value) pairs in server (name-sorted) order,
  /// including the proto_version pseudo-entry.
  std::vector<std::pair<std::string, std::string>> stats(
      const std::string& scope = "");

  /// Renders the chain configuration as a one-line summary, e.g.
  /// "[wired-rx] -> fec-enc(6,4) -> throttle -> [wireless-tx]".
  std::string render_chain(const std::string& head = "in",
                           const std::string& tail = "out");

 private:
  util::Bytes roundtrip(util::ByteSpan request);

  Transport transport_;
};

}  // namespace rapidware::core
