// Proxy assembly: one data stream (ingress socket -> filter chain -> egress
// destination) plus a control service answering ControlManager requests
// over the network — the full RAPIDware proxy of Figure 4, including the
// remote-administration path the paper's Swing ControlManager used.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <thread>

#include "core/control.h"
#include "core/filter_chain.h"
#include "core/flow_classifier.h"
#include "net/sim_network.h"
#include "obs/metrics.h"
#include "proxy/flow_table.h"
#include "proxy/socket_endpoints.h"

namespace rapidware::proxy {

struct ProxyConfig {
  std::string name = "proxy";
  /// Port the proxy's data ingress binds on its node.
  std::uint16_t ingress_port = 4000;
  /// Multicast group the ingress joins (nullopt: plain unicast ingress).
  std::optional<net::Address> ingress_group;
  /// Where processed packets are sent (unicast address or multicast group).
  net::Address egress_dst;
  /// Port of the control service on the proxy's node.
  std::uint16_t control_port = 4999;
};

/// Construction publishes metrics under "<name>/..." in obs::registry()
/// (chain and per-filter metrics under "<name>/chain/...", socket packet
/// gauges under "<name>/ingress|egress/...", control-plane counters under
/// "<name>/control/..."), all served by the control protocol's STATS verb;
/// shutdown() drops them. Proxy names must therefore be unique per process.
class Proxy {
 public:
  Proxy(net::SimNetwork& net, net::NodeId node, ProxyConfig config,
        core::FilterRegistry* registry = &core::global_registry());
  ~Proxy();

  Proxy(const Proxy&) = delete;
  Proxy& operator=(const Proxy&) = delete;

  /// Starts the data chain (as a null proxy) and the control service.
  void start();

  /// Stops the control service, drains and stops the chain.
  void shutdown();

  core::FilterChain& chain() { return *chain_; }
  std::shared_ptr<core::FilterChain> chain_ptr() { return chain_; }

  // --- Per-flow chains (docs/flow_classification.md) ---------------------
  // The classifier's rule table maps FlowKeys to interned chain specs; the
  // flow table instantiates one FilterChain per active flow, on first
  // packet, feeding the shared egress. RULE_ADD / RULE_DEL over the control
  // protocol (v3) mutate the table and re-resolve every live flow.

  /// The rule table the v3 control verbs operate on. Rules added here take
  /// effect on the next flow_push() for a new key; use the control path to
  /// also re-resolve existing flows.
  core::FlowClassifier& classifier() { return classifier_; }

  /// The per-flow chain map (metrics under "<name>/flows/...").
  FlowTable& flows() { return *flows_; }

  /// Classified ingress: routes the packet through `key`'s chain,
  /// instantiating it from the resolved spec on first use. Output shares
  /// the proxy's egress socket and destination.
  void flow_push(const core::FlowKey& key, util::Bytes packet);

  /// Shuts one flow's chain down, delivering what is in flight (flow
  /// expiry). False if the flow was never seen.
  bool expire_flow(const core::FlowKey& key);

  /// Redirects the data egress to a new destination — device handoff: the
  /// stream follows the user from laptop to palmtop without restarting the
  /// chain (pair with a transcode insertion for the weaker device).
  void retarget_egress(net::Address dst);
  net::Address egress_destination() const;

  net::NodeId node() const noexcept { return node_; }
  net::Address control_address() const {
    return {node_, config_.control_port};
  }
  const std::string& name() const noexcept { return config_.name; }

 private:
  void control_loop();
  void bind_metrics();

  net::SimNetwork& net_;
  net::NodeId node_;
  ProxyConfig config_;

  std::shared_ptr<net::SimSocket> ingress_;
  std::shared_ptr<net::SimSocket> egress_;
  std::shared_ptr<net::SimSocket> control_socket_;
  std::shared_ptr<SocketPacketSink> egress_sink_;
  std::shared_ptr<core::FilterChain> chain_;
  core::FlowClassifier classifier_;
  std::unique_ptr<FlowTable> flows_;
  std::unique_ptr<core::ControlServer> control_server_;
  std::thread control_thread_;
  bool started_ = false;

  std::shared_ptr<obs::Counter> m_control_requests_;
  std::shared_ptr<obs::Counter> m_control_errors_;
  std::shared_ptr<obs::Counter> m_retargets_;
  std::shared_ptr<obs::Histogram> m_control_handle_us_;
};

/// ControlManager transport that performs datagram request/response against
/// a proxy's control service. Each client instance owns one ephemeral
/// socket on `client_node`.
core::ControlManager::Transport network_control_transport(
    net::SimNetwork& net, net::NodeId client_node, net::Address control_addr,
    int timeout_ms = 2000);

}  // namespace rapidware::proxy
