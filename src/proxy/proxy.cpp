#include "proxy/proxy.h"

#include <chrono>
#include <stdexcept>

#include "proxy/socket_endpoints.h"
#include "util/logging.h"

namespace rapidware::proxy {

Proxy::Proxy(net::SimNetwork& net, net::NodeId node, ProxyConfig config,
             core::FilterRegistry* registry)
    : net_(net), node_(node), config_(std::move(config)) {
  ingress_ = net_.open(node_, config_.ingress_port);
  if (config_.ingress_group) ingress_->join(*config_.ingress_group);
  egress_ = net_.open(node_);
  control_socket_ = net_.open(node_, config_.control_port);

  auto endpoints = make_socket_endpoints(ingress_, egress_, config_.egress_dst);
  egress_sink_ = endpoints.sink;
  chain_ = std::make_shared<core::FilterChain>(std::move(endpoints.head),
                                               std::move(endpoints.tail));
  // Per-flow chains share the egress sink with the main chain, so classified
  // and unclassified traffic leave through the same socket + destination.
  flows_ = std::make_unique<FlowTable>(classifier_, *registry,
                                       FlowTable::queue_endpoints(egress_sink_));
  control_server_ = std::make_unique<core::ControlServer>(chain_, registry);
  control_server_->set_classifier(&classifier_);
  control_server_->on_rules_changed([this] { flows_->reresolve(); });
  bind_metrics();
}

void Proxy::bind_metrics() {
  chain_->bind_metrics(obs::registry(), config_.name + "/chain");
  obs::Scope scope(obs::registry(), config_.name);
  classifier_.bind_metrics(scope.child("classifier"));
  flows_->bind_metrics(scope.child("flows"));
  m_control_requests_ = scope.counter("control/requests");
  m_control_errors_ = scope.counter("control/errors");
  m_retargets_ = scope.counter("retargets");
  m_control_handle_us_ = scope.histogram(
      "control/handle_us", obs::Histogram::latency_us_bounds());
  // SimSocket accessors are thread-safe, and shutdown() drops these before
  // the shared_ptr members can be released.
  auto* ingress = ingress_.get();
  auto* egress = egress_.get();
  scope.callback("ingress/packets", [ingress] {
    return static_cast<double>(ingress->packets_received());
  });
  scope.callback("egress/packets", [egress] {
    return static_cast<double>(egress->packets_sent());
  });
}

Proxy::~Proxy() {
  try {
    shutdown();
  } catch (...) {
    // Best-effort teardown.
  }
  // A proxy that was never started still registered metrics referencing its
  // sockets; drop them before the members go away (drop() is idempotent).
  obs::registry().drop(config_.name);
}

void Proxy::start() {
  if (started_) throw std::runtime_error("Proxy::start: already started");
  started_ = true;
  chain_->start();
  control_thread_ = std::thread([this] { control_loop(); });
}

void Proxy::shutdown() {
  if (!started_) return;
  started_ = false;
  control_socket_->close();
  if (control_thread_.joinable()) control_thread_.join();
  flows_->shutdown_all();
  chain_->shutdown();
  chain_->unbind_metrics();
  obs::registry().drop(config_.name);
}

void Proxy::flow_push(const core::FlowKey& key, util::Bytes packet) {
  flows_->push(key, std::move(packet));
}

void Proxy::retarget_egress(net::Address dst) {
  egress_sink_->set_destination(dst);
  if (m_retargets_) m_retargets_->add();
}

net::Address Proxy::egress_destination() const {
  return egress_sink_->destination();
}

void Proxy::control_loop() {
  for (;;) {
    auto request = control_socket_->recv(-1);
    if (!request) break;  // socket closed: shutting down
    const auto t0 = std::chrono::steady_clock::now();
    const util::Bytes response = control_server_->handle(request->payload);
    m_control_requests_->add();
    m_control_handle_us_->observe(static_cast<double>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - t0)
            .count()));
    // Response status byte: 1 = ok, 0 = error (core/control.h wire format).
    if (!response.empty() && response[0] == 0) {
      m_control_errors_->add();
    }
    try {
      control_socket_->send_to(request->src, response);
    } catch (const std::exception& e) {
      RW_WARN(config_.name) << "control reply failed: " << e.what();
      break;
    }
  }
}

core::ControlManager::Transport network_control_transport(
    net::SimNetwork& net, net::NodeId client_node, net::Address control_addr,
    int timeout_ms) {
  auto socket = net.open(client_node);
  return [socket = std::move(socket), control_addr,
          timeout_ms](util::ByteSpan request) -> util::Bytes {
    socket->send_to(control_addr, request);
    auto response = socket->recv(timeout_ms);
    if (!response) {
      throw core::ControlError("control request timed out");
    }
    return std::move(response->payload);
  };
}

}  // namespace rapidware::proxy
