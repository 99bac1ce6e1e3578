// Network-backed endpoints — the paper's EndPointSocketReader and
// EndPointSocketWriter: adapters between SimNetwork datagram sockets and
// the chain's packet endpoints.
#pragma once

#include <memory>

#include "core/endpoint.h"
#include "net/sim_network.h"
#include "util/lock_rank.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace rapidware::proxy {

/// PacketSource over a bound socket; each datagram payload is one packet.
/// The reader endpoint polls it from its worker; its scheduler is the
/// socket's one-shot ready watcher, which re-drives the endpoint when a
/// datagram (or close) arrives.
class SocketPacketSource final : public core::PacketSource {
 public:
  explicit SocketPacketSource(std::shared_ptr<net::SimSocket> socket);

  std::optional<util::Bytes> poll_packet(bool* finished) override;
  void set_scheduler(core::Scheduler* sched) override {
    socket_->set_ready_watcher(sched);
  }

  /// Closes the socket: the endpoint drains what is queued, then ends.
  void interrupt() override;

  net::SimSocket& socket() { return *socket_; }

 private:
  std::shared_ptr<net::SimSocket> socket_;
};

/// PacketSink that sends every packet to a destination (unicast or
/// multicast), as the proxy's WirelessSender/WiredSender objects do. The
/// destination is retargetable at run time — the hook for device handoff
/// ("the application is handed off from one computing device to another",
/// paper Section 2).
class SocketPacketSink final : public core::PacketSink {
 public:
  SocketPacketSink(std::shared_ptr<net::SimSocket> socket, net::Address dst);

  void deliver(util::ByteSpan packet) override;

  /// Atomically redirects subsequent packets to a new destination.
  void set_destination(net::Address dst);
  net::Address destination() const;

  net::SimSocket& socket() { return *socket_; }

 private:
  const std::shared_ptr<net::SimSocket> socket_;
  mutable rw::Mutex mu_{"proxy/socket_sink", rw::lockrank::kSocketSink};
  net::Address dst_ RW_GUARDED_BY(mu_);
};

/// Builds the endpoint pair for a proxy leg: reads datagrams arriving on
/// `in`, forwards processed packets to `out_dst` via `out`. The returned
/// sink allows retargeting the egress (device handoff).
struct SocketEndpoints {
  std::shared_ptr<core::Filter> head;
  std::shared_ptr<core::Filter> tail;
  std::shared_ptr<SocketPacketSink> sink;
};
SocketEndpoints make_socket_endpoints(std::shared_ptr<net::SimSocket> in,
                                      std::shared_ptr<net::SimSocket> out,
                                      net::Address out_dst);

}  // namespace rapidware::proxy
