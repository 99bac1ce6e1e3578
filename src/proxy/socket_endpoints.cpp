#include "proxy/socket_endpoints.h"

namespace rapidware::proxy {

SocketPacketSource::SocketPacketSource(std::shared_ptr<net::SimSocket> socket)
    : socket_(std::move(socket)) {}

std::optional<util::Bytes> SocketPacketSource::poll_packet(bool* finished) {
  auto datagram = socket_->poll_recv(finished);
  if (!datagram) return std::nullopt;
  return std::move(datagram->payload);
}

void SocketPacketSource::interrupt() { socket_->close(); }

SocketPacketSink::SocketPacketSink(std::shared_ptr<net::SimSocket> socket,
                                   net::Address dst)
    : socket_(std::move(socket)), dst_(dst) {}

void SocketPacketSink::deliver(util::ByteSpan packet) {
  net::Address dst;
  {
    rw::MutexLock lk(mu_);
    dst = dst_;
  }
  socket_->send_to(dst, packet);
}

void SocketPacketSink::set_destination(net::Address dst) {
  rw::MutexLock lk(mu_);
  dst_ = dst;
}

net::Address SocketPacketSink::destination() const {
  rw::MutexLock lk(mu_);
  return dst_;
}

SocketEndpoints make_socket_endpoints(std::shared_ptr<net::SimSocket> in,
                                      std::shared_ptr<net::SimSocket> out,
                                      net::Address out_dst) {
  auto sink = std::make_shared<SocketPacketSink>(std::move(out), out_dst);
  auto head = std::make_shared<core::PacketReaderEndpoint>(
      "socket-in", std::make_shared<SocketPacketSource>(std::move(in)));
  auto tail = std::make_shared<core::PacketWriterEndpoint>("socket-out", sink);
  return {std::move(head), std::move(tail), std::move(sink)};
}

}  // namespace rapidware::proxy
