#include "net/sim_network.h"

#include <chrono>
#include <stdexcept>

namespace rapidware::net {

std::string Address::to_string() const {
  if (is_multicast()) {
    return "mc" + std::to_string(node - kMulticastBase) + ":" +
           std::to_string(port);
  }
  return "n" + std::to_string(node) + ":" + std::to_string(port);
}

// ---------------------------------------------------------------------------
// SimSocket

SimSocket::SimSocket(SimNetwork* net, Address local)
    : net_(net), local_(local) {}

SimSocket::~SimSocket() { close(); }

void SimSocket::send_to(const Address& dst, util::ByteSpan payload) {
  {
    rw::MutexLock lk(mu_);
    if (closed_) throw std::runtime_error("SimSocket::send_to: socket closed");
    ++sent_;
  }
  net_->route(*this, dst, payload);
}

std::optional<Datagram> SimSocket::recv(int timeout_ms) {
  rw::MutexLock lk(mu_);
  const auto ready = [this] {
    mu_.assert_held();
    return closed_ || !queue_.empty();
  };
  if (timeout_ms < 0) {
    cv_.wait(mu_, ready);
  } else if (!cv_.wait_for(mu_, std::chrono::milliseconds(timeout_ms),
                           ready)) {
    return std::nullopt;
  }
  if (queue_.empty()) return std::nullopt;  // closed
  Datagram d = std::move(queue_.front());
  queue_.pop_front();
  ++received_;
  return d;
}

std::optional<Datagram> SimSocket::poll_recv(bool* closed) {
  rw::MutexLock lk(mu_);
  *closed = false;
  if (!queue_.empty()) {
    Datagram d = std::move(queue_.front());
    queue_.pop_front();
    ++received_;
    return d;
  }
  if (closed_) {
    *closed = true;
  } else if (watcher_ != nullptr) {
    watcher_armed_ = true;
  }
  return std::nullopt;
}

void SimSocket::set_ready_watcher(util::Scheduler* watcher) {
  rw::MutexLock lk(mu_);
  watcher_ = watcher;
  watcher_armed_ = false;
  fired_cv_.wait(mu_, [this] {
    mu_.assert_held();
    return watcher_firing_ == 0;
  });
}

util::Scheduler* SimSocket::take_watcher_locked() {
  if (watcher_ == nullptr || !watcher_armed_) return nullptr;
  watcher_armed_ = false;
  ++watcher_firing_;
  return watcher_;
}

void SimSocket::fire(util::Scheduler* watcher) {
  if (watcher == nullptr) return;
  watcher->on_readable();
  rw::MutexLock lk(mu_);
  if (--watcher_firing_ == 0) fired_cv_.notify_all();
}

void SimSocket::join(const Address& group) { net_->join_group(group, this); }

void SimSocket::leave(const Address& group) { net_->leave_group(group, this); }

void SimSocket::close() {
  util::Scheduler* watcher = nullptr;
  {
    rw::MutexLock lk(mu_);
    if (closed_) return;
    closed_ = true;
    watcher = take_watcher_locked();
  }
  net_->unbind(this);
  cv_.notify_all();
  fire(watcher);
}

bool SimSocket::is_closed() const {
  rw::MutexLock lk(mu_);
  return closed_;
}

std::uint64_t SimSocket::packets_sent() const {
  rw::MutexLock lk(mu_);
  return sent_;
}

std::uint64_t SimSocket::packets_received() const {
  rw::MutexLock lk(mu_);
  return received_;
}

void SimSocket::enqueue(Datagram d) {
  util::Scheduler* watcher = nullptr;
  {
    rw::MutexLock lk(mu_);
    if (closed_) return;
    queue_.push_back(std::move(d));
    watcher = take_watcher_locked();
  }
  cv_.notify_one();
  fire(watcher);
}

// ---------------------------------------------------------------------------
// SimNetwork

SimNetwork::SimNetwork(std::shared_ptr<util::Clock> clock, std::uint64_t seed)
    : clock_(clock ? std::move(clock) : std::make_shared<util::WallClock>()),
      rng_(seed) {}

NodeId SimNetwork::add_node(std::string name) {
  rw::MutexLock lk(mu_);
  nodes_.push_back(std::move(name));
  return static_cast<NodeId>(nodes_.size() - 1);
}

std::string SimNetwork::node_name(NodeId id) const {
  // Copy, don't reference: returning `nodes_.at(id)` by const reference
  // handed callers a pointer into a vector that a concurrent add_node() can
  // reallocate the instant this mutex is released.
  rw::MutexLock lk(mu_);
  return nodes_.at(id);
}

std::shared_ptr<SimSocket> SimNetwork::open(NodeId node, std::uint16_t port) {
  rw::MutexLock lk(mu_);
  if (node >= nodes_.size()) {
    throw std::invalid_argument("SimNetwork::open: unknown node");
  }
  if (port == 0) {
    while (bound_.count(Address{node, next_ephemeral_}) != 0) ++next_ephemeral_;
    port = next_ephemeral_++;
  } else if (bound_.count(Address{node, port}) != 0) {
    throw std::invalid_argument("SimNetwork::open: port in use");
  }
  const Address local{node, port};
  auto socket = std::shared_ptr<SimSocket>(new SimSocket(this, local));
  socket->self_ = socket;
  bound_[local] = socket;
  return socket;
}

void SimNetwork::set_channel(NodeId from, NodeId to, ChannelConfig config) {
  rw::MutexLock lk(mu_);
  channels_[{from, to}] =
      std::make_unique<Channel>(std::move(config), rng_.split());
}

Channel* SimNetwork::channel(NodeId from, NodeId to) {
  rw::MutexLock lk(mu_);
  auto it = channels_.find({from, to});
  return it == channels_.end() ? nullptr : it->second.get();
}

std::uint64_t SimNetwork::datagrams_routed() const {
  rw::MutexLock lk(mu_);
  return routed_;
}

void SimNetwork::route(const SimSocket& from, const Address& dst,
                       util::ByteSpan payload) {
  const util::Micros sent_at = clock_->now();
  // Runs `channel` (if any) and enqueues at `socket` what it keeps. The
  // payload is copied once, into the receiver's datagram, and only then:
  // a dropped packet costs no copy.
  const auto deliver = [&](SimSocket& socket, Channel* channel) {
    util::Micros at = sent_at;
    if (channel != nullptr) {
      const auto t = channel->transit(payload.size(), sent_at);
      if (!t) return;  // dropped
      at = *t;
    }
    socket.enqueue(Datagram{from.local(), dst,
                            util::Bytes(payload.begin(), payload.end()),
                            sent_at, at});
  };
  const auto channel_to = [this](NodeId src, NodeId to) {
    mu_.assert_held();
    auto ch = channels_.find({src, to});
    return ch == channels_.end() ? nullptr : ch->second.get();
  };

  // Receivers are pinned (shared_ptr) under the lock; channel models run
  // and receivers enqueue outside it, so slow receivers never serialize
  // the whole fabric and a concurrently destroyed socket is simply skipped.
  if (!dst.is_multicast()) {
    std::shared_ptr<SimSocket> socket;
    Channel* channel = nullptr;
    {
      rw::MutexLock lk(mu_);
      ++routed_;
      if (auto it = bound_.find(dst); it != bound_.end()) {
        socket = it->second.lock();
        if (socket) channel = channel_to(from.local().node, dst.node);
      }
    }
    if (socket) deliver(*socket, channel);
    return;
  }

  std::vector<std::pair<std::shared_ptr<SimSocket>, Channel*>> targets;
  {
    rw::MutexLock lk(mu_);
    ++routed_;
    if (auto it = groups_.find(dst); it != groups_.end()) {
      for (auto& [raw, weak] : it->second) {
        if (raw == &from) continue;  // no loopback to the sender
        auto s = weak.lock();
        if (!s) continue;
        Channel* ch = channel_to(from.local().node, s->local().node);
        targets.emplace_back(std::move(s), ch);
      }
    }
  }
  for (auto& [socket, channel] : targets) deliver(*socket, channel);
}

void SimNetwork::join_group(const Address& group, SimSocket* socket) {
  if (!group.is_multicast()) {
    throw std::invalid_argument("SimSocket::join: not a multicast address");
  }
  rw::MutexLock lk(mu_);
  groups_[group][socket] = socket->self_;
}

void SimNetwork::leave_group(const Address& group, SimSocket* socket) {
  rw::MutexLock lk(mu_);
  if (auto it = groups_.find(group); it != groups_.end()) {
    it->second.erase(socket);
    if (it->second.empty()) groups_.erase(it);
  }
}

void SimNetwork::unbind(SimSocket* socket) {
  rw::MutexLock lk(mu_);
  bound_.erase(socket->local());
  for (auto it = groups_.begin(); it != groups_.end();) {
    it->second.erase(socket);
    it = it->second.empty() ? groups_.erase(it) : std::next(it);
  }
}

}  // namespace rapidware::net
