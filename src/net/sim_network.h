// In-process datagram network: UDP-flavoured sockets, IP-style multicast
// groups, and per-directed-link channel models.
//
// This substrate replaces the paper's testbed LANs. Delivery is synchronous
// (the sender's thread runs the channel model and enqueues at receivers),
// which keeps tests and benchmarks deterministic; latency/bandwidth appear
// as *modeled* timestamps on each datagram (`deliver_at`), which receivers
// use for jitter and throughput accounting.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "net/address.h"
#include "net/link.h"
#include "util/bytes.h"
#include "util/clock.h"
#include "util/io.h"
#include "util/lock_rank.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace rapidware::net {

struct Datagram {
  Address src;
  Address dst;
  util::Bytes payload;
  util::Micros sent_at = 0;     // modeled send time
  util::Micros deliver_at = 0;  // modeled arrival time (>= sent_at)
};

class SimNetwork;

/// A bound datagram socket. Thread-safe; receive blocks with an optional
/// timeout, or polls with a one-shot ready watcher (how a proxy's ingress
/// endpoint reads it from a worker). Obtain via SimNetwork::open().
class SimSocket {
 public:
  ~SimSocket();

  SimSocket(const SimSocket&) = delete;
  SimSocket& operator=(const SimSocket&) = delete;

  const Address& local() const noexcept { return local_; }

  /// Sends one datagram (unicast or multicast destination).
  void send_to(const Address& dst, util::ByteSpan payload);

  /// Blocks for the next datagram; `timeout_ms` < 0 waits forever. Returns
  /// nullopt on timeout or once the socket is closed and drained.
  std::optional<Datagram> recv(int timeout_ms = -1);

  /// Non-blocking recv: the next datagram, or nullopt. With nullopt,
  /// *closed says the socket is closed and drained; otherwise the ready
  /// watcher (if any) is now armed and fires once, on the next arrival or
  /// close().
  std::optional<Datagram> poll_recv(bool* closed);

  /// Registers (nullptr clears) the watcher poll_recv() arms; its fire is
  /// an on_readable(). The fire runs on the enqueuing or closing thread
  /// OUTSIDE this socket's lock: the watcher posts to a worker, whose loop
  /// lock ranks before the socket's. So this call waits out a fire in
  /// flight — once it returns, the previous watcher is no longer
  /// referenced.
  void set_ready_watcher(util::Scheduler* watcher);

  /// Joins/leaves a multicast group.
  void join(const Address& group);
  void leave(const Address& group);

  /// Unblocks receivers and detaches from the network. Idempotent.
  void close();

  bool is_closed() const;

  std::uint64_t packets_sent() const;
  std::uint64_t packets_received() const;

 private:
  friend class SimNetwork;
  SimSocket(SimNetwork* net, Address local);

  void enqueue(Datagram d);

  /// Disarms and returns the armed watcher (counted as in flight), or null.
  util::Scheduler* take_watcher_locked() RW_REQUIRES(mu_);
  /// Runs a watcher taken above, then retires it from the in-flight count.
  void fire(util::Scheduler* watcher) RW_EXCLUDES(mu_);

  SimNetwork* const net_;
  const Address local_;
  // Written exactly once in SimNetwork::open() before the socket is handed
  // out, read-only afterwards.
  std::weak_ptr<SimSocket> self_;  // rw-lint: allow(RW003) write-once pre-publication

  mutable rw::Mutex mu_{"net/socket", rw::lockrank::kSocket};
  rw::CondVar cv_;
  std::deque<Datagram> queue_ RW_GUARDED_BY(mu_);
  bool closed_ RW_GUARDED_BY(mu_) = false;
  std::uint64_t sent_ RW_GUARDED_BY(mu_) = 0;
  std::uint64_t received_ RW_GUARDED_BY(mu_) = 0;
  util::Scheduler* watcher_ RW_GUARDED_BY(mu_) = nullptr;
  bool watcher_armed_ RW_GUARDED_BY(mu_) = false;  // one-shot, armed by poll
  int watcher_firing_ RW_GUARDED_BY(mu_) = 0;  // fires running outside mu_
  rw::CondVar fired_cv_;  // watcher_firing_ dropped to zero
};

class SimNetwork {
 public:
  /// The clock drives modeled timestamps; pass a SimClock for virtual-time
  /// experiments or nothing for wall time.
  explicit SimNetwork(std::shared_ptr<util::Clock> clock = nullptr,
                      std::uint64_t seed = 1);

  /// Registers a node; returns its id.
  NodeId add_node(std::string name);

  /// Returns a copy: the names vector can reallocate under a concurrent
  /// add_node(), so a reference into it would dangle the moment the mutex
  /// is released.
  std::string node_name(NodeId id) const;

  /// Binds a socket on `node`. Port 0 picks an unused ephemeral port.
  /// Throws std::invalid_argument for unknown nodes or ports in use.
  std::shared_ptr<SimSocket> open(NodeId node, std::uint16_t port = 0);

  /// Installs a channel model on the directed link from -> to. Without one,
  /// delivery is instant and lossless.
  void set_channel(NodeId from, NodeId to, ChannelConfig config);

  /// The channel on from -> to, or nullptr.
  Channel* channel(NodeId from, NodeId to);

  util::Micros now() const { return clock_->now(); }
  util::Clock& clock() { return *clock_; }

  std::uint64_t datagrams_routed() const;

 private:
  friend class SimSocket;
  void route(const SimSocket& from, const Address& dst,
             util::ByteSpan payload);
  void join_group(const Address& group, SimSocket* socket);
  void leave_group(const Address& group, SimSocket* socket);
  void unbind(SimSocket* socket);

  const std::shared_ptr<util::Clock> clock_;

  mutable rw::Mutex mu_{"net/sim_network", rw::lockrank::kSimNetwork};
  util::Rng rng_ RW_GUARDED_BY(mu_);
  std::vector<std::string> nodes_ RW_GUARDED_BY(mu_);
  // weak_ptr registries: routing pins sockets alive for the duration of a
  // delivery, so a socket destroyed mid-route is skipped, never dangling.
  std::map<Address, std::weak_ptr<SimSocket>> bound_ RW_GUARDED_BY(mu_);
  std::map<Address, std::map<SimSocket*, std::weak_ptr<SimSocket>>> groups_
      RW_GUARDED_BY(mu_);
  std::map<std::pair<NodeId, NodeId>, std::unique_ptr<Channel>> channels_
      RW_GUARDED_BY(mu_);
  std::uint16_t next_ephemeral_ RW_GUARDED_BY(mu_) = 50'000;
  std::uint64_t routed_ RW_GUARDED_BY(mu_) = 0;
};

}  // namespace rapidware::net
