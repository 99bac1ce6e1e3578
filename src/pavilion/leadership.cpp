#include "pavilion/leadership.h"

#include "util/logging.h"
#include "util/serial.h"

namespace rapidware::pavilion {

util::Bytes FloorMessage::serialize() const {
  util::Writer w;
  w.u8(static_cast<std::uint8_t>(type));
  w.str(member);
  w.u32(reply_to.node);
  w.u16(reply_to.port);
  w.u64(seq);
  return w.take();
}

FloorMessage FloorMessage::parse(util::ByteSpan wire) {
  util::Reader r(wire);
  FloorMessage m;
  const std::uint8_t type = r.u8();
  if (type < 1 || type > 3) {
    throw util::SerialError("FloorMessage: unknown type");
  }
  m.type = static_cast<FloorMsg>(type);
  m.member = r.str();
  m.reply_to.node = r.u32();
  m.reply_to.port = r.u16();
  m.seq = r.u64();
  return m;
}

FloorControl::FloorControl(std::string member,
                           std::shared_ptr<net::SimSocket> control,
                           net::Address announce_group, bool initial_leader)
    : member_(std::move(member)),
      control_(std::move(control)),
      announce_group_(announce_group),
      leader_(initial_leader),
      current_leader_(initial_leader ? member_ : "") {
  control_->join(announce_group_);
}

FloorControl::~FloorControl() { stop(); }

void FloorControl::start() {
  rw::MutexLock lk(mu_);
  if (running_) return;
  running_ = true;
  thread_ = std::thread([this] { service_loop(); });
}

void FloorControl::stop() {
  std::thread reaper;
  {
    rw::MutexLock lk(mu_);
    if (!running_) return;
    running_ = false;
    reaper = std::move(thread_);
  }
  control_->close();
  grant_cv_.notify_all();
  if (reaper.joinable()) reaper.join();
}

bool FloorControl::request_floor(net::Address leader_control, int timeout_ms) {
  {
    rw::MutexLock lk(mu_);
    if (leader_) return true;  // already holding the floor
    pending_grant_.reset();
  }
  FloorMessage request;
  request.type = FloorMsg::kRequest;
  request.member = member_;
  request.reply_to = control_->local();
  control_->send_to(leader_control, request.serialize());

  std::uint64_t seq = 0;
  {
    rw::MutexLock lk(mu_);
    if (!grant_cv_.wait_for(mu_, std::chrono::milliseconds(timeout_ms), [&] {
          mu_.assert_held();
          return pending_grant_.has_value();
        })) {
      return false;
    }
    // Granted: become leader and announce with the next sequence number.
    seq = pending_grant_->seq + 1;
    pending_grant_.reset();
    leader_ = true;
    current_leader_ = member_;
    seq_ = seq;
  }
  announce_leadership(seq);
  return true;
}

void FloorControl::announce_leadership(std::uint64_t seq) {
  FloorMessage announce;
  announce.type = FloorMsg::kNewLeader;
  announce.member = member_;
  announce.reply_to = control_->local();
  announce.seq = seq;
  control_->send_to(announce_group_, announce.serialize());
}

bool FloorControl::is_leader() const {
  rw::MutexLock lk(mu_);
  return leader_;
}

std::string FloorControl::current_leader() const {
  rw::MutexLock lk(mu_);
  return current_leader_;
}

std::uint64_t FloorControl::leadership_seq() const {
  rw::MutexLock lk(mu_);
  return seq_;
}

void FloorControl::set_on_leader_change(
    std::function<void(const std::string&)> cb) {
  rw::MutexLock lk(mu_);
  on_change_ = std::move(cb);
}

void FloorControl::set_grant_policy(
    std::function<bool(const std::string&)> policy) {
  rw::MutexLock lk(mu_);
  grant_policy_ = std::move(policy);
}

void FloorControl::service_loop() {
  for (;;) {
    auto datagram = control_->recv(-1);
    if (!datagram) break;
    FloorMessage message;
    try {
      message = FloorMessage::parse(datagram->payload);
    } catch (const std::exception& e) {
      RW_WARN(member_) << "bad floor message: " << e.what();
      continue;
    }

    switch (message.type) {
      case FloorMsg::kRequest: {
        std::uint64_t seq = 0;
        {
          rw::MutexLock lk(mu_);
          if (!leader_) break;  // not ours to grant
          if (grant_policy_ && !grant_policy_(message.member)) break;
          leader_ = false;  // hand over the floor
          seq = seq_;
        }
        FloorMessage grant;
        grant.type = FloorMsg::kGrant;
        grant.member = message.member;
        grant.seq = seq;
        control_->send_to(message.reply_to, grant.serialize());
        break;
      }
      case FloorMsg::kGrant: {
        rw::MutexLock lk(mu_);
        if (message.member != member_) break;  // not for us
        pending_grant_ = message;
        grant_cv_.notify_all();
        break;
      }
      case FloorMsg::kNewLeader: {
        std::function<void(const std::string&)> notify;
        std::string who;
        {
          rw::MutexLock lk(mu_);
          if (message.seq <= seq_ && !current_leader_.empty()) break;
          seq_ = message.seq;
          current_leader_ = message.member;
          leader_ = (message.member == member_);
          notify = on_change_;
          who = current_leader_;
        }
        if (notify) notify(who);
        break;
      }
    }
  }
}

}  // namespace rapidware::pavilion
