// Interactive proxy administration console — the programmatic stand-in for
// the paper's Swing ControlManager GUI (Section 4). Connects to a live
// proxy over the control protocol and lets an administrator inspect and
// reconfigure the filter chain while audio streams through it.
//
// Commands:
//   list                       show the chain
//   avail                      show insertable filter kinds
//   insert <name> <pos> [k=v]  instantiate and splice in a filter
//   remove <pos>               remove a filter (flushes its state)
//   move <from> <to>           reorder
//   set <pos> <key> <value>    retune a live filter
//   upload <alias> <base> [k=v] register a third-party filter definition
//   types                      composability type trace of the chain
//   stats                      delivery statistics at the receiver
//   pstats [prefix]            proxy-side metrics via the STATS verb
//   quit
//
// Run interactively: ./proxy_console
// Without a TTY (CI), it executes a scripted demo session instead.
#include <cstdio>
#include <iostream>
#include <sstream>
#include <thread>
#include <unistd.h>

#include "filters/registry.h"
#include "media/audio.h"
#include "media/media_packet.h"
#include "media/receiver_log.h"
#include "fec/fec_group.h"
#include "proxy/proxy.h"
#include "util/stats.h"
#include "wireless/wlan.h"

using namespace rapidware;

namespace {

struct Deployment {
  std::shared_ptr<util::SimClock> clock = std::make_shared<util::SimClock>();
  net::SimNetwork net{clock, 99};
  net::NodeId sender = net.add_node("sender");
  net::NodeId proxy_node = net.add_node("proxy");
  net::NodeId mobile = net.add_node("mobile");
  wireless::WirelessLan wlan{net, proxy_node};
  std::unique_ptr<proxy::Proxy> px;

  std::shared_ptr<net::SimSocket> rx;
  media::ReceiverLog log{432};
  fec::GroupDecoder decoder{4};
  std::thread receiver;
  std::thread sender_thread;
  std::atomic<bool> stop{false};

  Deployment() {
    filters::register_builtin_filters();
    wlan.add_station(mobile, 28.0);
    proxy::ProxyConfig c;
    c.name = "console-proxy";
    c.ingress_port = 4000;
    c.egress_dst = {mobile, 5000};
    px = std::make_unique<proxy::Proxy>(net, proxy_node, c);
    px->chain().set_stream_type("media");  // enables composability checks
    px->start();

    rx = net.open(mobile, 5000);
    receiver = std::thread([this] {
      for (;;) {
        auto d = rx->recv(200);
        if (!d) {
          if (stop.load() || rx->is_closed()) break;
          continue;
        }
        try {
          std::vector<util::Bytes> payloads;
          if (fec::looks_like_fec_packet(d->payload)) {
            payloads = decoder.add(d->payload);
          } else {
            payloads.push_back(d->payload);
          }
          for (const auto& p : payloads) {
            log.on_packet(media::MediaPacket::parse(p), d->deliver_at);
          }
        } catch (const std::exception&) {
          // Chain may be mid-reconfiguration into a non-media shape
          // (encrypted without local key, etc.); count nothing.
        }
      }
    });
    sender_thread = std::thread([this] {
      auto tx = net.open(sender);
      media::AudioSource audio;
      media::AudioPacketizer packetizer(audio);
      while (!stop.load()) {
        tx->send_to({proxy_node, 4000}, packetizer.next().serialize());
        clock->advance(20'000);
        std::this_thread::sleep_for(std::chrono::microseconds(500));
      }
    });
  }

  ~Deployment() {
    stop.store(true);
    sender_thread.join();
    rx->close();
    receiver.join();
    px->shutdown();
  }
};

core::ParamMap parse_params(std::istringstream& in) {
  core::ParamMap params;
  std::string kv;
  while (in >> kv) {
    const auto eq = kv.find('=');
    if (eq != std::string::npos) {
      params[kv.substr(0, eq)] = kv.substr(eq + 1);
    }
  }
  return params;
}

bool run_command(Deployment& d, core::ControlManager& manager,
                 const std::string& line) {
  std::istringstream in(line);
  std::string cmd;
  if (!(in >> cmd)) return true;
  try {
    if (cmd == "quit" || cmd == "exit") return false;
    if (cmd == "list") {
      std::printf("  %s\n", manager.render_chain("wired-rx", "wireless-tx").c_str());
      const auto infos = manager.list_chain();
      for (std::size_t i = 0; i < infos.size(); ++i) {
        std::printf("  [%zu] %s", i, infos[i].description.c_str());
        for (const auto& [k, v] : infos[i].params) {
          std::printf("  %s=%s", k.c_str(), v.c_str());
        }
        std::printf("\n");
      }
    } else if (cmd == "avail") {
      for (const auto& name : manager.list_available()) {
        std::printf("  %s\n", name.c_str());
      }
    } else if (cmd == "insert") {
      std::string name;
      std::size_t pos;
      in >> name >> pos;
      manager.insert({name, parse_params(in)}, pos);
      std::printf("  inserted %s at %zu\n", name.c_str(), pos);
    } else if (cmd == "remove") {
      std::size_t pos;
      in >> pos;
      manager.remove(pos);
      std::printf("  removed filter %zu (state flushed)\n", pos);
    } else if (cmd == "move") {
      std::size_t from, to;
      in >> from >> to;
      manager.reorder(from, to);
      std::printf("  moved %zu -> %zu\n", from, to);
    } else if (cmd == "set") {
      std::size_t pos;
      std::string key, value;
      in >> pos >> key >> value;
      manager.set_param(pos, key, value);
      std::printf("  set [%zu].%s = %s\n", pos, key.c_str(), value.c_str());
    } else if (cmd == "upload") {
      std::string alias, base;
      in >> alias >> base;
      manager.upload(alias, {base, parse_params(in)});
      std::printf("  uploaded '%s'\n", alias.c_str());
    } else if (cmd == "types") {
      const auto trace = d.px->chain().type_trace();
      std::printf("  ");
      for (std::size_t i = 0; i < trace.size(); ++i) {
        std::printf("%s%s", i ? " -> " : "", trace[i].c_str());
      }
      std::printf("\n");
      if (const auto error = d.px->chain().type_error()) {
        std::printf("  TYPE ERROR: %s\n", error->c_str());
      }
    } else if (cmd == "stats") {
      std::printf("  delivered %s of %llu packets (loss model: %s at %.0f m)\n",
                  util::percent(d.log.delivery_rate()).c_str(),
                  static_cast<unsigned long long>(d.log.expected()),
                  util::percent(d.wlan.downlink_loss(d.mobile)).c_str(),
                  d.wlan.distance(d.mobile));
    } else if (cmd == "pstats") {
      // The remote side of the picture: what the PROXY says it is doing,
      // fetched over the wire with the STATS verb (docs/observability.md).
      std::string prefix = "console-proxy";
      in >> prefix;
      for (const auto& [key, value] : manager.stats(prefix)) {
        std::printf("  %s=%s\n", key.c_str(), value.c_str());
      }
    } else {
      std::printf("  unknown command '%s'\n", cmd.c_str());
    }
  } catch (const std::exception& e) {
    std::printf("  error: %s\n", e.what());
  }
  return true;
}

}  // namespace

int main() {
  Deployment d;
  core::ControlManager manager(proxy::network_control_transport(
      d.net, d.sender, d.px->control_address()));

  std::printf("RAPIDware proxy console — live audio is streaming through\n"
              "the proxy to a mobile host 28 m from the access point.\n\n");

  if (isatty(fileno(stdin))) {
    std::string line;
    for (;;) {
      std::printf("proxy> ");
      std::fflush(stdout);
      if (!std::getline(std::cin, line)) break;
      if (!run_command(d, manager, line)) break;
    }
    return 0;
  }

  // Scripted demo for non-interactive runs.
  const char* script[] = {
      "list",
      "avail",
      "stats",
      "insert fec-encode 0 n=6 k=4",
      "insert stats 1 name=egress-tap",
      "list",
      "types",
      "set 0 n 8",
      "list",
      "upload strong-fec fec-encode n=10 k=4",
      "remove 0",
      "insert strong-fec 0",
      "list",
      "stats",
      "pstats console-proxy/chain",
  };
  for (const char* line : script) {
    std::printf("proxy> %s\n", line);
    run_command(d, manager, line);
    std::this_thread::sleep_for(std::chrono::milliseconds(120));
  }
  std::printf("\n(demo script finished; run with a TTY for an interactive session)\n");
  return 0;
}
