// Tests for FilterSpec/FilterRegistry/FilterContainer and the control
// protocol (ControlServer + ControlManager) — the paper's upload and
// management path.
#include <gtest/gtest.h>

#include "core/control.h"
#include "core/endpoint.h"
#include "core/filter_chain.h"
#include "core/filter_registry.h"
#include "obs/metrics.h"
#include "util/serial.h"

namespace rapidware::core {
namespace {

using util::Bytes;

/// Test filter exposing a tunable parameter.
class DelayTagFilter final : public PacketFilter {
 public:
  explicit DelayTagFilter(std::uint8_t tag)
      : PacketFilter("dtag"), tag_(tag) {}

  std::string describe() const override {
    return "dtag(" + std::to_string(tag_.load()) + ")";
  }

  ParamMap params() const override {
    return {{"tag", std::to_string(tag_.load())}};
  }

  bool set_param(const std::string& key, const std::string& value) override {
    if (key != "tag") return false;
    tag_.store(static_cast<std::uint8_t>(std::stoi(value)));
    return true;
  }

 protected:
  void on_packet(Bytes packet) override {
    packet.push_back(tag_.load());
    emit(packet);
  }

 private:
  std::atomic<std::uint8_t> tag_;
};

void populate_registry(FilterRegistry& reg) {
  reg.register_factory("dtag", [](const ParamMap& params) {
    std::uint8_t tag = 0;
    if (auto it = params.find("tag"); it != params.end()) {
      tag = static_cast<std::uint8_t>(std::stoi(it->second));
    }
    return std::make_shared<DelayTagFilter>(tag);
  });
  reg.register_factory("null", [](const ParamMap&) {
    return std::make_shared<NullFilter>();
  });
}

// ---------------------------------------------------------------------------
// FilterSpec

TEST(FilterSpec, SerializationRoundTrips) {
  FilterSpec spec{"fec-encode", {{"n", "6"}, {"k", "4"}}};
  const Bytes blob = spec.serialize();
  EXPECT_EQ(FilterSpec::deserialize(blob), spec);
}

TEST(FilterSpec, EmptyParamsRoundTrip) {
  FilterSpec spec{"null", {}};
  EXPECT_EQ(FilterSpec::deserialize(spec.serialize()), spec);
}

TEST(FilterSpec, CorruptBlobThrows) {
  EXPECT_THROW(FilterSpec::deserialize(util::to_bytes("xx")), util::SerialError);
}

// ---------------------------------------------------------------------------
// FilterRegistry

TEST(FilterRegistry, CreatesRegisteredFilter) {
  FilterRegistry reg;
  populate_registry(reg);
  EXPECT_TRUE(reg.contains("dtag"));
  auto f = reg.create({"dtag", {{"tag", "3"}}});
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->params().at("tag"), "3");
}

TEST(FilterRegistry, UnknownNameThrows) {
  FilterRegistry reg;
  populate_registry(reg);
  EXPECT_THROW(reg.create({"missing", {}}), std::out_of_range);
}

TEST(FilterRegistry, NamesListsFactoriesAndAliases) {
  FilterRegistry reg;
  populate_registry(reg);
  reg.register_alias("uploaded", {"dtag", {{"tag", "9"}}});
  const auto names = reg.names();
  EXPECT_NE(std::find(names.begin(), names.end(), "dtag"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "uploaded"), names.end());
}

TEST(FilterRegistry, AliasResolvesWithDefaults) {
  FilterRegistry reg;
  populate_registry(reg);
  reg.register_alias("uploaded", {"dtag", {{"tag", "9"}}});
  auto f = reg.create({"uploaded", {}});
  EXPECT_EQ(f->params().at("tag"), "9");
}

TEST(FilterRegistry, InstantiationParamsOverrideAliasDefaults) {
  FilterRegistry reg;
  populate_registry(reg);
  reg.register_alias("uploaded", {"dtag", {{"tag", "9"}}});
  auto f = reg.create({"uploaded", {{"tag", "4"}}});
  EXPECT_EQ(f->params().at("tag"), "4");
}

TEST(FilterRegistry, AliasOfAliasResolves) {
  FilterRegistry reg;
  populate_registry(reg);
  reg.register_alias("a1", {"dtag", {{"tag", "1"}}});
  reg.register_alias("a2", {"a1", {{"tag", "2"}}});
  auto f = reg.create({"a2", {}});
  EXPECT_EQ(f->params().at("tag"), "2");
}

TEST(FilterRegistry, AliasCycleFailsCleanly) {
  FilterRegistry reg;
  populate_registry(reg);
  reg.register_alias("x", {"y", {}});
  reg.register_alias("y", {"x", {}});
  EXPECT_THROW(reg.create({"x", {}}), std::out_of_range);
}

// ---------------------------------------------------------------------------
// FilterContainer

TEST(FilterContainer, AddEnumerateTake) {
  FilterContainer container;
  container.add(std::make_shared<NullFilter>("a"));
  container.add(std::make_shared<NullFilter>("b"));
  EXPECT_EQ(container.size(), 2u);
  EXPECT_EQ(container.enumerate(), (std::vector<std::string>{"a", "b"}));

  auto f = container.take("a");
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->name(), "a");
  EXPECT_EQ(container.size(), 1u);
  EXPECT_EQ(container.take("a"), nullptr);
}

TEST(FilterContainer, AddNullThrows) {
  FilterContainer container;
  EXPECT_THROW(container.add(nullptr), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Control protocol end to end

struct ControlHarness {
  std::shared_ptr<QueuePacketSource> source =
      std::make_shared<QueuePacketSource>();
  std::shared_ptr<CollectingPacketSink> sink =
      std::make_shared<CollectingPacketSink>();
  // Declared before the chain: the chain's destructor unbinds its metrics
  // into this registry, so the registry must outlive it.
  obs::Registry metrics;
  std::shared_ptr<FilterChain> chain;
  FilterRegistry registry;
  std::shared_ptr<ControlServer> server;
  std::unique_ptr<ControlManager> manager;

  ControlHarness() {
    chain = std::make_shared<FilterChain>(
        std::make_shared<PacketReaderEndpoint>("in", source),
        std::make_shared<PacketWriterEndpoint>("out", sink));
    chain->bind_metrics(metrics, "test/chain");
    chain->start();
    populate_registry(registry);
    server = std::make_shared<ControlServer>(chain, &registry, &metrics);
    manager = std::make_unique<ControlManager>(
        [this](util::ByteSpan request) { return server->handle(request); });
  }
  ~ControlHarness() {
    source->finish();
    chain->shutdown();
  }
};

TEST(ControlProtocol, ListAvailableReportsRegistry) {
  ControlHarness h;
  const auto names = h.manager->list_available();
  EXPECT_NE(std::find(names.begin(), names.end(), "dtag"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "null"), names.end());
}

TEST(ControlProtocol, InsertListRemove) {
  ControlHarness h;
  h.manager->insert({"dtag", {{"tag", "7"}}}, 0);
  auto infos = h.manager->list_chain();
  ASSERT_EQ(infos.size(), 1u);
  EXPECT_EQ(infos[0].name, "dtag");
  EXPECT_EQ(infos[0].description, "dtag(7)");
  EXPECT_EQ(infos[0].params.at("tag"), "7");

  h.manager->remove(0);
  EXPECT_TRUE(h.manager->list_chain().empty());
}

TEST(ControlProtocol, InsertedFilterProcessesTraffic) {
  ControlHarness h;
  h.manager->insert({"dtag", {{"tag", "5"}}}, 0);
  util::Writer w;
  w.u32(1);
  h.source->push(w.take());
  ASSERT_TRUE(h.sink->wait_for(1));
  EXPECT_EQ(h.sink->packets()[0].back(), 5);
}

TEST(ControlProtocol, SetParamReconfiguresLive) {
  ControlHarness h;
  h.manager->insert({"dtag", {{"tag", "1"}}}, 0);
  h.manager->set_param(0, "tag", "2");
  util::Writer w;
  w.u32(0);
  h.source->push(w.take());
  ASSERT_TRUE(h.sink->wait_for(1));
  EXPECT_EQ(h.sink->packets()[0].back(), 2);
}

TEST(ControlProtocol, SetParamUnknownKeyReportsError) {
  ControlHarness h;
  h.manager->insert({"dtag", {{"tag", "1"}}}, 0);
  EXPECT_THROW(h.manager->set_param(0, "bogus", "1"), ControlError);
}

TEST(ControlProtocol, FindReturnsFirstPositionOrNothing) {
  ControlHarness h;
  EXPECT_EQ(h.manager->find("dtag"), std::nullopt);  // empty chain
  h.manager->insert({"null", {}}, 0);
  h.manager->insert({"dtag", {{"tag", "1"}}}, 1);
  h.manager->insert({"dtag", {{"tag", "2"}}}, 2);
  EXPECT_EQ(h.manager->find("null"), std::optional<std::size_t>{0});
  EXPECT_EQ(h.manager->find("dtag"), std::optional<std::size_t>{1})
      << "the first of two matches";
  EXPECT_EQ(h.manager->find("fec-encode"), std::nullopt);
}

TEST(ControlProtocol, ReorderViaManager) {
  ControlHarness h;
  h.manager->insert({"dtag", {{"tag", "1"}}}, 0);
  h.manager->insert({"dtag", {{"tag", "2"}}}, 1);
  h.manager->reorder(0, 1);
  auto infos = h.manager->list_chain();
  EXPECT_EQ(infos[0].description, "dtag(2)");
  EXPECT_EQ(infos[1].description, "dtag(1)");
}

TEST(ControlProtocol, UploadThenInsertByAlias) {
  ControlHarness h;
  // "Third-party" filter definition uploaded at run time, then instantiated
  // by its uploaded name — the paper's dynamic-upload scenario.
  h.manager->upload("lowband-filter", {"dtag", {{"tag", "8"}}});
  const auto names = h.manager->list_available();
  EXPECT_NE(std::find(names.begin(), names.end(), "lowband-filter"),
            names.end());

  h.manager->insert({"lowband-filter", {}}, 0);
  util::Writer w;
  w.u32(0);
  h.source->push(w.take());
  ASSERT_TRUE(h.sink->wait_for(1));
  EXPECT_EQ(h.sink->packets()[0].back(), 8);
}

TEST(ControlProtocol, InsertUnknownFilterReportsError) {
  ControlHarness h;
  EXPECT_THROW(h.manager->insert({"no-such-filter", {}}, 0), ControlError);
}

TEST(ControlProtocol, RemoveOutOfRangeReportsError) {
  ControlHarness h;
  EXPECT_THROW(h.manager->remove(3), ControlError);
}

TEST(ControlProtocol, MalformedRequestReportsError) {
  ControlHarness h;
  const Bytes junk = util::to_bytes("\xff\x00garbage");
  const Bytes response = h.server->handle(junk);
  util::Reader r(response);
  EXPECT_EQ(r.u8(), 0);  // error status
}

TEST(ControlProtocol, RenderChainShowsPipeline) {
  ControlHarness h;
  h.manager->insert({"dtag", {{"tag", "3"}}}, 0);
  EXPECT_EQ(h.manager->render_chain("wired-rx", "wireless-tx"),
            "[wired-rx] -> dtag(3) -> [wireless-tx]");
}

// ---------------------------------------------------------------------------
// STATS (protocol v2)

TEST(ControlProtocol, StatsLeadsWithProtocolVersion) {
  ControlHarness h;
  const std::string text = h.manager->stats_text();
  EXPECT_EQ(text.rfind("proto_version=" +
                           std::to_string(kControlProtocolVersion) + "\n",
                       0),
            0u)
      << text;
}

TEST(ControlProtocol, StatsRoundTripMatchesDelivery) {
  ControlHarness h;
  h.manager->insert({"dtag", {{"tag", "7"}}}, 0);
  util::Writer w;
  w.u32(1);
  for (int i = 0; i < 6; ++i) h.source->push(w.bytes());
  ASSERT_TRUE(h.sink->wait_for(6));

  const auto entries = h.manager->stats();
  auto value = [&](const std::string& name) -> std::string {
    for (const auto& [k, v] : entries) {
      if (k == name) return v;
    }
    return "<missing: " + name + ">";
  };
  // The tail endpoint's packet count must agree with the sink the test
  // observes directly — STATS is a faithful view, not a parallel ledger.
  EXPECT_EQ(value("test/chain/out/packets_out"),
            std::to_string(h.sink->count()));
#if RW_OBS_ENABLED
  EXPECT_EQ(value("test/chain/dtag/packets_in"), "6");
  EXPECT_EQ(value("test/chain/dtag/packets_out"), "6");
  EXPECT_EQ(value("test/chain/inserts"), "1");
#endif
}

TEST(ControlProtocol, StatsScopePrefixFilters) {
  ControlHarness h;
  h.metrics.counter("other/unrelated")->add();
  const auto all = h.manager->stats();
  const auto scoped = h.manager->stats("test/chain");
  EXPECT_LT(scoped.size(), all.size());
  for (const auto& [k, v] : scoped) {
    if (k == "proto_version") continue;  // always the first line
    EXPECT_EQ(k.rfind("test/chain", 0), 0u) << k;
  }
  // An unmatched prefix yields just the version line.
  const auto none = h.manager->stats("no/such/scope");
  ASSERT_EQ(none.size(), 1u);
  EXPECT_EQ(none[0].first, "proto_version");
}

TEST(ControlProtocol, UnknownOpReportsTypedError) {
  // The compat rule: ops outside the known range must answer with the
  // "unknown control op" error, never crash or misparse.
  ControlHarness h;
  util::Writer w;
  w.u8(0x7f);
  const Bytes response = h.server->handle(w.bytes());
  util::Reader r(response);
  EXPECT_EQ(r.u8(), 0);
  EXPECT_NE(r.str().find("unknown control op"), std::string::npos);
}

TEST(ControlProtocol, LocalFactoryHelper) {
  ControlHarness h;
  auto manager = ControlManager::local(h.server);
  EXPECT_NO_THROW(manager.list_chain());
}

}  // namespace
}  // namespace rapidware::core
