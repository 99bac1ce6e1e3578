// Tests for the per-flow classification stack: ChainSpec + the flyweight
// FilterSpecTable, FlowClassifier rule precedence, control protocol v3
// (RULE_ADD / RULE_DEL / RULE_LIST), and the proxy FlowTable — including
// live rule-swap byte-exactness under a seeded concurrent schedule.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <map>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "core/control.h"
#include "core/endpoint.h"
#include "core/filter_spec.h"
#include "core/flow_classifier.h"
#include "core/worker_pool.h"
#include "filters/registry.h"
#include "proxy/flow_table.h"
#include "testing/sequence_stream.h"
#include "util/rng.h"
#include "util/serial.h"

namespace rapidware {
namespace {

using core::ChainSpec;
using core::ChainSpecRef;
using core::FilterSpecTable;
using core::FlowClassifier;
using core::FlowKey;
using core::FlowRule;
using core::LossRegime;

ChainSpec make_spec(std::string name,
                    std::vector<core::FilterSpec> stages = {}) {
  ChainSpec spec;
  spec.name = std::move(name);
  spec.stages = std::move(stages);
  return spec;
}

FlowRule make_rule(std::string name, std::uint32_t priority, ChainSpec chain) {
  FlowRule rule;
  rule.name = std::move(name);
  rule.priority = priority;
  rule.chain = std::move(chain);
  return rule;
}

// ---------------------------------------------------------------------------
// ChainSpec + FilterSpecTable

TEST(ChainSpec, SerializationRoundTrips) {
  const ChainSpec spec = make_spec(
      "fec-heavy", {{"fec-encode", {{"n", "8"}, {"k", "4"}}},
                    {"interleave", {{"rows", "4"}, {"depth", "4"}}}});
  EXPECT_EQ(ChainSpec::deserialize(spec.serialize()), spec);
  EXPECT_EQ(ChainSpec::deserialize(make_spec("passthrough").serialize()),
            make_spec("passthrough"));
}

TEST(ChainSpec, CorruptBlobThrows) {
  EXPECT_THROW(ChainSpec::deserialize(util::to_bytes("z")), util::SerialError);
}

TEST(FilterSpecTable, InternIsFlyweight) {
  FilterSpecTable table;
  // Two structurally equal specs built independently share ONE object.
  const ChainSpecRef a =
      table.intern(make_spec("light", {{"fec-encode", {{"n", "6"}}}}));
  const ChainSpecRef b =
      table.intern(make_spec("light", {{"fec-encode", {{"n", "6"}}}}));
  EXPECT_EQ(a.get(), b.get());
  EXPECT_EQ(table.size(), 1u);
  EXPECT_EQ(table.hits(), 1u);
  EXPECT_EQ(table.misses(), 1u);

  // Any structural difference (name, stage order, params) is a new entry.
  const ChainSpecRef c =
      table.intern(make_spec("light", {{"fec-encode", {{"n", "8"}}}}));
  EXPECT_NE(a.get(), c.get());
  EXPECT_EQ(table.size(), 2u);
}

TEST(FilterSpecTable, PurgeDropsOnlyUnreferenced) {
  FilterSpecTable table;
  ChainSpecRef held = table.intern(make_spec("held"));
  table.intern(make_spec("dropped"));  // ref discarded immediately
  EXPECT_EQ(table.size(), 2u);
  EXPECT_EQ(table.purge_unreferenced(), 1u);
  EXPECT_EQ(table.size(), 1u);
  // The held spec survives and re-interning still hits it.
  EXPECT_EQ(table.intern(make_spec("held")).get(), held.get());
}

TEST(FilterSpecTable, InstantiateChainBuildsStagesInOrder) {
  core::FilterRegistry registry;
  filters::register_builtin_filters(registry);
  const ChainSpec spec = make_spec(
      "fec-light",
      {{"fec-encode", {{"n", "6"}, {"k", "4"}}}, {"fec-decode", {}}});
  const auto filters = core::instantiate_chain(spec, registry);
  ASSERT_EQ(filters.size(), 2u);
  EXPECT_EQ(filters[0]->name(), "fec-encode");
  EXPECT_EQ(filters[1]->name(), "fec-decode");
  EXPECT_THROW(
      core::instantiate_chain(make_spec("x", {{"no-such-filter", {}}}),
                              registry),
      std::out_of_range);
}

// ---------------------------------------------------------------------------
// FlowRule matching + serialization

TEST(FlowRule, WildcardsAndRanges) {
  FlowRule rule = make_rule("r", 10, make_spec("s"));
  // All fields unset: matches everything.
  EXPECT_TRUE(rule.matches({7, "audio", LossRegime::kSevere}));

  rule.station_lo = 5;
  rule.station_hi = 9;
  rule.stream_type = "audio";
  rule.regime = LossRegime::kSevere;
  EXPECT_TRUE(rule.matches({7, "audio", LossRegime::kSevere}));
  EXPECT_FALSE(rule.matches({4, "audio", LossRegime::kSevere}));   // below lo
  EXPECT_FALSE(rule.matches({10, "audio", LossRegime::kSevere}));  // above hi
  EXPECT_FALSE(rule.matches({7, "video", LossRegime::kSevere}));
  EXPECT_FALSE(rule.matches({7, "audio", LossRegime::kClean}));
}

TEST(FlowRule, SerializationRoundTripsAllFieldCombinations) {
  FlowRule rule = make_rule("full", 7, make_spec("s", {{"null", {}}}));
  EXPECT_EQ(FlowRule::deserialize(rule.serialize()), rule);  // all wildcards
  rule.station_lo = 1;
  rule.station_hi = 99;
  rule.stream_type = "video";
  rule.regime = LossRegime::kDegraded;
  EXPECT_EQ(FlowRule::deserialize(rule.serialize()), rule);
}

TEST(FlowRule, BadRegimeOnTheWireThrows) {
  FlowRule rule = make_rule("r", 1, make_spec("s"));
  rule.regime = LossRegime::kSevere;
  util::Bytes wire = rule.serialize();
  // The regime byte is the last byte before the chain blob; corrupt it.
  const util::Bytes chain_blob = rule.chain.serialize();
  wire[wire.size() - chain_blob.size() - 4 - 1] = 9;
  EXPECT_THROW(FlowRule::deserialize(wire), util::SerialError);
}

// ---------------------------------------------------------------------------
// FlowClassifier precedence + flyweight resolution

TEST(FlowClassifier, FirstMatchByPriorityThenInsertion) {
  FilterSpecTable table;
  FlowClassifier clf(&table);
  FlowRule low = make_rule("low", 50, make_spec("low"));
  FlowRule high = make_rule("high", 10, make_spec("high"));
  FlowRule tie_a = make_rule("tie-a", 20, make_spec("tie-a"));
  FlowRule tie_b = make_rule("tie-b", 20, make_spec("tie-b"));
  clf.add_rule(low);
  clf.add_rule(tie_a);
  clf.add_rule(tie_b);
  clf.add_rule(high);

  // Everything matches every key (all wildcards): order decides.
  EXPECT_EQ(clf.resolve({})->name, "high");
  const auto rules = clf.rules();
  ASSERT_EQ(rules.size(), 4u);
  EXPECT_EQ(rules[0].name, "high");
  EXPECT_EQ(rules[1].name, "tie-a");  // same priority: insertion order
  EXPECT_EQ(rules[2].name, "tie-b");
  EXPECT_EQ(rules[3].name, "low");

  // Removing the winner falls through to the tie pair.
  EXPECT_TRUE(clf.remove_rule("high"));
  EXPECT_EQ(clf.resolve({})->name, "tie-a");
  EXPECT_FALSE(clf.remove_rule("high"));
}

TEST(FlowClassifier, ReplaceKeepsInsertionOrderForTies) {
  FlowClassifier clf;
  clf.add_rule(make_rule("a", 20, make_spec("a1")));
  clf.add_rule(make_rule("b", 20, make_spec("b1")));
  // Re-adding "a" with a new chain must NOT move it behind "b".
  clf.add_rule(make_rule("a", 20, make_spec("a2")));
  EXPECT_EQ(clf.resolve({})->name, "a2");
}

TEST(FlowClassifier, FallbackAndHitLedgers) {
  FilterSpecTable table;
  FlowClassifier clf(&table);
  EXPECT_EQ(clf.resolve({})->name, "passthrough");  // default fallback
  EXPECT_EQ(clf.fallback_hits(), 1u);

  FlowRule audio = make_rule("audio-only", 10, make_spec("a"));
  audio.stream_type = "audio";
  clf.add_rule(audio);
  const std::uint64_t v = clf.version();
  clf.resolve({1, "audio", LossRegime::kClean});
  clf.resolve({2, "audio", LossRegime::kClean});
  clf.resolve({3, "video", LossRegime::kClean});
  EXPECT_EQ(clf.hits("audio-only"), 2u);
  EXPECT_EQ(clf.fallback_hits(), 2u);
  EXPECT_EQ(clf.version(), v);  // resolve never bumps the table version

  clf.set_fallback(make_spec("default-compress", {{"null", {}}}));
  EXPECT_GT(clf.version(), v);
  EXPECT_EQ(clf.resolve({3, "video", LossRegime::kClean})->name,
            "default-compress");
}

TEST(FlowClassifier, TenThousandFlowsShareSixteenSpecs) {
  // The flyweight contract at the acceptance-criteria scale: 10,000 flows
  // resolved from 16 rules hold at most 16 distinct ChainSpec objects, and
  // equal resolutions are pointer-identical.
  FilterSpecTable table;
  FlowClassifier clf(&table);
  constexpr std::uint32_t kRules = 16;
  constexpr std::uint32_t kFlows = 10'000;
  for (std::uint32_t r = 0; r < kRules; ++r) {
    FlowRule rule = make_rule(
        "band-" + std::to_string(r), 10 + r,
        make_spec("chain-" + std::to_string(r),
                  {{"fec-encode", {{"n", std::to_string(4 + r)}}}}));
    // Each rule takes one 1/16th slice of the station space.
    rule.station_lo = r * (kFlows / kRules);
    rule.station_hi = (r + 1) * (kFlows / kRules) - 1;
    clf.add_rule(rule);
  }

  std::set<const ChainSpec*> distinct;
  std::vector<ChainSpecRef> held;
  held.reserve(kFlows);
  for (std::uint32_t f = 0; f < kFlows; ++f) {
    held.push_back(clf.resolve({f, "audio", LossRegime::kClean}));
    distinct.insert(held.back().get());
  }
  EXPECT_LE(distinct.size(), kRules);
  EXPECT_LE(table.size(), kRules + 1);  // + interned fallback
  // Pointer identity: two flows in the same band share the object.
  EXPECT_EQ(held[0].get(), held[1].get());
  EXPECT_NE(held[0].get(), held[kFlows - 1].get());
}

// ---------------------------------------------------------------------------
// Control protocol v3

TEST(ControlV3, RuleRoundTripOverControlManager) {
  auto chain = std::make_shared<core::FilterChain>(
      std::make_shared<core::NullFilter>(),
      std::make_shared<core::NullFilter>());
  core::FilterRegistry registry;
  auto server = std::make_shared<core::ControlServer>(chain, &registry);

  FilterSpecTable table;
  FlowClassifier clf(&table);
  server->set_classifier(&clf);
  int hook_calls = 0;
  server->on_rules_changed([&] { ++hook_calls; });

  core::ControlManager manager = core::ControlManager::local(server);
  FlowRule rule = make_rule("lossy-audio", 20,
                            make_spec("fec-light", {{"fec-encode", {}}}));
  rule.stream_type = "audio";
  rule.regime = LossRegime::kDegraded;
  manager.rule_add(rule);
  EXPECT_EQ(hook_calls, 1);

  const auto rules = manager.rule_list();
  ASSERT_EQ(rules.size(), 1u);
  EXPECT_EQ(rules[0], rule);  // byte-exact round trip through the wire

  manager.rule_del("lossy-audio");
  EXPECT_EQ(hook_calls, 2);
  EXPECT_TRUE(manager.rule_list().empty());
  EXPECT_THROW(manager.rule_del("lossy-audio"), core::ControlError);
  EXPECT_EQ(hook_calls, 2);  // failed ops must not fire the hook
}

TEST(ControlV3, ServerWithoutClassifierDegradesCleanly) {
  auto chain = std::make_shared<core::FilterChain>(
      std::make_shared<core::NullFilter>(),
      std::make_shared<core::NullFilter>());
  core::FilterRegistry registry;
  core::ControlManager manager = core::ControlManager::local(
      std::make_shared<core::ControlServer>(chain, &registry));
  EXPECT_THROW(manager.rule_list(), core::ControlError);
  EXPECT_THROW(manager.rule_add(make_rule("r", 1, make_spec("s"))),
               core::ControlError);
}

// ---------------------------------------------------------------------------
// FlowTable

/// Registry with identity-composable chains for byte-exactness tests.
core::FilterRegistry& test_registry() {
  static core::FilterRegistry* reg = [] {
    auto* r = new core::FilterRegistry();
    filters::register_builtin_filters(*r);
    return r;
  }();
  return *reg;
}

struct FlowHarness {
  FilterSpecTable table;
  FlowClassifier clf{&table};
  std::map<std::uint32_t, std::shared_ptr<core::CollectingPacketSink>> sinks;

  /// With a pool, every flow's chain is hosted whole on its shard's worker
  /// and the per-worker idle sweep runs (docs/data_plane.md).
  proxy::FlowTable make_table(
      core::WorkerPool* pool = nullptr,
      std::uint64_t idle_timeout_ms = proxy::FlowTable::kDefaultIdleTimeoutMs) {
    return proxy::FlowTable(
        clf, test_registry(),
        [this](const FlowKey& key) {
          proxy::FlowTable::Endpoints eps;
          eps.source = std::make_shared<core::QueuePacketSource>();
          eps.head = std::make_shared<core::PacketReaderEndpoint>("rx",
                                                                  eps.source);
          eps.tail = std::make_shared<core::PacketWriterEndpoint>(
              "tx", sinks.at(key.station));
          return eps;
        },
        pool, idle_timeout_ms);
  }
};

/// Polls `pred` until true or `timeout`: the worker-hosted table is
/// asynchronous (sweeps and final drives run on the pool), so tests wait
/// on observable state.
template <typename Pred>
bool eventually(Pred pred, std::chrono::milliseconds timeout =
                               std::chrono::milliseconds(5000)) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (!pred()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

TEST(FlowTable, AcquireInstantiatesFromResolvedSpecOnce) {
  FlowHarness h;
  h.sinks[1] = std::make_shared<core::CollectingPacketSink>();
  h.clf.add_rule(make_rule(
      "fec", 10, make_spec("fec-light", {{"fec-encode", {{"n", "6"}}},
                                         {"fec-decode", {}}})));
  proxy::FlowTable flows = h.make_table();

  const FlowKey key{1, "audio", LossRegime::kClean};
  EXPECT_EQ(flows.find(key), nullptr);
  auto chain = flows.acquire(key);
  ASSERT_NE(chain, nullptr);
  EXPECT_EQ(chain->names(),
            (std::vector<std::string>{"fec-encode", "fec-decode"}));
  EXPECT_EQ(flows.acquire(key), chain);  // idempotent
  EXPECT_EQ(flows.size(), 1u);
  EXPECT_EQ(flows.created(), 1u);
  // The flow holds the interned spec by pointer.
  EXPECT_EQ(flows.spec_of(key).get(), h.clf.resolve(key).get());
  flows.shutdown_all();
  EXPECT_EQ(flows.size(), 0u);
}

TEST(FlowTable, PushRoutesAndExpireDrainsByteExact) {
  FlowHarness h;
  h.sinks[3] = std::make_shared<core::CollectingPacketSink>();
  h.sinks[4] = std::make_shared<core::CollectingPacketSink>();
  proxy::FlowTable flows = h.make_table();  // empty table: fallback chains

  constexpr std::uint32_t kPackets = 200;
  constexpr std::uint64_t kSeed = 0xf00d;
  for (std::uint32_t i = 0; i < kPackets; ++i) {
    flows.push({3, "audio", LossRegime::kClean},
               testing::make_stamped_packet(kSeed + 3, i, 64));
    flows.push({4, "audio", LossRegime::kClean},
               testing::make_stamped_packet(kSeed + 4, i, 64));
  }
  EXPECT_EQ(flows.size(), 2u);
  EXPECT_TRUE(flows.expire({3, "audio", LossRegime::kClean}));
  EXPECT_TRUE(flows.expire({4, "audio", LossRegime::kClean}));
  EXPECT_FALSE(flows.expire({3, "audio", LossRegime::kClean}));
  EXPECT_EQ(flows.expired(), 2u);

  for (const std::uint32_t station : {3u, 4u}) {
    testing::PacketLedger ledger(kSeed + station, kPackets);
    for (const auto& p : h.sinks[station]->packets()) ledger.record(p);
    EXPECT_EQ(ledger.ok(), kPackets) << "station " << station;
    EXPECT_EQ(ledger.lost(), 0u);
    EXPECT_EQ(ledger.duplicates(), 0u);
    EXPECT_EQ(ledger.reordered(), 0u);
    EXPECT_EQ(ledger.corrupt(), 0u);
  }
}

TEST(FlowTable, ReresolveReconfiguresOnlyChangedFlows) {
  FlowHarness h;
  h.sinks[1] = std::make_shared<core::CollectingPacketSink>();
  h.sinks[2] = std::make_shared<core::CollectingPacketSink>();
  FlowRule severe = make_rule(
      "severe", 10, make_spec("fec", {{"fec-encode", {{"n", "6"}}},
                                      {"fec-decode", {}}}));
  severe.regime = LossRegime::kSevere;
  h.clf.add_rule(severe);
  proxy::FlowTable flows = h.make_table();

  const FlowKey clean{1, "audio", LossRegime::kClean};    // -> fallback
  const FlowKey lossy{2, "audio", LossRegime::kSevere};   // -> fec
  flows.acquire(clean);
  flows.acquire(lossy);

  // No table change: reresolve is a no-op (pointer-equal specs).
  EXPECT_EQ(flows.reresolve(), 0u);

  // Retune the severe rule: only the severe flow reconfigures.
  severe.chain = make_spec("fec2", {{"fec-encode", {{"n", "8"}}},
                                    {"fec-decode", {}}});
  h.clf.add_rule(severe);
  EXPECT_EQ(flows.reresolve(), 1u);
  EXPECT_EQ(flows.reconfigured(), 1u);
  EXPECT_EQ(flows.spec_of(lossy)->name, "fec2");
  EXPECT_EQ(flows.spec_of(clean)->name, "passthrough");
}

TEST(FlowTable, LiveRuleSwapIsByteExactUnderStress) {
  // The PR's core byte-exactness claim: while packets stream through four
  // flows, a control thread keeps replacing the rule table (passthrough <->
  // one-null <-> two-null chains — all end-to-end identity) and re-resolving
  // the live flows. Every packet must come out exactly once, in order,
  // unmodified. The schedule is seeded and deterministic; thread
  // interleaving is the randomness.
  FlowHarness h;
  constexpr std::uint32_t kFlows = 4;
  constexpr std::uint32_t kPackets = 1500;
  constexpr std::uint64_t kSeed = 0x5eed0123;
  for (std::uint32_t f = 0; f < kFlows; ++f) {
    h.sinks[f] = std::make_shared<core::CollectingPacketSink>();
  }
  proxy::FlowTable flows = h.make_table();

  std::atomic<bool> done{false};
  std::thread control([&] {
    util::Rng rng(kSeed);
    const std::vector<ChainSpec> variants = {
        make_spec("passthrough"),
        make_spec("one-null", {{"null", {}}}),
        make_spec("two-null", {{"null", {}}, {"null", {}}})};
    while (!done.load()) {
      FlowRule rule = make_rule(
          "shape", 10,
          variants[rng.next_below(variants.size())]);
      h.clf.add_rule(std::move(rule));   // replace in place
      flows.reresolve();                 // what the proxy hook does
      if (rng.next_below(8) == 0) {
        h.clf.remove_rule("shape");      // fall back to passthrough
        flows.reresolve();
      }
      std::this_thread::yield();
    }
  });

  for (std::uint32_t i = 0; i < kPackets; ++i) {
    for (std::uint32_t f = 0; f < kFlows; ++f) {
      flows.push({f, "audio", LossRegime::kClean},
                 testing::make_stamped_packet(kSeed + f, i, 48));
    }
  }
  done.store(true);
  control.join();
  for (std::uint32_t f = 0; f < kFlows; ++f) {
    ASSERT_TRUE(flows.expire({f, "audio", LossRegime::kClean}));
  }

  for (std::uint32_t f = 0; f < kFlows; ++f) {
    testing::PacketLedger ledger(kSeed + f, kPackets);
    for (const auto& p : h.sinks[f]->packets()) ledger.record(p);
    EXPECT_EQ(ledger.ok(), kPackets) << "flow " << f;
    EXPECT_EQ(ledger.lost(), 0u) << "flow " << f;
    EXPECT_EQ(ledger.duplicates(), 0u) << "flow " << f;
    EXPECT_EQ(ledger.reordered(), 0u) << "flow " << f;
    EXPECT_EQ(ledger.corrupt(), 0u) << "flow " << f;
  }
}

TEST(FlowTable, PoolHostedLiveRuleSwapIsByteExact) {
  // The LiveRuleSwap schedule with the table sharded over a WorkerPool:
  // every flow's chain runs as multiplexed on_ready() drives on its
  // shard's worker while the control thread swaps rules and re-resolves.
  // The in-place reconfigure protocol must hold byte-exactness under
  // event dispatch exactly as it does under thread-per-filter.
  FlowHarness h;
  constexpr std::uint32_t kFlows = 4;
  constexpr std::uint32_t kPackets = 1500;
  constexpr std::uint64_t kSeed = 0x5eed4567;
  for (std::uint32_t f = 0; f < kFlows; ++f) {
    h.sinks[f] = std::make_shared<core::CollectingPacketSink>();
  }
  core::WorkerPool pool(2);
  {
    // No idle eviction here: the control schedule owns flow lifetime.
    proxy::FlowTable flows = h.make_table(&pool, /*idle_timeout_ms=*/0);
    EXPECT_EQ(flows.pool(), &pool);

    std::atomic<bool> done{false};
    std::thread control([&] {
      util::Rng rng(kSeed);
      const std::vector<ChainSpec> variants = {
          make_spec("passthrough"),
          make_spec("one-null", {{"null", {}}}),
          make_spec("two-null", {{"null", {}}, {"null", {}}})};
      while (!done.load()) {
        FlowRule rule = make_rule(
            "shape", 10, variants[rng.next_below(variants.size())]);
        h.clf.add_rule(std::move(rule));
        flows.reresolve();
        if (rng.next_below(8) == 0) {
          h.clf.remove_rule("shape");
          flows.reresolve();
        }
        std::this_thread::yield();
      }
    });

    for (std::uint32_t i = 0; i < kPackets; ++i) {
      for (std::uint32_t f = 0; f < kFlows; ++f) {
        flows.push({f, "audio", LossRegime::kClean},
                   testing::make_stamped_packet(kSeed + f, i, 48));
      }
    }
    done.store(true);
    control.join();
    for (std::uint32_t f = 0; f < kFlows; ++f) {
      ASSERT_TRUE(flows.expire({f, "audio", LossRegime::kClean}));
    }

    for (std::uint32_t f = 0; f < kFlows; ++f) {
      testing::PacketLedger ledger(kSeed + f, kPackets);
      for (const auto& p : h.sinks[f]->packets()) ledger.record(p);
      EXPECT_EQ(ledger.ok(), kPackets) << "flow " << f;
      EXPECT_EQ(ledger.lost(), 0u) << "flow " << f;
      EXPECT_EQ(ledger.duplicates(), 0u) << "flow " << f;
      EXPECT_EQ(ledger.reordered(), 0u) << "flow " << f;
      EXPECT_EQ(ledger.corrupt(), 0u) << "flow " << f;
    }
  }
  pool.stop();
}

TEST(FlowTable, IdleRingsHoldNoStorage) {
  // The per-flow footprint: 1 024 passthrough flows on a 2-worker pool.
  // Before any packet no stage holds ring storage. One 333-byte packet per
  // flow allocates only the tail's first 4 KiB; the head endpoint's ring,
  // which nothing writes, stays empty.
  FlowHarness h;
  constexpr std::uint32_t kFlows = 1024;
  constexpr std::uint64_t kSeed = 0x5e7f;
  for (std::uint32_t f = 0; f < kFlows; ++f) {
    h.sinks[f] = std::make_shared<core::CollectingPacketSink>();
  }
  core::WorkerPool pool(2);
  {
    proxy::FlowTable flows = h.make_table(&pool);
    std::vector<std::shared_ptr<core::FilterChain>> chains;
    for (std::uint32_t f = 0; f < kFlows; ++f) {
      chains.push_back(flows.acquire({f, "audio", LossRegime::kClean}));
    }
    for (const auto& chain : chains) {
      ASSERT_EQ(chain->size(), 0u);  // passthrough: head -> tail
      EXPECT_EQ(chain->head().dis().ring_bytes(), 0u);
      EXPECT_EQ(chain->tail().dis().ring_bytes(), 0u);
    }

    for (std::uint32_t f = 0; f < kFlows; ++f) {
      flows.push({f, "audio", LossRegime::kClean},
                 testing::make_stamped_packet(kSeed + f, 0, 333));
    }
    for (std::uint32_t f = 0; f < kFlows; ++f) {
      ASSERT_TRUE(h.sinks[f]->wait_for(1)) << "flow " << f;
    }
    for (const auto& chain : chains) {
      EXPECT_EQ(chain->head().dis().ring_bytes(), 0u);
      EXPECT_GT(chain->tail().dis().ring_bytes(), 0u);
      EXPECT_LE(chain->tail().dis().ring_bytes(), 4096u);
    }
    chains.clear();
    flows.shutdown_all();
  }
  pool.stop();
}

TEST(FlowTable, IdleFlowsAreEvictedByTheWorkerSweep) {
  // Three flows go quiet after delivering their packets: the per-worker
  // sweep must evict all of them (two quiet sweeps at timeout/2 each),
  // reap the drained chains, and count them in flows_evicted() — without
  // losing a packet that was delivered before the flows went idle.
  FlowHarness h;
  constexpr std::uint32_t kPackets = 50;
  constexpr std::uint64_t kSeed = 0xe71c7;
  for (std::uint32_t f = 0; f < 3; ++f) {
    h.sinks[f] = std::make_shared<core::CollectingPacketSink>();
  }
  core::WorkerPool pool(2);
  {
    proxy::FlowTable flows = h.make_table(&pool, /*idle_timeout_ms=*/100);
    for (std::uint32_t i = 0; i < kPackets; ++i) {
      for (std::uint32_t f = 0; f < 3; ++f) {
        flows.push({f, "audio", LossRegime::kClean},
                   testing::make_stamped_packet(kSeed + f, i, 64));
      }
    }
    for (std::uint32_t f = 0; f < 3; ++f) {
      ASSERT_TRUE(h.sinks[f]->wait_for(kPackets));
    }

    EXPECT_TRUE(eventually([&] { return flows.size() == 0; }));
    EXPECT_TRUE(eventually([&] { return flows.flows_evicted() == 3; }));
    EXPECT_EQ(flows.expired(), 0u);  // eviction is counted separately

    for (std::uint32_t f = 0; f < 3; ++f) {
      testing::PacketLedger ledger(kSeed + f, kPackets);
      for (const auto& p : h.sinks[f]->packets()) ledger.record(p);
      EXPECT_EQ(ledger.ok(), kPackets) << "flow " << f;
      EXPECT_EQ(ledger.lost(), 0u) << "flow " << f;
    }
  }
  pool.stop();
}

TEST(FlowTable, ActiveFlowsSurviveTheIdleSweep) {
  // Activity (push) must reset the idle clock: a flow that keeps receiving
  // outlives many sweep periods while its silent sibling is evicted.
  FlowHarness h;
  h.sinks[1] = std::make_shared<core::CollectingPacketSink>();
  h.sinks[2] = std::make_shared<core::CollectingPacketSink>();
  core::WorkerPool pool(1);  // one shard: both flows share the sweep timer
  {
    proxy::FlowTable flows = h.make_table(&pool, /*idle_timeout_ms=*/100);
    const FlowKey active{1, "audio", LossRegime::kClean};
    const FlowKey idle{2, "audio", LossRegime::kClean};
    flows.push(idle, testing::make_stamped_packet(0xabc, 0, 64));

    // Keep the active flow warm for ~6 sweep periods.
    std::uint32_t seq = 0;
    const auto until =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(600);
    while (std::chrono::steady_clock::now() < until) {
      flows.push(active, testing::make_stamped_packet(0xdef, seq++, 64));
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }

    EXPECT_TRUE(eventually([&] { return flows.flows_evicted() >= 1; }));
    EXPECT_EQ(flows.find(idle), nullptr);
    EXPECT_NE(flows.find(active), nullptr);
    EXPECT_EQ(flows.size(), 1u);
    ASSERT_TRUE(flows.expire(active));
    EXPECT_TRUE(h.sinks[1]->wait_end());
  }
  pool.stop();
}

// ---------------------------------------------------------------------------
// Rule changes splice outside the shard lock

/// A one-stage rule that throttles station 1's flows to 40 000 B/s.
FlowRule throttle_rule() {
  FlowRule rule = make_rule(
      "slow", 10,
      make_spec("throttled", {{"throttle", {{"bytes_per_sec", "40000"}}}}));
  rule.station_lo = 1;
  rule.station_hi = 1;
  return rule;
}

/// Waits until the throttle heading `chain` holds a backlog of over a
/// second in its input ring.
void wait_for_backlog(core::FilterChain& chain) {
  ASSERT_TRUE(
      eventually([&] { return chain.at(0)->dis().available() > 50'000; }));
}

TEST(FlowTable, PushToAnotherFlowCompletesWhileReresolveSplices) {
  // A rule change that removes a throttle from one flow must wait for the
  // throttle's backlog to flush, but never make a push to another flow of
  // the same shard wait with it: reresolve() splices outside the lock
  // push() takes for its lookup.
  FlowHarness h;
  h.sinks[1] = std::make_shared<core::CollectingPacketSink>();
  h.sinks[2] = std::make_shared<core::CollectingPacketSink>();
  constexpr std::uint32_t kPackets = 200;
  constexpr std::uint64_t kSeed = 0x5b11;
  core::WorkerPool pool(1);  // one shard: both flows share its lock
  {
    proxy::FlowTable flows = h.make_table(&pool, /*idle_timeout_ms=*/0);
    const FlowKey slow{1, "audio", LossRegime::kClean};
    const FlowKey other{2, "audio", LossRegime::kClean};
    flows.acquire(other);  // passthrough
    h.clf.add_rule(throttle_rule());
    for (std::uint32_t i = 0; i < kPackets; ++i) {
      flows.push(slow, testing::make_stamped_packet(kSeed, i, 1000));
    }
    const auto chain = flows.find(slow);
    wait_for_backlog(*chain);
    const auto throttle = chain->at(0);

    h.clf.remove_rule("slow");  // flow 1 back to passthrough
    std::size_t changed = 0;
    std::thread control([&] { changed = flows.reresolve(); });
    // The splice has begun once it paused the head.
    EXPECT_TRUE(eventually([&] { return chain->head().dos().pauses() > 0; }));
    const auto t0 = std::chrono::steady_clock::now();
    flows.push(other, testing::make_stamped_packet(kSeed + 2, 0, 64));
    const auto took = std::chrono::steady_clock::now() - t0;
    throttle->set_param("bytes_per_sec", "1e9");  // let its flush finish
    control.join();
    EXPECT_LT(took, std::chrono::milliseconds(200))
        << "the push waited behind the splice";
    EXPECT_EQ(changed, 1u);
    EXPECT_EQ(flows.spec_of(slow)->name, "passthrough");

    ASSERT_TRUE(flows.expire(slow));
    ASSERT_TRUE(flows.expire(other));
    testing::PacketLedger ledger(kSeed, kPackets);
    for (const auto& p : h.sinks[1]->packets()) ledger.record(p);
    EXPECT_EQ(ledger.ok(), kPackets);
    EXPECT_EQ(ledger.reordered(), 0u);
    EXPECT_EQ(h.sinks[2]->count(), 1u);
  }
  pool.stop();
}

TEST(FlowTable, ARuleChangeDuringASpliceStillReachesThePinnedFlow) {
  // A rule change lands while reresolve() is slowly removing a throttle.
  // The second reresolve() passes over the pinned flow, so the first one
  // must go again: the flow ends on the newest spec, every packet intact.
  FlowHarness h;
  h.sinks[1] = std::make_shared<core::CollectingPacketSink>();
  constexpr std::uint32_t kPackets = 200;
  constexpr std::uint64_t kSeed = 0x5ec0;
  core::WorkerPool pool(1);
  {
    proxy::FlowTable flows = h.make_table(&pool, /*idle_timeout_ms=*/0);
    const FlowKey key{1, "audio", LossRegime::kClean};
    h.clf.add_rule(throttle_rule());
    for (std::uint32_t i = 0; i < kPackets; ++i) {
      flows.push(key, testing::make_stamped_packet(kSeed, i, 1000));
    }
    const auto chain = flows.find(key);
    wait_for_backlog(*chain);
    const auto throttle = chain->at(0);

    h.clf.remove_rule("slow");
    std::size_t first = 0;
    std::thread control([&] { first = flows.reresolve(); });
    EXPECT_TRUE(eventually([&] { return chain->head().dos().pauses() > 0; }));
    h.clf.add_rule(
        make_rule("shape", 20, make_spec("one-null", {{"null", {}}})));
    EXPECT_EQ(flows.reresolve(), 0u);  // the flow is pinned: passed over
    throttle->set_param("bytes_per_sec", "1e9");  // let its flush finish
    control.join();
    EXPECT_EQ(first, 2u);  // onto passthrough, then onto one-null
    EXPECT_EQ(flows.spec_of(key)->name, "one-null");
    EXPECT_EQ(chain->names(), std::vector<std::string>{"null"});

    ASSERT_TRUE(flows.expire(key));
    testing::PacketLedger ledger(kSeed, kPackets);
    for (const auto& p : h.sinks[1]->packets()) ledger.record(p);
    EXPECT_EQ(ledger.ok(), kPackets);
    EXPECT_EQ(ledger.reordered(), 0u);
  }
  pool.stop();
}

TEST(FlowTable, SlowReresolveRacesTheIdleSweep) {
  // The idle sweep runs on the shard's worker, and begin_shutdown() takes
  // the chain mutex, which a splice holds while it joins a stage that only
  // this worker can finish. A flow that goes quiet during a slow splice
  // must therefore be left alone by the sweep (it is pinned), and the
  // rule change must finish with every packet delivered.
  FlowHarness h;
  h.sinks[1] = std::make_shared<core::CollectingPacketSink>();
  constexpr std::uint64_t kSeed = 0x5eeb;
  core::WorkerPool pool(1);
  {
    proxy::FlowTable flows = h.make_table(&pool, /*idle_timeout_ms=*/20);
    const FlowKey key{1, "audio", LossRegime::kClean};
    h.clf.add_rule(throttle_rule());
    const auto chain = flows.acquire(key);

    // Keep the flow active (a push a millisecond) until the splice began,
    // so the sweep cannot evict it before the rule change reaches it.
    std::atomic<bool> splicing{false};
    std::atomic<std::uint32_t> pushed{0};
    std::thread feeder([&] {
      while (!splicing.load()) {
        flows.push(key, testing::make_stamped_packet(kSeed, pushed, 1000));
        ++pushed;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
    wait_for_backlog(*chain);

    h.clf.remove_rule("slow");
    auto done = std::make_shared<std::promise<std::size_t>>();
    std::future<std::size_t> changed = done->get_future();
    std::thread([&flows, done] { done->set_value(flows.reresolve()); })
        .detach();
    EXPECT_TRUE(eventually([&] { return chain->head().dos().pauses() > 0; }));
    splicing = true;
    feeder.join();
    // Bounded: a deadlocked splice cannot be unwound, so fail the process
    // rather than hang it.
    if (changed.wait_for(std::chrono::seconds(30)) !=
        std::future_status::ready) {
      std::fprintf(stderr, "reresolve() deadlocked against the idle sweep\n");
      std::_Exit(1);
    }
    EXPECT_EQ(changed.get(), 1u);

    const std::uint32_t total = pushed.load();
    ASSERT_TRUE(h.sinks[1]->wait_for(total, 20'000));
    testing::PacketLedger ledger(kSeed, total);
    for (const auto& p : h.sinks[1]->packets()) ledger.record(p);
    EXPECT_EQ(ledger.ok(), total);
    EXPECT_EQ(ledger.lost(), 0u);
    EXPECT_EQ(ledger.reordered(), 0u);
  }
  pool.stop();
}

/// Sink whose every delivery throws: it kills the writer endpoint.
class ThrowingSink final : public core::PacketSink {
 public:
  void deliver(util::ByteSpan) override {
    throw std::runtime_error("sink refused the packet");
  }
};

TEST(FlowTable, ReresolveGoesOnPastAFlowWhoseSpliceThrows) {
  // Flow 1's tail dies on its first packet, so splicing its chain throws.
  // The rule change must still reach flow 2, and count only it.
  FlowHarness h;
  auto sink2 = std::make_shared<core::CollectingPacketSink>();
  core::WorkerPool pool(1);
  {
    proxy::FlowTable flows(
        h.clf, test_registry(),
        [&](const FlowKey& key) {
          proxy::FlowTable::Endpoints eps;
          eps.source = std::make_shared<core::QueuePacketSource>();
          eps.head =
              std::make_shared<core::PacketReaderEndpoint>("rx", eps.source);
          std::shared_ptr<core::PacketSink> sink = sink2;
          if (key.station == 1) sink = std::make_shared<ThrowingSink>();
          eps.tail = std::make_shared<core::PacketWriterEndpoint>("tx", sink);
          return eps;
        },
        &pool, /*idle_timeout_ms=*/0);
    h.clf.add_rule(
        make_rule("shape", 10, make_spec("one-null", {{"null", {}}})));
    const FlowKey dead{1, "audio", LossRegime::kClean};
    const FlowKey live{2, "audio", LossRegime::kClean};
    flows.push(dead, testing::make_stamped_packet(1, 0, 64));
    flows.acquire(live);
    const auto dead_chain = flows.find(dead);
    ASSERT_TRUE(eventually([&] { return !dead_chain->tail().running(); }));

    h.clf.add_rule(make_rule(
        "shape", 10, make_spec("two-null", {{"null", {}}, {"null", {}}})));
    std::size_t changed = 0;
    EXPECT_NO_THROW(changed = flows.reresolve());
    EXPECT_EQ(changed, 1u);
    EXPECT_EQ(flows.reconfigured(), 1u);
    EXPECT_EQ(flows.spec_of(dead)->name, "one-null");
    EXPECT_EQ(flows.spec_of(live)->name, "two-null");
    EXPECT_EQ(flows.find(live)->size(), 2u);

    flows.push(live, testing::make_stamped_packet(2, 0, 64));
    ASSERT_TRUE(sink2->wait_for(1));
    EXPECT_EQ(sink2->packets()[0], testing::make_stamped_packet(2, 0, 64));
    flows.shutdown_all();
  }
  pool.stop();
}

}  // namespace
}  // namespace rapidware
