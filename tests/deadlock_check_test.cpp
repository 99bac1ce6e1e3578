// Tests for the runtime deadlock-freedom checker (src/util/deadlock.h),
// compiled only under -DRW_DEADLOCK_CHECK=ON (tests/CMakeLists.txt gates the
// target on the option).
//
// The death tests each build a small intentional violation — an ABBA cycle,
// a rank inversion, a same-rank pair, a reentrant acquire — and assert the
// process aborts with BOTH conflicting acquisition sites in the message,
// because an abort that names only one side sends the reader grepping. The
// stress test then proves the checker is safe and cheap in the steady
// state: concurrent threads hammering a ranked nest stay TSan-clean (the
// global graph mutex is only taken on first sight of an edge), and a
// chain-shaped workload with the checker enabled stays within 10% of the
// same workload with it disabled via the set_enabled() gate.
#include <gtest/gtest-death-test.h>
#include <gtest/gtest.h>

#include <cstdint>
#include <ctime>
#include <algorithm>
#include <thread>
#include <vector>

#include "util/lock_rank.h"
#include "util/mutex.h"

#if !defined(RW_DEADLOCK_CHECK) || !RW_DEADLOCK_CHECK
#error "deadlock_check_test requires -DRW_DEADLOCK_CHECK=ON"
#endif

#include "util/deadlock.h"

namespace rapidware {
namespace {

// Death tests fork the whole program fresh (threadsafe style, set in main
// below), so each child starts with an empty acquisition graph and the
// violations below cannot contaminate one another or the parent.

TEST(DeadlockCheckDeathTest, AbbaCycleAbortsWithBothSites) {
  // Unranked locks: only the order graph can catch these, which is the
  // point — rank discipline must not be a prerequisite for cycle detection.
  EXPECT_DEATH(([] {
        rw::Mutex a{"test/abba_a", rw::lockrank::kUnranked};
        rw::Mutex b{"test/abba_b", rw::lockrank::kUnranked};
        {
          rw::MutexLock la(a);
          rw::MutexLock lb(b);  // records test/abba_a -> test/abba_b
        }
        {
          rw::MutexLock lb(b);
          rw::MutexLock la(a);  // closes the cycle: aborts here
        }
      }()),
      "LOCK ORDER CYCLE.*test/abba_b.*test/abba_a");
}

TEST(DeadlockCheckDeathTest, RankInversionAbortsWithBothSites) {
  EXPECT_DEATH(([] {
        rw::Mutex low{"test/inv_low", 100};
        rw::Mutex high{"test/inv_high", 200};
        rw::MutexLock lh(high);
        rw::MutexLock ll(low);  // rank 100 while holding 200: aborts
      }()),
      "RANK INVERSION.*test/inv_low.*test/inv_high");
}

TEST(DeadlockCheckDeathTest, SameRankPairAborts) {
  // Two locks sharing a rank have no defined order between them; acquiring
  // one under the other is flagged as a tie rather than silently allowed.
  EXPECT_DEATH(([] {
        rw::Mutex first{"test/tie_first", 300};
        rw::Mutex second{"test/tie_second", 300};
        rw::MutexLock lf(first);
        rw::MutexLock ls(second);
      }()),
      "RANK TIE.*test/tie_second.*test/tie_first");
}

TEST(DeadlockCheckDeathTest, ReentrantAcquireAborts) {
  EXPECT_DEATH(([] {
        rw::Mutex mu{"test/reentrant", rw::lockrank::kUnranked};
        rw::MutexLock outer(mu);
        mu.lock();  // same thread, same mutex: guaranteed deadlock
      }()),
      "REENTRANT ACQUIRE.*test/reentrant");
}

// ---------------------------------------------------------------------------
// Non-fatal behaviour: bookkeeping, recorded edges, try_lock exemption.

TEST(DeadlockCheck, HeldCountTracksScopes) {
  rw::Mutex a{"test/held_a", 100};
  rw::Mutex b{"test/held_b", 200};
  EXPECT_EQ(rw::deadlock::held_count(), 0u);
  {
    rw::MutexLock la(a);
    EXPECT_EQ(rw::deadlock::held_count(), 1u);
    {
      rw::MutexLock lb(b);
      EXPECT_EQ(rw::deadlock::held_count(), 2u);
    }
    EXPECT_EQ(rw::deadlock::held_count(), 1u);
  }
  EXPECT_EQ(rw::deadlock::held_count(), 0u);
}

// A thread's checker state is a thread_local object, destroyed before the
// thread_local objects constructed ahead of it and, on the main thread,
// before every static destructor. A lock taken that late must be left
// unchecked, not recorded into freed storage (an ASan build of this test
// reports that use-after-free).
TEST(DeadlockCheck, LockAfterTheThreadStateIsDestroyedIsUnchecked) {
  struct LocksOnExit {
    rw::Mutex* mu;
    ~LocksOnExit() { rw::MutexLock lk(*mu); }
  };
  rw::Mutex mu{"test/late", rw::lockrank::kUnranked};
  std::thread t([&mu] {
    // Constructed before this thread's first lock creates the checker's
    // state, so destroyed after it.
    thread_local LocksOnExit late{&mu};
    rw::MutexLock lk(mu);
  });
  t.join();
}

TEST(DeadlockCheck, EdgesSnapshotRecordsOrderWithSites) {
  rw::deadlock::reset_for_test();
  rw::Mutex outer{"test/edge_outer", 100};
  rw::Mutex inner{"test/edge_inner", 200};
  {
    rw::MutexLock lo(outer);
    rw::MutexLock li(inner);
  }
  bool found = false;
  for (const auto& e : rw::deadlock::edges_snapshot()) {
    if (e.from == "test/edge_outer" && e.to == "test/edge_inner") {
      found = true;
      EXPECT_NE(e.from_site.find("deadlock_check_test"), std::string::npos);
      EXPECT_NE(e.to_site.find("deadlock_check_test"), std::string::npos);
    }
  }
  EXPECT_TRUE(found);
}

TEST(DeadlockCheck, TryLockIsExemptFromOrdering) {
  // try_lock cannot block, so acquiring "against" the rank order via
  // try_lock must not abort — but the lock still lands on the held stack.
  rw::Mutex low{"test/try_low", 100};
  rw::Mutex high{"test/try_high", 200};
  rw::MutexLock lh(high);
  ASSERT_TRUE(low.try_lock());
  EXPECT_EQ(rw::deadlock::held_count(), 2u);
  low.unlock();
  EXPECT_EQ(rw::deadlock::held_count(), 1u);
}

TEST(DeadlockCheck, CondVarWaitReleasesAndReacquires) {
  // The CV wait drops the mutex from the held stack while sleeping, so a
  // notifier thread can acquire the same mutex without tripping any check,
  // and the reacquire lands back via the check-free post_acquire path.
  rw::Mutex mu{"test/cv_mu", 100};
  rw::CondVar cv;
  bool ready = false;  // guarded by mu (attribute syntax is members-only)
  std::thread notifier([&] {
    rw::MutexLock lk(mu);
    ready = true;
    cv.notify_one();
  });
  {
    rw::MutexLock lk(mu);
    cv.wait(mu, [&] {
      mu.assert_held();
      return ready;
    });
    EXPECT_EQ(rw::deadlock::held_count(), 1u);
  }
  notifier.join();
  EXPECT_EQ(rw::deadlock::held_count(), 0u);
}

// ---------------------------------------------------------------------------
// Concurrency: the checker itself must not introduce races or serialize the
// data plane. Run under -DRW_SANITIZE=thread this is the TSan proof; in any
// build it exercises the first-sight graph path against the thread-local
// edge-cache fast path from many threads at once.

TEST(DeadlockCheck, ConcurrentNestedAcquisitionIsCleanAndParallel) {
  rw::Mutex table{"test/stress_table", 100};
  rw::Mutex chain{"test/stress_chain", 200};
  rw::Mutex pool{"test/stress_pool", 300};
  std::vector<std::uint64_t> sums(4, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      std::uint64_t local = 0;
      for (int i = 0; i < 20'000; ++i) {
        rw::MutexLock lt(table);
        rw::MutexLock lc(chain);
        rw::MutexLock lp(pool);
        local += static_cast<std::uint64_t>(i);
      }
      sums[static_cast<std::size_t>(t)] = local;
      EXPECT_EQ(rw::deadlock::held_count(), 0u);
    });
  }
  for (auto& th : threads) th.join();
  for (const auto s : sums) EXPECT_EQ(s, 199'990'000u);
}

// ---------------------------------------------------------------------------
// Overhead: a chain-shaped workload (three ranked acquisitions per packet,
// plus per-packet byte work the way a real filter touches its payload) with
// the checker ENABLED must stay within 10% of the identical workload with
// the checker gated off via set_enabled(). The gate is the median of the
// per-pair on/off ratios over interleaved trials, so a scheduler hiccup in
// one trial cannot fail the comparison.

std::uint64_t run_chain_workload(rw::Mutex& ingress, rw::Mutex& filter,
                                 rw::Mutex& egress,
                                 std::vector<std::uint8_t>& payload,
                                 int packets) {
  std::uint64_t checksum = 0;
  for (int i = 0; i < packets; ++i) {
    rw::MutexLock li(ingress);
    rw::MutexLock lf(filter);
    for (auto& b : payload) b = static_cast<std::uint8_t>(b + 1);
    rw::MutexLock le(egress);
    for (const auto b : payload) checksum += b;
  }
  return checksum;
}

TEST(DeadlockCheck, CheckerOverheadWithinTenPercent) {
  rw::Mutex ingress{"test/bench_ingress", 100};
  rw::Mutex filter{"test/bench_filter", 200};
  rw::Mutex egress{"test/bench_egress", 300};
  // A media-sized payload (one MTU-spanning frame): per-packet byte work is
  // what real filters do between acquisitions, and the 10% bound is about
  // chain throughput, not raw lock/unlock latency.
  std::vector<std::uint8_t> payload(4096, 1);
  constexpr int kPackets = 5'000;
  constexpr int kTrials = 15;

  // Warm both paths once: first-sight edges go through the global graph
  // mutex; the measured trials should see only the thread-local cache.
  run_chain_workload(ingress, filter, egress, payload, 100);
  rw::deadlock::set_enabled(false);
  run_chain_workload(ingress, filter, egress, payload, 100);
  rw::deadlock::set_enabled(true);

  // The workload is single-threaded, so this thread's CPU time prices it
  // without the time other processes hold the core.
  const auto thread_cpu_ns = [] {
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
  };
  std::uint64_t sink = 0;
  auto timed_ns = [&](bool checker_on) {
    rw::deadlock::set_enabled(checker_on);
    const std::int64_t t0 = thread_cpu_ns();
    sink += run_chain_workload(ingress, filter, egress, payload, kPackets);
    return thread_cpu_ns() - t0;
  };

  // Each off/on pair runs back to back, so a cache, frequency or load shift
  // lands on both sides of its ratio; the median then ignores the pairs a
  // burst of host noise split.
  std::vector<double> ratios;
  for (int trial = 0; trial < kTrials; ++trial) {
    const std::int64_t off_ns = timed_ns(false);
    const std::int64_t on_ns = timed_ns(true);
    ratios.push_back(static_cast<double>(on_ns) / static_cast<double>(off_ns));
  }
  rw::deadlock::set_enabled(true);
  ASSERT_NE(sink, 0u);  // keep the workload observable

  auto median = ratios.begin() + kTrials / 2;
  std::nth_element(ratios.begin(), median, ratios.end());
  RecordProperty("median_on_off_ratio", std::to_string(*median));
  EXPECT_LE(*median, 1.10) << "median checker-on/off ratio over " << kTrials
                           << " interleaved pairs";
}

}  // namespace
}  // namespace rapidware

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  // Fork-and-rerun death tests: the child re-executes from main with a
  // fresh acquisition graph, so intentional violations cannot leak state.
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  return RUN_ALL_TESTS();
}
