// Tests for the annotated synchronization layer (util/mutex.h): the
// lock-order DAG unit surface, debug death tests proving a seeded
// inversion aborts with full context (including the flight-recorder
// post-mortem via the contracts failure hook), the release compile-out
// guarantee, CondVar handshakes, and the thread-pool
// shutdown-while-enqueueing regression.
#include "util/mutex.h"

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/thread_pool.h"
#include "gtest/gtest.h"
#include "obs/flight.h"

namespace rankties {
namespace {

// ---------------------------------------------------------------------
// Behavior shared by debug and release builds.
// ---------------------------------------------------------------------

TEST(MutexTest, ProtectsSharedCounterAcrossThreads) {
  Mutex mu("test.counter");
  std::int64_t counter = 0;
  std::vector<std::thread> threads;
  threads.reserve(4);
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&mu, &counter] {
      for (int i = 0; i < 10000; ++i) {
        MutexLock lock(mu);
        ++counter;
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(counter, 40000);
}

TEST(MutexTest, TryLockSucceedsUncontendedAndFailsContended) {
  Mutex mu("test.trylock");
  if (mu.TryLock()) {
    mu.AssertHeld();
    mu.Unlock();
  } else {
    ADD_FAILURE() << "uncontended TryLock failed";
  }
  MutexLock lock(mu);
  std::thread contender([&mu] {
    // Branch on the result (instead of EXPECT_FALSE) so the clang
    // thread-safety analysis can track the try-acquire state.
    if (mu.TryLock()) {
      mu.Unlock();
      ADD_FAILURE() << "TryLock succeeded while the lock was held";
    }
  });
  contender.join();
}

TEST(CondVarTest, WaitForReportsTimeout) {
  Mutex mu("test.cv.timeout");
  CondVar cv;
  MutexLock lock(mu);
  EXPECT_TRUE(cv.WaitFor(lock, std::chrono::milliseconds(1)));
}

TEST(CondVarTest, PredicateLoopHandshake) {
  Mutex mu("test.cv.handshake");
  CondVar cv;
  bool ready = false;
  std::thread producer([&] {
    MutexLock lock(mu);
    ready = true;
    cv.NotifyAll();
  });
  {
    MutexLock lock(mu);
    while (!ready) cv.Wait(lock);
    EXPECT_TRUE(ready);
  }
  producer.join();
}

// Regression: ~ThreadPool races the helpers' final pending-decrement
// handshake in LoopState. An earlier revision published `pending` without
// the loop mutex, so a pool destroyed right after ParallelFor returned
// could tear down LoopState while a helper still touched it.
TEST(ThreadPoolShutdownTest, DestructionImmediatelyAfterLoops) {
  for (int round = 0; round < 20; ++round) {
    ThreadPool pool(4);
    std::atomic<std::int64_t> sum{0};
    pool.ParallelFor(0, 64, 1, [&sum](std::size_t lo, std::size_t hi) {
      sum.fetch_add(static_cast<std::int64_t>(hi - lo),
                    std::memory_order_relaxed);
    });
    EXPECT_EQ(sum.load(), 64);
  }
}

TEST(ThreadPoolShutdownTest, DestructionAfterThrowingLoop) {
  for (int round = 0; round < 10; ++round) {
    ThreadPool pool(4);
    EXPECT_THROW(
        pool.ParallelFor(0, 64, 1,
                         [](std::size_t lo, std::size_t) {
                           if (lo == 7) throw std::runtime_error("boom");
                         }),
        std::runtime_error);
  }
}

#if RANKTIES_DCHECK_ENABLED

// ---------------------------------------------------------------------
// Lock-order DAG unit surface (debug builds only).
// ---------------------------------------------------------------------

class LockGraphTest : public ::testing::Test {
 protected:
  // Each test seeds its own ordering; edges recorded by earlier tests (or
  // by library code during process start) must not leak in.
  void SetUp() override { sync_internal::Graph().ResetForTest(); }
  void TearDown() override { sync_internal::Graph().ResetForTest(); }
};

TEST_F(LockGraphTest, ClassIdsInternByNameValue) {
  sync_internal::LockGraph& graph = sync_internal::Graph();
  const std::uint32_t a = graph.ClassIdFor("test.intern.a");
  const std::uint32_t b = graph.ClassIdFor("test.intern.b");
  EXPECT_NE(a, b);
  // Same name through a different pointer interns to the same id.
  const std::string copy("test.intern.a");
  EXPECT_EQ(graph.ClassIdFor(copy.c_str()), a);
  EXPECT_EQ(graph.ClassName(a), "test.intern.a");
}

TEST_F(LockGraphTest, AddEdgeDedupsAndRejectsCycles) {
  sync_internal::LockGraph& graph = sync_internal::Graph();
  const std::uint32_t a = graph.ClassIdFor("test.dag.a");
  const std::uint32_t b = graph.ClassIdFor("test.dag.b");
  const std::uint32_t c = graph.ClassIdFor("test.dag.c");
  EXPECT_EQ(graph.EdgeCount(), 0u);
  EXPECT_TRUE(graph.AddEdge(a, b));
  EXPECT_TRUE(graph.HasEdge(a, b));
  EXPECT_EQ(graph.EdgeCount(), 1u);
  // Re-recording an existing order is fine and adds nothing.
  EXPECT_TRUE(graph.AddEdge(a, b));
  EXPECT_EQ(graph.EdgeCount(), 1u);
  EXPECT_TRUE(graph.AddEdge(b, c));
  // c -> a would close a -> b -> c -> a; rejected and not recorded.
  EXPECT_FALSE(graph.AddEdge(c, a));
  EXPECT_FALSE(graph.HasEdge(c, a));
  // Same-class nesting is banned outright.
  EXPECT_FALSE(graph.AddEdge(a, a));
  EXPECT_EQ(graph.EdgeCount(), 2u);
}

TEST_F(LockGraphTest, PathBetweenReportsTheRecordedChain) {
  sync_internal::LockGraph& graph = sync_internal::Graph();
  const std::uint32_t a = graph.ClassIdFor("test.path.a");
  const std::uint32_t b = graph.ClassIdFor("test.path.b");
  const std::uint32_t c = graph.ClassIdFor("test.path.c");
  ASSERT_TRUE(graph.AddEdge(a, b));
  ASSERT_TRUE(graph.AddEdge(b, c));
  const std::vector<std::uint32_t> chain = graph.PathBetween(a, c);
  ASSERT_EQ(chain.size(), 3u);
  EXPECT_EQ(chain[0], a);
  EXPECT_EQ(chain[1], b);
  EXPECT_EQ(chain[2], c);
  EXPECT_TRUE(graph.PathBetween(c, a).empty());
}

TEST_F(LockGraphTest, ResetDropsEdgesButKeepsInternedIds) {
  sync_internal::LockGraph& graph = sync_internal::Graph();
  const std::uint32_t a = graph.ClassIdFor("test.reset.a");
  const std::uint32_t b = graph.ClassIdFor("test.reset.b");
  ASSERT_TRUE(graph.AddEdge(a, b));
  graph.ResetForTest();
  EXPECT_EQ(graph.EdgeCount(), 0u);
  EXPECT_FALSE(graph.HasEdge(a, b));
  EXPECT_EQ(graph.ClassIdFor("test.reset.a"), a);
  // With the old order forgotten, the reverse becomes law instead.
  EXPECT_TRUE(graph.AddEdge(b, a));
}

TEST_F(LockGraphTest, BlockingAcquisitionRecordsClassEdges) {
  Mutex outer("test.order.outer");
  Mutex inner("test.order.inner");
  sync_internal::LockGraph& graph = sync_internal::Graph();
  const std::uint32_t o = graph.ClassIdFor("test.order.outer");
  const std::uint32_t i = graph.ClassIdFor("test.order.inner");
  {
    MutexLock hold_outer(outer);
    MutexLock hold_inner(inner);
  }
  EXPECT_TRUE(graph.HasEdge(o, i));
  EXPECT_FALSE(graph.HasEdge(i, o));
  const std::size_t edges = graph.EdgeCount();
  {
    MutexLock hold_outer(outer);
    MutexLock hold_inner(inner);
  }
  EXPECT_EQ(graph.EdgeCount(), edges);
}

TEST_F(LockGraphTest, TryLockJoinsHeldStackAndOrdersLaterAcquisitions) {
  Mutex first("test.try.first");
  Mutex second("test.try.second");
  sync_internal::LockGraph& graph = sync_internal::Graph();
  // Branch on the result (instead of ASSERT_TRUE) so the clang
  // thread-safety analysis can track the try-acquire state.
  if (!first.TryLock()) {
    FAIL() << "uncontended TryLock failed";
  }
  first.AssertHeld();
  {
    // Blocking acquisitions order against the TryLock-held class even
    // though TryLock itself recorded no edges (it cannot deadlock).
    MutexLock hold_second(second);
  }
  first.Unlock();
  EXPECT_TRUE(graph.HasEdge(graph.ClassIdFor("test.try.first"),
                            graph.ClassIdFor("test.try.second")));
  EXPECT_EQ(graph.EdgeCount(), 1u);
}

// ---------------------------------------------------------------------
// Debug death tests. Suites end in "DeathTest" so googletest runs them
// before the multi-threaded tests above spawn anything.
// ---------------------------------------------------------------------

// Seeds first -> second, then acquires in the opposite order; the second
// constructor aborts in debug builds. No analysis exemption needed: the
// clang wall does not track acquisition *order*, only held-ness — which
// is exactly why the runtime DAG exists.
void SeedThenInvert(const char* first_name, const char* second_name) {
  Mutex first(first_name);
  Mutex second(second_name);
  {
    MutexLock hold_first(first);
    MutexLock hold_second(second);
  }
  MutexLock hold_second(second);
  MutexLock hold_first(first);
}

// Deliberately re-acquires a held instance — the scenario under test.
// Analysis exemption (policy: docs/STATIC_ANALYSIS.md): the clang
// thread-safety wall would reject this intentional double-acquire at
// compile time, which is the static half of the same guarantee.
void AcquireHeldInstanceAgain() RANKTIES_NO_THREAD_SAFETY_ANALYSIS {
  Mutex mu("test.self");
  MutexLock hold(mu);
  mu.Lock();
}

// Deliberately asserts a capability that is not held. Analysis exemption
// (policy: docs/STATIC_ANALYSIS.md): RANKTIES_ASSERT_CAPABILITY teaches
// the analysis the lock *is* held, which would make `mu` look held when
// it goes out of scope.
void AssertHeldWithoutTheLock() RANKTIES_NO_THREAD_SAFETY_ANALYSIS {
  Mutex mu("test.assert");
  mu.AssertHeld();
}

TEST(MutexDeathTest, SeededInversionAborts) {
  EXPECT_DEATH(
      {
        sync_internal::Graph().ResetForTest();
        SeedThenInvert("test.inv.a", "test.inv.b");
      },
      "lock-order inversion: acquiring lock class \"test.inv.a\" "
      "while holding \"test.inv.b\"");
}

TEST(MutexDeathTest, InversionAbortPrintsTheEstablishedOrder) {
  EXPECT_DEATH(
      {
        sync_internal::Graph().ResetForTest();
        SeedThenInvert("test.chain.a", "test.chain.b");
      },
      "previously recorded order:.*\"test.chain.a\".*\"test.chain.b\"");
}

TEST(MutexDeathTest, InversionAbortPrintsTheHeldStack) {
  EXPECT_DEATH(
      {
        sync_internal::Graph().ResetForTest();
        SeedThenInvert("test.held.a", "test.held.b");
      },
      "held by this thread \\(oldest first\\): \"test.held.b\"");
}

TEST(MutexDeathTest, SameClassNestingAborts) {
  EXPECT_DEATH(
      {
        sync_internal::Graph().ResetForTest();
        Mutex one("test.same");
        Mutex two("test.same");
        MutexLock hold_one(one);
        MutexLock hold_two(two);
      },
      "two locks of one class never nest");
}

TEST(MutexDeathTest, ReacquiringHeldInstanceAborts) {
  EXPECT_DEATH(AcquireHeldInstanceAgain(),
               "re-acquiring lock class \"test.self\"");
}

TEST(MutexDeathTest, AssertHeldWithoutTheLockAborts) {
  EXPECT_DEATH(AssertHeldWithoutTheLock(), "contract violation");
}

TEST(MutexDeathTest, InversionAbortDumpsFlightRecorderPostMortem) {
  EXPECT_DEATH(
      {
        obs::FlightRecorder::Global().SetEnabled(true);
        obs::FlightRecord(obs::FlightEventId::kParallelFor, 64, 8, 4);
        sync_internal::Graph().ResetForTest();
        SeedThenInvert("test.flight.a", "test.flight.b");
      },
      "flight recorder post-mortem");
}

#else  // !RANKTIES_DCHECK_ENABLED

// ---------------------------------------------------------------------
// Release builds: the lock-order machinery is fully compiled out (the
// layout half — sizeof(Mutex) == sizeof(std::mutex) — is a static_assert
// in util/mutex.h itself, the one file allowed to name std::mutex).
// ---------------------------------------------------------------------

TEST(MutexCompileOutTest, SeededInversionDoesNotAbort) {
  Mutex first("test.release.a");
  Mutex second("test.release.b");
  {
    MutexLock hold_first(first);
    MutexLock hold_second(second);
  }
  {
    // The reverse order would abort in a debug build; in release the
    // locks are plain std::mutex operations with no tracking at all.
    MutexLock hold_second(second);
    MutexLock hold_first(first);
  }
  SUCCEED();
}

TEST(MutexCompileOutTest, AssertHeldIsANoOp) {
  Mutex mu("test.release.assert");
  mu.AssertHeld();  // would abort (DCHECK) in debug; must be free here
  SUCCEED();
}

#endif  // RANKTIES_DCHECK_ENABLED

}  // namespace
}  // namespace rankties
