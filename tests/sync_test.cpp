// Edge-case coverage for the coroutine sync primitives: OneShot re-arming
// and its single-consumer contract, Gate broadcast corner cases, Semaphore
// FIFO hand-off fairness, Channel teardown with queued items, and
// Simulator::shutdown() with frames whose destructors schedule events.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sim/simulator.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"

namespace efac::sim {
namespace {

// ----------------------------------------------------------------- OneShot

TEST(OneShot, ValueBeforeWaiterResolvesWithoutSuspending) {
  Simulator sim;
  OneShot<int> slot{sim};
  slot.set(7);
  EXPECT_TRUE(slot.ready());
  int got = 0;
  sim.spawn([](OneShot<int>& s, int* out) -> Task<void> {
    *out = co_await s.wait();
  }(slot, &got));
  sim.run();
  EXPECT_EQ(got, 7);
  EXPECT_FALSE(slot.ready());  // consumed: the slot is empty again
}

TEST(OneShot, SlotIsReusableAfterConsumption) {
  // The RPC layer re-arms call slots; set -> wait -> set -> wait must work.
  Simulator sim;
  OneShot<int> slot{sim};
  std::vector<int> got;
  sim.spawn([](OneShot<int>& s, std::vector<int>* out) -> Task<void> {
    out->push_back(co_await s.wait());
    out->push_back(co_await s.wait());
  }(slot, &got));
  sim.call_at(10, [&slot] { slot.set(1); });
  sim.call_at(20, [&slot] { slot.set(2); });
  sim.run();
  EXPECT_EQ(got, (std::vector<int>{1, 2}));
}

TEST(OneShot, SetTwiceWithoutConsumptionThrows) {
  Simulator sim;
  OneShot<int> slot{sim};
  slot.set(1);
  EXPECT_THROW(slot.set(2), CheckFailure);
}

TEST(OneShot, SecondConcurrentWaiterThrowsFromWaitItself) {
  // The single-consumer contract: the error surfaces as a CheckFailure
  // from wait() in the offending coroutine, not as a silently dropped
  // resume of the first waiter.
  Simulator sim;
  OneShot<int> slot{sim};
  int first = 0;
  bool second_threw = false;
  sim.spawn([](OneShot<int>& s, int* out) -> Task<void> {
    *out = co_await s.wait();
  }(slot, &first));
  sim.call_at(5, [&sim, &slot, &second_threw] {
    sim.spawn([](OneShot<int>& s, bool* threw) -> Task<void> {
      try {
        co_await s.wait();
      } catch (const CheckFailure&) {
        *threw = true;
      }
    }(slot, &second_threw));
  });
  sim.call_at(10, [&slot] { slot.set(42); });
  sim.run();
  EXPECT_TRUE(second_threw);
  EXPECT_EQ(first, 42);  // the legitimate waiter still gets its value
}

// -------------------------------------------------------------------- Gate

TEST(Gate, OpenWithZeroWaitersIsHarmless) {
  Simulator sim;
  Gate gate{sim};
  gate.open();  // broadcast to nobody
  EXPECT_TRUE(gate.is_open());
  bool passed = false;
  sim.spawn([](Gate& g, bool* out) -> Task<void> {
    co_await g.wait();  // already open: passes straight through
    *out = true;
  }(gate, &passed));
  sim.run();
  EXPECT_TRUE(passed);
}

TEST(Gate, BroadcastWakesEveryWaiter) {
  Simulator sim;
  Gate gate{sim};
  int woken = 0;
  for (int i = 0; i < 3; ++i) {
    sim.spawn([](Gate& g, int* count) -> Task<void> {
      co_await g.wait();
      ++(*count);
    }(gate, &woken));
  }
  sim.call_at(10, [&gate] { gate.open(); });
  sim.run();
  EXPECT_EQ(woken, 3);
}

TEST(Gate, CloseReArmsTheGate) {
  Simulator sim;
  Gate gate{sim, /*open=*/true};
  gate.close();
  EXPECT_FALSE(gate.is_open());
  std::vector<SimTime> passed_at;
  sim.spawn([](Simulator& s, Gate& g, std::vector<SimTime>* out) -> Task<void> {
    co_await g.wait();
    out->push_back(s.now());
  }(sim, gate, &passed_at));
  sim.call_at(30, [&gate] { gate.open(); });
  sim.run();
  EXPECT_EQ(passed_at, (std::vector<SimTime>{30}));
}

// --------------------------------------------------------------- Semaphore

TEST(Semaphore, HandOffIsFifo) {
  // release() hands the permit to the oldest waiter (no barging), so the
  // critical sections run in spawn order.
  Simulator sim;
  Semaphore sem{sim, 1};
  std::vector<int> order;
  for (int i = 0; i < 4; ++i) {
    sim.spawn([](Simulator& s, Semaphore& sm, std::vector<int>* out,
                 int id) -> Task<void> {
      co_await sm.acquire();
      out->push_back(id);
      co_await delay(s, 10);
      sm.release();
    }(sim, sem, &order, i));
  }
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(sem.available(), 1u);
}

TEST(Semaphore, OverReleaseThrows) {
  Simulator sim;
  Semaphore sem{sim, 2};
  EXPECT_THROW(sem.release(), CheckFailure);
}

// ----------------------------------------------------------------- Channel

TEST(Channel, DestructionWithQueuedItemsIsClean) {
  Simulator sim;
  {
    Channel<std::string> ch{sim};
    ch.push("queued");
    ch.push("and dropped");
    EXPECT_EQ(ch.size(), 2u);
  }  // destroyed with items still queued: nothing to resume, nothing leaks
}

TEST(Channel, QueuedItemsDrainInFifoOrder) {
  Simulator sim;
  Channel<int> ch{sim};
  ch.push(1);
  ch.push(2);
  ch.push(3);
  std::vector<int> got;
  sim.spawn([](Channel<int>& c, std::vector<int>* out) -> Task<void> {
    for (int i = 0; i < 3; ++i) out->push_back(co_await c.pop());
  }(ch, &got));
  sim.run();
  EXPECT_EQ(got, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(ch.size(), 0u);
}

TEST(Channel, PopBeforePushHandsOffDirectly) {
  Simulator sim;
  Channel<int> ch{sim};
  std::vector<int> got;
  sim.spawn([](Channel<int>& c, std::vector<int>* out) -> Task<void> {
    out->push_back(co_await c.pop());
  }(ch, &got));
  sim.call_at(10, [&ch] { ch.push(99); });
  sim.run();
  EXPECT_EQ(got, (std::vector<int>{99}));
  EXPECT_EQ(ch.size(), 0u);  // handed off, never queued
}

// ---------------------------------------------------------------- shutdown

/// RAII object whose destructor talks to the simulator, as an abandoned
/// SemaphoreLock does.
struct SchedulesOnDestroy {
  Simulator& sim;
  bool* fired;
  ~SchedulesOnDestroy() {
    sim.call_after(0, [f = fired] { *f = true; });
  }
};

TEST(Shutdown, IsIdempotentAndDropsEventsScheduledByDyingFrames) {
  Simulator sim;
  Semaphore sem{sim, 1};
  bool fired = false;
  int resumed = 0;
  // The holder parks with the permit and an object that schedules on
  // destruction; two waiters queue behind it.
  sim.spawn([](Simulator& s, Semaphore& sm, bool* f,
               int* r) -> Task<void> {
    SemaphoreLock permit = co_await SemaphoreLock::acquire(sm);
    const SchedulesOnDestroy on_destroy{s, f};
    co_await delay(s, 1'000'000);
    ++*r;
  }(sim, sem, &fired, &resumed));
  for (int i = 0; i < 2; ++i) {
    sim.spawn([](Semaphore& sm, int* r) -> Task<void> {
      co_await sm.acquire();
      ++*r;
    }(sem, &resumed));
  }
  sim.run_until(100);
  ASSERT_EQ(sem.waiting(), 2u);
  ASSERT_EQ(sim.active_root_tasks(), 3u);
  ASSERT_EQ(sim.pending_events(), 1u);

  // Destroying the holder releases its permit (a hand-off that schedules a
  // waiter's resume) and runs on_destroy's call_after: both are dropped.
  sim.shutdown();
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_EQ(sim.active_root_tasks(), 0u);
  EXPECT_EQ(sem.waiting(), 0u);
  sim.shutdown();
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_EQ(sim.run(), 0u);
  EXPECT_FALSE(fired);
  EXPECT_EQ(resumed, 0);
}

}  // namespace
}  // namespace efac::sim
