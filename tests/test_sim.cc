/**
 * @file
 * Unit tests for the discrete-event kernel.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <functional>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/sim_object.hh"

namespace xfm
{
namespace
{

TEST(EventQueue, RunsInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(30, [&] { order.push_back(3); });
    eq.schedule(10, [&] { order.push_back(1); });
    eq.schedule(20, [&] { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 30u);
}

TEST(EventQueue, SameTickOrdersByPriorityThenFifo)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(5, [&] { order.push_back(2); },
                EventQueue::defaultPriority);
    eq.schedule(5, [&] { order.push_back(1); },
                EventQueue::refreshPriority);
    eq.schedule(5, [&] { order.push_back(3); },
                EventQueue::defaultPriority);
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, ScheduleInIsRelative)
{
    EventQueue eq;
    Tick seen = 0;
    eq.schedule(100, [&eq, &seen] {
        eq.scheduleIn(50, [&eq, &seen] { seen = eq.now(); });
    });
    eq.run();
    EXPECT_EQ(seen, 150u);
}

TEST(EventQueue, RunRespectsLimit)
{
    EventQueue eq;
    int count = 0;
    eq.schedule(10, [&] { ++count; });
    eq.schedule(20, [&] { ++count; });
    eq.schedule(30, [&] { ++count; });
    eq.run(20);
    EXPECT_EQ(count, 2);
    EXPECT_EQ(eq.pending(), 1u);
    eq.run();
    EXPECT_EQ(count, 3);
}

TEST(EventQueue, EventsCanScheduleEvents)
{
    EventQueue eq;
    int depth = 0;
    std::function<void()> chain = [&] {
        if (++depth < 5)
            eq.scheduleIn(1, chain);
    };
    eq.schedule(0, chain);
    eq.run();
    EXPECT_EQ(depth, 5);
    EXPECT_EQ(eq.now(), 4u);
    EXPECT_EQ(eq.executed(), 5u);
}

TEST(EventQueue, StepExecutesOne)
{
    EventQueue eq;
    int count = 0;
    eq.schedule(1, [&] { ++count; });
    eq.schedule(2, [&] { ++count; });
    EXPECT_TRUE(eq.step());
    EXPECT_EQ(count, 1);
    EXPECT_TRUE(eq.step());
    EXPECT_FALSE(eq.step());
    EXPECT_EQ(count, 2);
}

TEST(EventQueue, EmptyAndPendingAccounting)
{
    EventQueue eq;
    EXPECT_TRUE(eq.empty());
    eq.schedule(1, [] {});
    eq.schedule(2, [] {});
    EXPECT_EQ(eq.pending(), 2u);
    EXPECT_TRUE(eq.step());
    EXPECT_EQ(eq.pending(), 1u);
    EXPECT_FALSE(eq.empty());
    eq.run();
    EXPECT_TRUE(eq.empty());
}

TEST(EventQueue, ZeroDelaySelfScheduleAdvances)
{
    EventQueue eq;
    int runs = 0;
    std::function<void()> f = [&] {
        if (++runs < 3)
            eq.scheduleIn(0, f);
    };
    eq.schedule(7, f);
    eq.run();
    EXPECT_EQ(runs, 3);
    EXPECT_EQ(eq.now(), 7u);
}

TEST(EventQueue, SlabRecyclesSlots)
{
    // Steady-state schedule/execute churn must not grow the slab:
    // after warm-up, slots are recycled from the free list.
    EventQueue eq;
    int runs = 0;
    std::function<void()> f = [&] {
        if (++runs < 10000)
            eq.scheduleIn(1, f);
    };
    eq.schedule(0, f);
    eq.run();
    EXPECT_EQ(runs, 10000);
    // One live event at a time (plus transient overlap): far fewer
    // slots than events executed.
    EXPECT_LE(eq.slots(), 256u);
}

TEST(EventQueue, LargeCallbacksFallBackToHeap)
{
    // Callbacks above the SBO threshold take the heap path; both
    // must behave identically.
    EventQueue eq;
    std::array<std::uint64_t, 64> big{};  // 512 B, above inline size
    big[0] = 41;
    std::uint64_t seen = 0;
    eq.schedule(1, [big, &seen] { seen = big[0] + 1; });
    eq.run();
    EXPECT_EQ(seen, 42u);
}

TEST(SimObject, ExposesNameAndTime)
{
    EventQueue eq;
    SimObject obj("system.dram", eq);
    EXPECT_EQ(obj.name(), "system.dram");
    eq.schedule(42, [] {});
    eq.run();
    EXPECT_EQ(obj.curTick(), 42u);
}

// --- Reference-model harness ------------------------------------

/**
 * Naive reference queue: a std::vector of (tick, priority, seq)
 * kept sorted latest-first, so the next event is always at the back.
 * No slab, no heap: the ordering contract in its plainest form.
 */
class ReferenceQueue
{
  public:
    Tick now() const { return now_; }
    std::uint64_t executed() const { return executed_; }

    void
    schedule(Tick when, std::function<void()> cb, int priority)
    {
        Item item{when, priority, next_seq_++, std::move(cb)};
        const auto pos = std::lower_bound(items_.begin(), items_.end(),
                                          item, runsLater);
        items_.insert(pos, std::move(item));
    }

    void
    run()
    {
        while (!items_.empty()) {
            Item item = std::move(items_.back());
            items_.pop_back();
            now_ = item.when;
            item.cb();
            ++executed_;
        }
    }

  private:
    struct Item
    {
        Tick when;
        int priority;
        std::uint64_t seq;
        std::function<void()> cb;
    };

    static bool
    runsLater(const Item &a, const Item &b)
    {
        if (a.when != b.when)
            return a.when > b.when;
        if (a.priority != b.priority)
            return a.priority > b.priority;
        return a.seq > b.seq;
    }

    std::vector<Item> items_;
    Tick now_ = 0;
    std::uint64_t next_seq_ = 1;
    std::uint64_t executed_ = 0;
};

/** One fired event, as observed by the harness. */
struct FireRecord
{
    Tick tick;
    int priority;
    std::uint64_t serial;  ///< generator-assigned id of the action

    bool
    operator==(const FireRecord &o) const
    {
        return tick == o.tick && priority == o.priority
            && serial == o.serial;
    }
};

/** End-of-run footprint of a schedule replay. */
struct ReplayResult
{
    std::vector<FireRecord> fires;
    std::uint64_t executed = 0;
    Tick finalNow = 0;
};

/**
 * Deterministic xorshift generator for the randomized schedule —
 * self-contained so the harness does not depend on common/random.
 */
class ScheduleRng
{
  public:
    explicit ScheduleRng(std::uint64_t seed) : state_(seed | 1) {}

    std::uint64_t
    next()
    {
        state_ ^= state_ << 13;
        state_ ^= state_ >> 7;
        state_ ^= state_ << 17;
        return state_;
    }

    std::uint64_t pick(std::uint64_t n) { return next() % n; }

  private:
    std::uint64_t state_;
};

/**
 * Replay a seeded randomized schedule against @p eq and record the
 * exact (tick, priority, serial) fire order.
 *
 * The generator exercises every mutation the real simulator
 * performs: plain posts, posts landing on the same tick and
 * callbacks that post follow-up work.
 */
template <typename Queue>
ReplayResult
replaySchedule(Queue &eq, std::uint64_t seed)
{
    constexpr Tick kSpan = 40000;
    ReplayResult out;
    ScheduleRng rng(seed);
    std::uint64_t serial = 0;

    auto post = [&](Tick when, int prio, auto &&self) -> void {
        const std::uint64_t id = serial++;
        eq.schedule(when, [&, id, prio, self]() mutable {
            out.fires.push_back({eq.now(), prio, id});
            // 1 in 4 callbacks posts follow-up work.
            if (rng.pick(4) == 0 && serial < 4096) {
                const Tick delta = 1 + rng.pick(kSpan / 10);
                self(eq.now() + delta,
                     static_cast<int>(rng.pick(3)) - 1, self);
            }
        }, prio);
    };

    // Seed schedule over three priorities; a fifth of the posts
    // share a handful of ticks so same-tick ordering is exercised.
    for (int i = 0; i < 512; ++i) {
        Tick when = 1 + rng.pick(kSpan);
        if (rng.pick(5) == 0)
            when = (1 + rng.pick(40)) * (kSpan / 40);
        post(when, static_cast<int>(rng.pick(3)) - 1, post);
    }

    eq.run();
    out.executed = eq.executed();
    out.finalNow = eq.now();
    return out;
}

void
expectSameReplay(const ReplayResult &got, const ReplayResult &want,
                 std::uint64_t seed)
{
    ASSERT_EQ(got.fires.size(), want.fires.size()) << "seed " << seed;
    for (std::size_t i = 0; i < want.fires.size(); ++i) {
        ASSERT_TRUE(got.fires[i] == want.fires[i])
            << "seed " << seed << " fire " << i << ": got ("
            << got.fires[i].tick << "," << got.fires[i].priority << ","
            << got.fires[i].serial << ") want (" << want.fires[i].tick
            << "," << want.fires[i].priority << ","
            << want.fires[i].serial << ")";
    }
    EXPECT_EQ(got.executed, want.executed) << "seed " << seed;
    EXPECT_EQ(got.finalNow, want.finalNow) << "seed " << seed;
}

/** Replay @p seed on both queues and require identical fire order. */
void
checkAgainstReference(std::uint64_t seed)
{
    ReferenceQueue ref;
    const ReplayResult want = replaySchedule(ref, seed);
    EventQueue eq;
    const ReplayResult got = replaySchedule(eq, seed);
    expectSameReplay(got, want, seed);
    EXPECT_EQ(eq.pending(), 0u);
}

// One test per seed so a divergence names the schedule that caused it.
TEST(EventQueueReference, MatchesNaiveModelSeed1) { checkAgainstReference(1); }
TEST(EventQueueReference, MatchesNaiveModelSeed7) { checkAgainstReference(7); }
TEST(EventQueueReference, MatchesNaiveModelSeed42)
{
    checkAgainstReference(42);
}
TEST(EventQueueReference, MatchesNaiveModelSeed99)
{
    checkAgainstReference(99);
}
TEST(EventQueueReference, MatchesNaiveModelSeed1234567)
{
    checkAgainstReference(1234567);
}

} // namespace
} // namespace xfm
