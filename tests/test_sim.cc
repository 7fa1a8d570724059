/**
 * @file
 * Unit tests for the discrete-event kernel.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <functional>
#include <set>
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

TEST(EventQueue, DescheduleCancelsPending)
{
    EventQueue eq;
    bool ran = false;
    EventId id = eq.schedule(10, [&] { ran = true; });
    EXPECT_TRUE(eq.deschedule(id));
    EXPECT_FALSE(eq.deschedule(id));  // double cancel fails
    eq.run();
    EXPECT_FALSE(ran);
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
    EventId a = eq.schedule(1, [] {});
    eq.schedule(2, [] {});
    EXPECT_EQ(eq.pending(), 2u);
    eq.deschedule(a);
    EXPECT_EQ(eq.pending(), 1u);
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

TEST(EventQueue, StaleIdAfterRecycleDoesNotCancel)
{
    // A slot freed by execution may be recycled for a new event;
    // the old id's generation must no longer match, so a late
    // deschedule neither succeeds nor kills the new occupant.
    EventQueue eq;
    const EventId old_id = eq.schedule(1, [] {});
    eq.run();  // executes and frees the slot
    bool ran = false;
    // Recycle until some new event reuses old_id's slot.
    std::vector<EventId> ids;
    for (int i = 0; i < 300; ++i)
        ids.push_back(eq.schedule(10, [&] { ran = true; }));
    EXPECT_FALSE(eq.deschedule(old_id));
    eq.run();
    EXPECT_TRUE(ran);
}

TEST(EventQueue, CancelledEntriesAreCompacted)
{
    // Satellite fix: descheduled entries used to ride the heap until
    // their tick. Mass-cancelling must trigger the sweep instead of
    // retaining thousands of tombstones.
    EventQueue eq;
    std::vector<EventId> ids;
    for (int i = 0; i < 2000; ++i)
        ids.push_back(eq.schedule(1000000 + i, [] {}));
    for (const auto id : ids)
        EXPECT_TRUE(eq.deschedule(id));
    EXPECT_GT(eq.compactions(), 0u);
    EXPECT_TRUE(eq.empty());
    eq.run();
    EXPECT_EQ(eq.executed(), 0u);
}

TEST(EventQueue, CompactionPreservesOrdering)
{
    EventQueue eq;
    std::vector<int> order;
    // Interleave keepers with a larger population of cancels so the
    // sweep fires while keepers are still pending.
    std::vector<EventId> cancels;
    for (int i = 0; i < 512; ++i)
        cancels.push_back(eq.schedule(10 + i, [] {}));
    eq.schedule(600, [&] { order.push_back(2); },
                EventQueue::defaultPriority);
    eq.schedule(600, [&] { order.push_back(1); },
                EventQueue::refreshPriority);
    eq.schedule(550, [&] { order.push_back(0); });
    eq.schedule(700, [&] { order.push_back(3); });
    for (const auto id : cancels)
        eq.deschedule(id);
    EXPECT_GT(eq.compactions(), 0u);
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(EventQueue, SelfDescheduleDuringCallbackIsHarmless)
{
    // The executing event's slot is released before its callback
    // runs (matching the old erase-before-call): cancelling
    // yourself mid-callback reports false and corrupts nothing.
    EventQueue eq;
    EventId self = 0;
    bool saw_false = false;
    self = eq.schedule(5, [&] {
        saw_false = !eq.deschedule(self);
        eq.scheduleIn(1, [] {});
    });
    eq.run();
    EXPECT_TRUE(saw_false);
    EXPECT_EQ(eq.executed(), 2u);
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
 * kept sorted latest-first, so the next event is always at the back,
 * plus the set of cancelled sequence numbers. No slab, no heap, no
 * generations, no compaction: the ordering contract in its plainest
 * form.
 */
class ReferenceQueue
{
  public:
    Tick now() const { return now_; }
    std::uint64_t executed() const { return executed_; }
    std::uint64_t descheduled() const { return descheduled_; }

    std::uint64_t
    schedule(Tick when, std::function<void()> cb, int priority)
    {
        Item item{when, priority, next_seq_++, std::move(cb)};
        const auto pos = std::lower_bound(items_.begin(), items_.end(),
                                          item, runsLater);
        const std::uint64_t id = item.seq;
        items_.insert(pos, std::move(item));
        return id;
    }

    bool
    deschedule(std::uint64_t id)
    {
        // Only a pending event can be cancelled: one that already
        // ran (or is running) has left the vector.
        const bool pending =
            std::any_of(items_.begin(), items_.end(),
                        [id](const Item &i) { return i.seq == id; });
        if (!pending || !cancelled_.insert(id).second)
            return false;
        ++descheduled_;
        return true;
    }

    void
    run()
    {
        while (!items_.empty()) {
            Item item = std::move(items_.back());
            items_.pop_back();
            if (cancelled_.erase(item.seq))
                continue;
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
    std::set<std::uint64_t> cancelled_;
    Tick now_ = 0;
    std::uint64_t next_seq_ = 1;
    std::uint64_t executed_ = 0;
    std::uint64_t descheduled_ = 0;
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
    std::uint64_t descheduled = 0;
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
 * performs: plain posts, posts landing on the same tick, up-front
 * cancels (@p cancels of them) and reschedules (cancel + repost at
 * a new tick), cancels from inside a callback — including of the
 * running event itself — and callbacks that post follow-up work.
 */
template <typename Queue>
ReplayResult
replaySchedule(Queue &eq, std::uint64_t seed, int cancels = 170)
{
    constexpr Tick kSpan = 40000;
    ReplayResult out;
    ScheduleRng rng(seed);
    std::vector<std::pair<std::uint64_t, EventId>> live;
    std::uint64_t serial = 0;

    auto post = [&](Tick when, int prio, auto &&self) -> void {
        const std::uint64_t id = serial++;
        EventId ev = eq.schedule(when, [&, id, prio, self]() mutable {
            out.fires.push_back({eq.now(), prio, id});
            // 1 in 4 callbacks posts follow-up work.
            if (rng.pick(4) == 0 && serial < 4096) {
                const Tick delta = 1 + rng.pick(kSpan / 10);
                self(eq.now() + delta,
                     static_cast<int>(rng.pick(3)) - 1, self);
            }
            // 1 in 8 callbacks cancels a random event it has seen
            // posted: pending, already fired, or itself.
            if (rng.pick(8) == 0 && !live.empty()) {
                const std::size_t idx = rng.pick(live.size());
                if (eq.deschedule(live[idx].second))
                    live.erase(live.begin()
                               + static_cast<std::ptrdiff_t>(idx));
            }
        }, prio);
        live.push_back({id, ev});
    };

    // Seed schedule over three priorities; a fifth of the posts
    // share a handful of ticks so same-tick ordering is exercised.
    for (int i = 0; i < 512; ++i) {
        Tick when = 1 + rng.pick(kSpan);
        if (rng.pick(5) == 0)
            when = (1 + rng.pick(40)) * (kSpan / 40);
        post(when, static_cast<int>(rng.pick(3)) - 1, post);
    }
    // Up-front cancels, half of them rescheduled elsewhere.
    for (int i = 0; i < cancels && !live.empty(); ++i) {
        const std::size_t idx = rng.pick(live.size());
        if (eq.deschedule(live[idx].second)) {
            live.erase(live.begin()
                       + static_cast<std::ptrdiff_t>(idx));
            if (rng.pick(2) == 0)
                post(1 + rng.pick(kSpan),
                     static_cast<int>(rng.pick(3)) - 1, post);
        }
    }

    eq.run();
    out.executed = eq.executed();
    out.descheduled = eq.descheduled();
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
    EXPECT_EQ(got.descheduled, want.descheduled) << "seed " << seed;
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
    EXPECT_GT(got.descheduled, 0u);
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

TEST(EventQueueReference, MatchesNaiveModelThroughCompaction)
{
    // Cancel most of the seed schedule up front: the tombstones
    // outnumber live entries, so the sweep runs mid-replay and must
    // not perturb the fire order.
    const std::uint64_t seed = 2024;
    ReferenceQueue ref;
    const ReplayResult want = replaySchedule(ref, seed, 450);
    EventQueue eq;
    const ReplayResult got = replaySchedule(eq, seed, 450);
    EXPECT_GT(eq.compactions(), 0u);
    expectSameReplay(got, want, seed);
    EXPECT_EQ(eq.pending(), 0u);
}

} // namespace
} // namespace xfm
