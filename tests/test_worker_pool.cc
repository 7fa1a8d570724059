/**
 * @file
 * WorkerPool unit tests: inline execution, lazy helper start, the
 * parallelFor barrier and full index coverage (also over many
 * back-to-back loops of the spin-then-park hand-off),
 * join-before-rethrow on exceptions, and the determinism contract
 * (index-order commits produce identical results for any worker
 * count).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/worker_pool.hh"
#include "test_util.hh"

namespace xfm
{
namespace
{

TEST(WorkerPool, SingleWorkerIsInline)
{
    WorkerPool pool(1);
    EXPECT_EQ(pool.workers(), 1u);
    EXPECT_EQ(pool.helpers(), 0u);

    // Every body runs on this thread, in index order.
    const auto self = std::this_thread::get_id();
    std::vector<std::size_t> order;
    pool.parallelFor(4, [&](std::size_t i) {
        EXPECT_EQ(std::this_thread::get_id(), self);
        order.push_back(i);
    });
    EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3}));
}

TEST(WorkerPool, ZeroClampsToOne)
{
    WorkerPool pool(0);
    EXPECT_EQ(pool.workers(), 1u);
    EXPECT_EQ(pool.helpers(), 0u);
}

TEST(WorkerPool, HelpersStartOnFirstFanOut)
{
    const std::size_t before = testutil::osThreads();
    {
        WorkerPool pool(4);
        pool.parallelFor(0, [](std::size_t) {});
        pool.parallelFor(1, [](std::size_t) {});
        EXPECT_EQ(pool.helpers(), 0u) << "no fan-out yet";
        EXPECT_EQ(testutil::osThreads(), before);

        pool.parallelFor(8, [](std::size_t) {});
        EXPECT_EQ(pool.helpers(), 3u);
        EXPECT_EQ(testutil::osThreads(), before + 3);
        pool.parallelFor(8, [](std::size_t) {});
        EXPECT_EQ(testutil::osThreads(), before + 3)
            << "helpers are reused";
    }
    EXPECT_EQ(testutil::osThreads(), before) << "the destructor joins them";
}

TEST(WorkerPool, SingleWorkerNeverStartsAThread)
{
    const std::size_t before = testutil::osThreads();
    WorkerPool pool(1);
    int calls = 0;
    for (int loop = 0; loop < 100; ++loop)
        pool.parallelFor(8, [&](std::size_t) { ++calls; });
    EXPECT_EQ(calls, 800);
    EXPECT_EQ(pool.helpers(), 0u);
    EXPECT_EQ(testutil::osThreads(), before);
}

TEST(WorkerPool, BackToBackLoopsRunEachIndexOnceInsideTheLoop)
{
    // The hand-off under load: helpers mostly catch each loop while
    // still spinning from the last one. Every index of every loop
    // runs exactly once, and no body runs after its loop returned.
    constexpr int loops = 10000;
    WorkerPool pool(4);
    std::vector<std::atomic<int>> hits(8);
    std::atomic<int> current{-1};
    std::atomic<int> in_flight{0};
    std::atomic<int> strays{0};
    for (int loop = 0; loop < loops; ++loop) {
        current.store(loop);
        pool.parallelFor(hits.size(), [&, loop](std::size_t i) {
            ++in_flight;
            ++hits[i];
            if (current.load() != loop)
                ++strays;
            --in_flight;
        });
        ASSERT_EQ(in_flight.load(), 0) << "loop " << loop;
        for (std::size_t i = 0; i < hits.size(); ++i)
            ASSERT_EQ(hits[i].exchange(0), 1)
                << "loop " << loop << " index " << i;
    }
    EXPECT_EQ(strays.load(), 0);
}

TEST(WorkerPool, ParallelForCoversEveryIndexExactlyOnce)
{
    for (const std::size_t workers : {1u, 2u, 5u}) {
        WorkerPool pool(workers);
        std::vector<std::atomic<int>> hits(257);
        pool.parallelFor(hits.size(), [&](std::size_t i) {
            ++hits[i];
        });
        for (std::size_t i = 0; i < hits.size(); ++i)
            EXPECT_EQ(hits[i].load(), 1) << "index " << i
                                         << " workers " << workers;
    }
}

TEST(WorkerPool, ParallelForIsABarrier)
{
    WorkerPool pool(4);
    std::atomic<int> done{0};
    pool.parallelFor(100, [&](std::size_t) { ++done; });
    // Every body observed complete once the call returns.
    EXPECT_EQ(done.load(), 100);
}

TEST(WorkerPool, ParallelForZeroAndOne)
{
    WorkerPool pool(3);
    int calls = 0;
    pool.parallelFor(0, [&](std::size_t) { ++calls; });
    EXPECT_EQ(calls, 0);
    std::atomic<int> one{0};
    pool.parallelFor(1, [&](std::size_t i) {
        EXPECT_EQ(i, 0u);
        ++one;
    });
    EXPECT_EQ(one.load(), 1);
}

// The two exception tests keep the names they had when the pool
// also offered submit(); both now go through parallelFor.
TEST(WorkerPool, InlineSubmitPropagatesExceptions)
{
    // workers = 1: the inline loop stops at the throwing body and the
    // exception reaches the caller unchanged.
    WorkerPool pool(1);
    int ran = 0;
    EXPECT_THROW(pool.parallelFor(8, [&](std::size_t i) {
        ++ran;
        if (i == 2)
            throw std::runtime_error("boom");
    }), std::runtime_error);
    EXPECT_EQ(ran, 3);
}

TEST(WorkerPool, SubmitPropagatesExceptions)
{
    // A body that throws (decodeShard on a corrupt block) must not
    // let parallelFor unwind while other bodies still run: they
    // would touch the caller's destroyed locals. No body may be in
    // flight when the exception reaches the caller, whether the
    // caller or a helper thread threw.
    using namespace std::chrono_literals;
    const auto caller = std::this_thread::get_id();
    for (const bool helper_throws : {false, true}) {
        WorkerPool pool(4);
        std::atomic<int> in_flight{0};
        std::atomic<int> caller_started{0};
        std::atomic<int> helper_started{0};
        std::atomic<bool> thrown{false};
        struct InFlight
        {
            std::atomic<int> &n;
            explicit InFlight(std::atomic<int> &c) : n(c) { ++n; }
            ~InFlight() { --n; }
        };
        bool caught = false;
        try {
            pool.parallelFor(16, [&](std::size_t) {
                InFlight guard(in_flight);
                const bool on_caller =
                    std::this_thread::get_id() == caller;
                ++(on_caller ? caller_started : helper_started);
                const auto &other =
                    on_caller ? helper_started : caller_started;
                if (on_caller != helper_throws && !thrown.exchange(true)) {
                    // Throw once the other side has a body running.
                    for (int spin = 0; spin < 2000 && other.load() == 0;
                         ++spin)
                        std::this_thread::sleep_for(1ms);
                    throw std::runtime_error("boom");
                }
                std::this_thread::sleep_for(20ms);
            });
        } catch (const std::runtime_error &) {
            caught = true;
            EXPECT_EQ(in_flight.load(), 0)
                << "helper_throws=" << helper_throws;
        }
        EXPECT_TRUE(caught) << "helper_throws=" << helper_throws;
    }
}

TEST(WorkerPool, EveryFailedLoopJoinsBeforeRethrowing)
{
    // Back-to-back failing loops: each rethrow waits for every body
    // of its loop, and the pool runs whole loops again afterwards.
    WorkerPool pool(4);
    std::atomic<int> in_flight{0};
    for (int loop = 0; loop < 200; ++loop) {
        bool caught = false;
        try {
            pool.parallelFor(8, [&](std::size_t i) {
                ++in_flight;
                if (i == 3) {
                    --in_flight;
                    throw std::runtime_error("boom");
                }
                std::this_thread::sleep_for(std::chrono::microseconds(20));
                --in_flight;
            });
        } catch (const std::runtime_error &) {
            caught = true;
            ASSERT_EQ(in_flight.load(), 0) << "loop " << loop;
        }
        ASSERT_TRUE(caught) << "loop " << loop;

        std::atomic<int> ran{0};
        pool.parallelFor(8, [&](std::size_t) { ++ran; });
        ASSERT_EQ(ran.load(), 8) << "loop " << loop;
    }
}

TEST(WorkerPool, IndexOrderCommitIsWorkerCountInvariant)
{
    // The usage contract of the simulator's hot paths: bodies fill
    // disjoint slots, the caller commits in index order. The
    // committed sequence must be identical for any worker count.
    auto run = [](std::size_t workers) {
        WorkerPool pool(workers);
        std::vector<std::uint64_t> slot(64);
        pool.parallelFor(slot.size(), [&](std::size_t i) {
            slot[i] = i * 2654435761u % 1000;
        });
        std::uint64_t committed = 0;
        for (const auto v : slot)  // serial, index order
            committed = committed * 31 + v;
        return committed;
    };
    const auto base = run(1);
    EXPECT_EQ(run(2), base);
    EXPECT_EQ(run(8), base);
}

TEST(WorkerPool, ManyLoopsReuseThreads)
{
    WorkerPool pool(4);
    std::atomic<std::uint64_t> sum{0};
    for (int round = 0; round < 50; ++round)
        pool.parallelFor(16, [&](std::size_t i) { sum += i; });
    EXPECT_EQ(sum.load(), 50u * (15 * 16 / 2));
}

} // namespace
} // namespace xfm
