/**
 * @file
 * Property-based tests: components are fuzzed against simple
 * reference models and their invariants checked over randomised
 * operation sequences and parameter sweeps.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <tuple>
#include <vector>

#include "common/random.hh"
#include "dram/address_map.hh"
#include "dram/phys_mem.hh"
#include "sfm/zpool.hh"
#include "sim/event_queue.hh"
#include "xfm/multichannel.hh"

#include "same_offset_oracle.hh"

namespace xfm
{
namespace
{

// ------------------------------------------------ address map sweep

using Geometry = std::tuple<int /*device*/, std::uint32_t /*chan*/,
                            std::uint32_t /*dimms*/>;

class AddressMapSweep : public ::testing::TestWithParam<Geometry>
{
  protected:
    dram::MemSystemConfig
    config() const
    {
        const auto [device, channels, dimms] = GetParam();
        dram::MemSystemConfig cfg;
        switch (device) {
          case 0:
            cfg.rank.device = dram::ddr5Device8Gb();
            break;
          case 1:
            cfg.rank.device = dram::ddr5Device16Gb();
            break;
          default:
            cfg.rank.device = dram::ddr5Device32Gb();
            break;
        }
        cfg.channels = channels;
        cfg.dimmsPerChannel = dimms;
        return cfg;
    }
};

TEST_P(AddressMapSweep, DecodeEncodeBijective)
{
    const auto cfg = config();
    dram::AddressMap map(cfg);
    Rng rng(42);
    for (int i = 0; i < 5000; ++i) {
        const std::uint64_t addr =
            rng.uniformInt(map.capacityBytes());
        const auto coord = map.decode(addr);
        ASSERT_EQ(map.encode(coord), addr);
        ASSERT_LT(coord.channel, cfg.channels);
        ASSERT_LT(coord.bank, map.banksPerRank());
        ASSERT_LT(coord.row, map.rowsPerBank());
    }
}

TEST_P(AddressMapSweep, DistinctCoordsForDistinctAddresses)
{
    const auto cfg = config();
    dram::AddressMap map(cfg);
    // Consecutive cache lines never collide in coordinates.
    for (std::uint64_t a = 0; a < 64 * 1024; a += 64) {
        const auto c1 = map.decode(a);
        const auto c2 = map.decode(a + 64);
        ASSERT_FALSE(c1 == c2);
    }
}

std::string
geometryName(const ::testing::TestParamInfo<Geometry> &info)
{
    static const char *names[] = {"8Gb", "16Gb", "32Gb"};
    return std::string(names[std::get<0>(info.param)]) + "_ch"
        + std::to_string(std::get<1>(info.param)) + "_dimm"
        + std::to_string(std::get<2>(info.param));
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, AddressMapSweep,
    ::testing::Combine(::testing::Values(0, 1, 2),
                       ::testing::Values(1u, 2u, 4u),
                       ::testing::Values(1u, 2u)),
    geometryName);

// ------------------------------------------------- event queue fuzz

TEST(PropertyEventQueue, MatchesReferenceOrdering)
{
    Rng rng(7);
    for (int trial = 0; trial < 20; ++trial) {
        EventQueue eq;
        struct Ref
        {
            Tick when;
            int priority;
            std::uint64_t seq;
        };
        std::vector<Ref> reference;
        std::vector<std::uint64_t> executed;
        std::uint64_t seq = 0;

        for (int i = 0; i < 300; ++i) {
            const Tick when = rng.uniformInt(1000);
            const int priority =
                static_cast<int>(rng.uniformInt(3)) * 10;
            const std::uint64_t id = seq++;
            eq.schedule(
                when, [&executed, id] { executed.push_back(id); },
                priority);
            reference.push_back({when, priority, id});
        }

        eq.run();
        std::stable_sort(reference.begin(), reference.end(),
                         [](const Ref &a, const Ref &b) {
            if (a.when != b.when)
                return a.when < b.when;
            if (a.priority != b.priority)
                return a.priority < b.priority;
            return a.seq < b.seq;
        });
        ASSERT_EQ(executed.size(), reference.size());
        for (std::size_t i = 0; i < executed.size(); ++i)
            ASSERT_EQ(executed[i], reference[i].seq) << "trial "
                                                     << trial;
    }
}

// ------------------------------------- same-offset allocator fuzz

TEST(PropertyAllocator, NoOverlapsAndExactAccounting)
{
    Rng rng(11);
    xfmsys::SameOffsetAllocator alloc(64 * 1024);
    std::map<std::uint64_t, std::uint32_t> model;  // offset -> size

    for (int op = 0; op < 5000; ++op) {
        if (model.empty() || rng.chance(0.6)) {
            const auto want = static_cast<std::uint32_t>(
                1 + rng.uniformInt(3000));
            const auto off = alloc.allocate(want);
            if (off == xfmsys::SameOffsetAllocator::invalidOffset)
                continue;
            const auto size = alloc.slotSize(off);
            ASSERT_GE(size, want);
            ASSERT_EQ(off % 64, 0u);
            ASSERT_LE(off + size, alloc.regionBytes());
            // No overlap with any model slot.
            for (const auto &[moff, msize] : model)
                ASSERT_TRUE(off + size <= moff
                            || moff + msize <= off);
            model.emplace(off, size);
        } else {
            auto it = model.begin();
            std::advance(it, rng.uniformInt(model.size()));
            alloc.release(it->first);
            model.erase(it);
        }
        std::uint64_t used = 0;
        for (const auto &[moff, msize] : model)
            used += msize;
        ASSERT_EQ(alloc.usedBytes(), used);
        ASSERT_EQ(alloc.slotCount(), model.size());
    }
}

TEST(PropertyAllocator, RepackPreservesSlotSizes)
{
    Rng rng(13);
    xfmsys::SameOffsetAllocator alloc(64 * 1024);
    std::vector<std::uint64_t> offsets;
    for (int i = 0; i < 40; ++i) {
        const auto off = alloc.allocate(
            static_cast<std::uint32_t>(64 + rng.uniformInt(2000)));
        if (off != xfmsys::SameOffsetAllocator::invalidOffset)
            offsets.push_back(off);
    }
    // Free a random half.
    std::uint64_t live = 0;
    std::vector<std::uint32_t> sizes;
    for (std::size_t i = 0; i < offsets.size(); ++i) {
        if (i % 2 == 0) {
            alloc.release(offsets[i]);
        } else {
            sizes.push_back(alloc.slotSize(offsets[i]));
            live += sizes.back();
        }
    }
    alloc.repack([](std::uint64_t, std::uint64_t, std::uint32_t) {});
    ASSERT_EQ(alloc.usedBytes(), live);
    // Slots are now densely packed from offset 0.
    ASSERT_EQ(alloc.highWaterMark(), live);
}

// ----------------------- same-offset allocator vs the linear walk

namespace
{

/**
 * The gap-indexed allocator and the linear first-fit oracle, driven
 * in lockstep. Every call compares the returned offset and moves,
 * then usedBytes, slotCount and highWaterMark.
 */
struct AllocatorPair
{
    explicit AllocatorPair(std::uint64_t region)
        : indexed(region), linear(region)
    {
    }

    std::uint64_t
    allocate(std::uint32_t bytes)
    {
        const auto off = indexed.allocate(bytes);
        EXPECT_EQ(off, linear.allocate(bytes))
            << "allocate(" << bytes << ") with " << live.size()
            << " live slots";
        if (off != xfmsys::SameOffsetAllocator::invalidOffset)
            live.push_back(off);
        compareTotals();
        return off;
    }

    void
    release(std::size_t i)
    {
        indexed.release(live[i]);
        linear.release(live[i]);
        live[i] = live.back();
        live.pop_back();
        compareTotals();
    }

    /** Repack both, pinning each live slot with probability @p p. */
    void
    repack(Rng &rng, double p)
    {
        std::set<std::uint64_t> pins;
        for (const auto off : live)
            if (rng.chance(p))
                pins.insert(off);
        using Move = std::tuple<std::uint64_t, std::uint64_t,
                                std::uint32_t>;
        std::vector<Move> got, want;
        const auto pinned = [&](std::uint64_t off) {
            return pins.count(off) != 0;
        };
        indexed.repack(
            [&](std::uint64_t o, std::uint64_t n, std::uint32_t len) {
                got.emplace_back(o, n, len);
            },
            pinned);
        linear.repack(
            [&](std::uint64_t o, std::uint64_t n, std::uint32_t len) {
                want.emplace_back(o, n, len);
            },
            pinned);
        EXPECT_EQ(got, want);
        std::map<std::uint64_t, std::uint64_t> moved;
        for (const auto &[o, n, len] : want)
            moved.emplace(o, n);
        for (auto &off : live) {
            const auto it = moved.find(off);
            if (it != moved.end())
                off = it->second;
        }
        compareTotals();
    }

    void
    compareTotals()
    {
        EXPECT_EQ(indexed.usedBytes(), linear.usedBytes());
        EXPECT_EQ(indexed.slotCount(), linear.slotCount());
        EXPECT_EQ(indexed.highWaterMark(), linear.highWaterMark());
    }

    xfmsys::SameOffsetAllocator indexed;
    xfmsys::LinearSameOffsetAllocator linear;
    std::vector<std::uint64_t> live;
};

/**
 * 1 B up to 12 KiB: single granules, XFM shard slots, and slots of
 * more than 64 granules (a 1-DIMM page slot is 4 KiB + 16 B) whose
 * free run spans several bitmap words.
 */
std::uint32_t
drawSlotBytes(Rng &rng)
{
    switch (rng.uniformInt(10)) {
      case 0:
        return static_cast<std::uint32_t>(1 + rng.uniformInt(64));
      case 1: case 2: case 3: case 4:
        return static_cast<std::uint32_t>(1 + rng.uniformInt(1024));
      case 5: case 6: case 7:
        return static_cast<std::uint32_t>(1 + rng.uniformInt(4096));
      case 8:
        return 4096 + 16;
      default:
        return static_cast<std::uint32_t>(4097 + rng.uniformInt(8192));
    }
}

} // namespace

TEST(AllocatorOracle, SeededSequencesMatchLinearWalk)
{
    // 256 B and 1 KiB are less than one bitmap word (64 granules),
    // 5000 B and 64 KiB + 200 B end inside a word and inside a
    // granule.
    for (const std::uint64_t region :
         {std::uint64_t(256), std::uint64_t(1024), std::uint64_t(5000),
          std::uint64_t(64 * 1024), std::uint64_t(64 * 1024 + 200),
          mib(16)}) {
        for (const std::uint64_t seed : {1, 2, 3}) {
            SCOPED_TRACE(testing::Message()
                         << "region " << region << " seed " << seed);
            Rng rng(seed * 7919 + region);
            AllocatorPair pair(region);
            for (int op = 0; op < 3000 && !HasFailure(); ++op) {
                const double dice = rng.uniformReal();
                if (pair.live.empty() || dice < 0.55)
                    pair.allocate(drawSlotBytes(rng));
                else if (dice < 0.98)
                    pair.release(rng.uniformInt(pair.live.size()));
                else
                    pair.repack(rng, rng.chance(0.5) ? 0.2 : 0.0);
            }
        }
    }
}

TEST(AllocatorOracle, FullRegionReturnsInvalidOffset)
{
    for (const std::uint64_t region :
         {std::uint64_t(32), std::uint64_t(64), std::uint64_t(100),
          std::uint64_t(256), std::uint64_t(1024),
          std::uint64_t(4096 + 64), std::uint64_t(64 * 1024)}) {
        SCOPED_TRACE(testing::Message() << "region " << region);
        AllocatorPair pair(region);
        while (pair.allocate(64)
               != xfmsys::SameOffsetAllocator::invalidOffset) {
        }
        EXPECT_EQ(pair.live.size(), region / 64);
        EXPECT_EQ(pair.allocate(1),
                  xfmsys::SameOffsetAllocator::invalidOffset);
        if (pair.live.size() < 3)
            continue;
        // One free granule in the middle: a two-granule slot still
        // fails, a one-granule slot takes exactly that gap.
        const auto hole = pair.live[pair.live.size() / 2];
        pair.release(pair.live.size() / 2);
        EXPECT_EQ(pair.allocate(65),
                  xfmsys::SameOffsetAllocator::invalidOffset);
        EXPECT_EQ(pair.allocate(64), hole);
    }
}

TEST(AllocatorOracle, FragmentedFleetRegionMatches)
{
    // The fleet's 16 MiB region at its peak of about 7,600 live
    // slots: mostly shard-sized slots, some whole-page ones.
    Rng rng(1001);
    AllocatorPair pair(mib(16));
    const auto fleetSlotBytes = [&] {
        return rng.chance(0.05)
            ? std::uint32_t(4096 + 16)
            : static_cast<std::uint32_t>(1 + rng.uniformInt(1100));
    };
    while (pair.live.size() < 7600 && !HasFailure()) {
        if (pair.live.empty() || rng.chance(0.7))
            pair.allocate(fleetSlotBytes());
        else
            pair.release(rng.uniformInt(pair.live.size()));
    }
    for (int round = 0; round < 2 && !HasFailure(); ++round) {
        for (int op = 0; op < 2000 && !HasFailure(); ++op) {
            pair.release(rng.uniformInt(pair.live.size()));
            pair.allocate(fleetSlotBytes());
        }
        pair.repack(rng, 0.1);
    }
    EXPECT_GE(pair.indexed.slotCount(), 7500u);
}

// --------------------------------------------------- zpool fuzz

TEST(PropertyZPool, FuzzAgainstShadowMap)
{
    dram::PhysMem mem(mib(32));
    sfm::ZPool pool(mem, 0, mib(1));
    Rng rng(17);
    std::map<sfm::ZHandle, Bytes> shadow;

    for (int op = 0; op < 4000; ++op) {
        const double dice = rng.uniformReal();
        if (shadow.empty() || dice < 0.55) {
            Bytes data(1 + rng.uniformInt(3500));
            for (auto &b : data)
                b = static_cast<std::uint8_t>(rng.next());
            const auto h = pool.insert(data);
            if (h != sfm::invalidZHandle)
                shadow.emplace(h, std::move(data));
        } else if (dice < 0.9) {
            auto it = shadow.begin();
            std::advance(it, rng.uniformInt(shadow.size()));
            pool.erase(it->first);
            shadow.erase(it);
        } else {
            pool.compact();
        }
        // Periodically verify every live object's bytes.
        if (op % 500 == 499) {
            for (const auto &[h, data] : shadow)
                ASSERT_EQ(pool.fetch(h), data);
        }
        ASSERT_EQ(pool.objectCount(), shadow.size());
        ASSERT_LE(pool.usedBytes() + pool.fragmentedBytes(),
                  pool.capacityBytes());
    }
    for (const auto &[h, data] : shadow)
        EXPECT_EQ(pool.fetch(h), data);
}

// ------------------------------------------------- phys mem fuzz

TEST(PropertyPhysMem, FuzzAgainstShadowBuffer)
{
    constexpr std::uint64_t span = 256 * 1024;
    dram::PhysMem mem(span);
    Bytes shadow(span, 0);
    Rng rng(19);

    for (int op = 0; op < 3000; ++op) {
        const std::uint64_t addr = rng.uniformInt(span - 1);
        const std::size_t len =
            1 + rng.uniformInt(std::min<std::uint64_t>(
                span - addr, 9000) - 1);
        if (rng.chance(0.5)) {
            Bytes data(len);
            for (auto &b : data)
                b = static_cast<std::uint8_t>(rng.next());
            mem.write(addr, data);
            std::copy(data.begin(), data.end(),
                      shadow.begin() + static_cast<long>(addr));
        } else {
            const Bytes got = mem.read(addr, len);
            ASSERT_EQ(got,
                      Bytes(shadow.begin() + static_cast<long>(addr),
                            shadow.begin()
                                + static_cast<long>(addr + len)));
        }
    }
}

} // namespace
} // namespace xfm
