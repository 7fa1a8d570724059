/**
 * @file
 * Unit tests for the async NMA command rings (nma/ring.hh): SQ slab
 * allocation and backpressure, CQ phase-bit wraparound, generation
 * tags and stale-record rejection, and an integration case
 * asserting byte-identical page reassembly when completions arrive
 * out of order at queue depth 8.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <vector>

#include "common/random.hh"
#include "dram/address_map.hh"
#include "dram/phys_mem.hh"
#include "dram/refresh.hh"
#include "nma/ring.hh"
#include "nma/xfm_device.hh"
#include "xfm/xfm_driver.hh"

namespace xfm
{
namespace nma
{
namespace
{

OffloadRequest
compressReq(std::uint64_t src = 0x1000)
{
    OffloadRequest req;
    req.kind = OffloadKind::Compress;
    req.srcAddr = src;
    req.size = 4096;
    return req;
}

TEST(SubmissionQueueTest, PushAssignsLowestFreeSlotGenerationOne)
{
    CommandRing ring(4);
    auto &sq = ring.sq();
    for (std::uint32_t i = 0; i < 4; ++i) {
        const CommandTag tag = sq.push(compressReq(), 0);
        ASSERT_NE(tag, invalidOffloadId);
        EXPECT_EQ(slotOf(tag), i);
        EXPECT_EQ(generationOf(tag), 1u);
    }
    EXPECT_TRUE(sq.full());
    EXPECT_EQ(sq.inFlight(), 4u);
    EXPECT_EQ(ring.stats().sqEnqueues, 4u);
}

TEST(SubmissionQueueTest, FullSqBackpressureRejectsWithoutReuse)
{
    CommandRing ring(4);
    auto &sq = ring.sq();
    std::vector<CommandTag> tags;
    for (int i = 0; i < 4; ++i)
        tags.push_back(sq.push(compressReq(), 0));
    // Fifth push finds no free slot: exact backpressure, no tag.
    EXPECT_EQ(sq.push(compressReq(), 0), invalidOffloadId);
    EXPECT_EQ(ring.stats().sqFullRejects, 1u);
    // Every in-flight tag is still the live generation of its slot:
    // nothing was evicted or reused to make room.
    for (const CommandTag tag : tags)
        EXPECT_TRUE(sq.validTag(tag));

    // Retiring one slot frees exactly that slot; the replacement
    // command gets a bumped generation so the old tag goes stale.
    ASSERT_TRUE(sq.retire(tags[2]));
    const CommandTag fresh = sq.push(compressReq(), 0);
    ASSERT_NE(fresh, invalidOffloadId);
    EXPECT_EQ(slotOf(fresh), 2u);
    EXPECT_EQ(generationOf(fresh), 2u);
    EXPECT_FALSE(sq.validTag(tags[2]));
    EXPECT_TRUE(sq.validTag(fresh));
}

TEST(SubmissionQueueTest, NoDescriptorReuseWhileInFlight)
{
    CommandRing ring(2);
    auto &sq = ring.sq();
    std::set<CommandTag> seen;
    // Cycle the ring far past its depth: a tag may only repeat if
    // its command was retired first, so across the whole run every
    // issued tag is unique.
    for (int i = 0; i < 100; ++i) {
        const CommandTag tag = sq.push(compressReq(), i);
        ASSERT_NE(tag, invalidOffloadId);
        EXPECT_TRUE(seen.insert(tag).second)
            << "tag reused while a prior command could own the slot";
        sq.ringDoorbell(i);
        CommandDescriptor d;
        ASSERT_TRUE(sq.consume(d));
        EXPECT_EQ(d.req.id, tag);
        ASSERT_TRUE(sq.retire(tag));
    }
    EXPECT_EQ(ring.stats().consumed, 100u);
}

TEST(SubmissionQueueTest, DoorbellOrderPreservedAcrossBatches)
{
    CommandRing ring(8);
    auto &sq = ring.sq();
    // Two staged batches, one doorbell each: the device must see
    // all of batch A before any of batch B, in push order.
    std::vector<CommandTag> order;
    for (int i = 0; i < 3; ++i)
        order.push_back(sq.push(compressReq(), 0));
    EXPECT_EQ(sq.stagedCount(), 3u);
    sq.ringDoorbell(10);
    EXPECT_EQ(sq.stagedCount(), 0u);
    for (int i = 0; i < 2; ++i)
        order.push_back(sq.push(compressReq(), 0));
    sq.ringDoorbell(20);
    for (const CommandTag expect : order) {
        CommandDescriptor d;
        ASSERT_TRUE(sq.consume(d));
        EXPECT_EQ(d.req.id, expect);
    }
    CommandDescriptor d;
    EXPECT_FALSE(sq.consume(d));
}

TEST(SubmissionQueueTest, StagedEntriesInvisibleUntilDoorbell)
{
    CommandRing ring(4);
    auto &sq = ring.sq();
    sq.push(compressReq(), 0);
    CommandDescriptor d;
    // Written but not covered by a doorbell: the device sees nothing.
    EXPECT_FALSE(sq.consume(d));
    sq.ringDoorbell(5);
    EXPECT_TRUE(sq.consume(d));
}

TEST(CompletionQueueTest, PhaseBitFlipsOnEveryWrap)
{
    CommandRing ring(4);  // CQ depth = 2*4 + 2 = 10
    auto &cq = ring.cq();
    const std::uint32_t depth = cq.depth();
    ASSERT_EQ(depth, 10u);
    // Three full laps, one record at a time: every record must reap
    // exactly once even as the device phase flips at each wrap.
    for (std::uint64_t i = 0; i < 3u * depth; ++i) {
        CompletionRecord rec;
        rec.tag = makeTag(1, 0);
        rec.type = CompletionType::Complete;
        ASSERT_TRUE(cq.post(rec, i));
        CompletionRecord out;
        ASSERT_TRUE(cq.reap(out));
        EXPECT_FALSE(cq.reap(out));  // old-phase leftovers unreadable
    }
    EXPECT_EQ(ring.stats().phaseFlips, 3u);
    EXPECT_EQ(ring.stats().reaped, 3u * depth);
    EXPECT_EQ(cq.headIndex(), 3u * depth);
}

TEST(CompletionQueueTest, BatchReapAcrossWrapBoundary)
{
    CommandRing ring(2);  // CQ depth = 6
    auto &cq = ring.cq();
    // Post 4, reap 4, post 4 (wrapping), reap 4: the second batch
    // straddles the wrap so its records carry both phases.
    for (int lap = 0; lap < 2; ++lap) {
        for (std::uint64_t i = 0; i < 4; ++i) {
            CompletionRecord rec;
            rec.tag = makeTag(1, static_cast<std::uint32_t>(i % 2));
            ASSERT_TRUE(cq.post(rec, i));
        }
        EXPECT_EQ(cq.pending(), 4u);
        CompletionRecord out;
        int reaped = 0;
        while (cq.reap(out))
            ++reaped;
        EXPECT_EQ(reaped, 4);
        EXPECT_EQ(cq.pending(), 0u);
    }
    EXPECT_EQ(ring.stats().phaseFlips, 1u);
}

TEST(CompletionQueueTest, PostFailsOnlyWhenTrulyFull)
{
    CommandRing ring(1);  // CQ depth = 4
    auto &cq = ring.cq();
    CompletionRecord rec;
    rec.tag = makeTag(1, 0);
    for (int i = 0; i < 4; ++i)
        ASSERT_TRUE(cq.post(rec, 0));
    // A fifth post would overwrite an unreaped record: refused. The
    // device treats this as fatal because the 2*depth+2 sizing makes
    // it unreachable in normal operation.
    EXPECT_FALSE(cq.post(rec, 0));
    CompletionRecord out;
    ASSERT_TRUE(cq.reap(out));
    EXPECT_TRUE(cq.post(rec, 0));
}

TEST(RingTest, StaleGenerationTagRejectedAtReap)
{
    CommandRing ring(4);
    auto &sq = ring.sq();
    auto &cq = ring.cq();
    const CommandTag tag = sq.push(compressReq(), 0);
    sq.ringDoorbell(0);
    CommandDescriptor d;
    ASSERT_TRUE(sq.consume(d));
    // Device posts the completion...
    CompletionRecord rec;
    rec.tag = tag;
    rec.type = CompletionType::Complete;
    ASSERT_TRUE(cq.post(rec, 10));
    // ...but the command is aborted before the driver reaps: the
    // slot is retired and its generation bumped.
    ASSERT_TRUE(sq.retire(tag));
    EXPECT_FALSE(sq.retire(tag));  // idempotent: already stale
    // The record still reaps (the ring protocol knows nothing of
    // aborts) but its tag no longer names a live generation — this
    // is exactly the check the driver applies before dispatching.
    CompletionRecord out;
    ASSERT_TRUE(cq.reap(out));
    EXPECT_FALSE(sq.validTag(out.tag));
    // A new command reusing the slot is distinguishable by tag.
    const CommandTag fresh = sq.push(compressReq(), 1);
    EXPECT_EQ(slotOf(fresh), slotOf(tag));
    EXPECT_NE(fresh, tag);
    EXPECT_TRUE(sq.validTag(fresh));
}

TEST(RingTest, CancelRemovesUnconsumedAndRetires)
{
    CommandRing ring(4);
    auto &sq = ring.sq();
    const CommandTag staged = sq.push(compressReq(), 0);
    const CommandTag visible = sq.push(compressReq(), 0);
    sq.ringDoorbell(0);
    const CommandTag late = sq.push(compressReq(), 0);
    // Abort one visible and one still-staged command: both vanish
    // from the device's view and free their slots immediately.
    EXPECT_TRUE(sq.cancel(visible));
    EXPECT_TRUE(sq.cancel(late));
    CommandDescriptor d;
    ASSERT_TRUE(sq.consume(d));
    EXPECT_EQ(d.req.id, staged);
    EXPECT_FALSE(sq.consume(d));
    // A consumed command cannot be cancelled (the device owns it).
    EXPECT_FALSE(sq.cancel(staged));
    EXPECT_EQ(sq.inFlight(), 1u);
}

/**
 * Integration: queue depth 8 with completions reaped out of
 * submission order must reassemble every page byte-identically.
 */
class RingIntegrationTest : public ::testing::Test
{
  protected:
    RingIntegrationTest()
        : cfg_(rankConfig()), map_(cfg_),
          mem_(cfg_.totalCapacityBytes()),
          refresh_("refresh", eq_, cfg_.rank.device, 1)
    {}

    static dram::MemSystemConfig
    rankConfig()
    {
        dram::MemSystemConfig cfg;
        cfg.rank.device = dram::ddr5Device32Gb();
        cfg.channels = 1;
        cfg.dimmsPerChannel = 1;
        cfg.ranksPerDimm = 1;
        return cfg;
    }

    void
    makeStack(std::uint32_t sq_depth, std::uint32_t cq_coalesce)
    {
        XfmDeviceConfig dcfg;
        dcfg.sqDepth = sq_depth;
        dcfg.cqCoalesce = cq_coalesce;
        device_.emplace("xfm", eq_, dcfg, map_, mem_, refresh_);
        driver_.emplace(*device_);
        refresh_.start();
    }

    std::uint64_t
    rowAddr(std::uint32_t row) const
    {
        dram::DramCoord c{};
        c.row = row;
        return map_.encode(c);
    }

    Bytes
    pagePattern(std::uint32_t seed) const
    {
        // Mildly compressible, unique per page: run lengths keyed
        // off the seed so every page compresses to a distinct size
        // and the engine completes them at different windows.
        Bytes page(4096);
        Rng rng(seed);
        std::size_t i = 0;
        while (i < page.size()) {
            const std::uint8_t v =
                static_cast<std::uint8_t>(rng.next());
            std::size_t run = 1 + rng.next() % (8 + seed % 64);
            run = std::min(run, page.size() - i);
            std::fill_n(page.begin() + i, run, v);
            i += run;
        }
        return page;
    }

    EventQueue eq_;
    dram::MemSystemConfig cfg_;
    dram::AddressMap map_;
    dram::PhysMem mem_;
    dram::RefreshController refresh_;
    std::optional<XfmDevice> device_;
    std::optional<xfmsys::XfmDriver> driver_;
};

TEST_F(RingIntegrationTest, OutOfOrderCompletionsReassembleBytes)
{
    constexpr std::uint32_t pages = 8;
    makeStack(pages, 2);

    // Source rows scattered across the bank so refresh windows reach
    // them at different times — completions post out of order with
    // respect to submission.
    const std::uint32_t src_rows[pages] = {5,     40000, 200,  60000,
                                           12000, 3,     52000, 700};
    std::vector<Bytes> originals;
    for (std::uint32_t p = 0; p < pages; ++p) {
        originals.push_back(pagePattern(p + 1));
        mem_.write(rowAddr(src_rows[p]), originals.back());
    }

    std::map<nma::OffloadId, std::uint32_t> page_of;
    std::map<std::uint32_t, std::uint32_t> csize;
    std::vector<std::uint32_t> completion_order;
    driver_->onComplete([&](const OffloadCompletion &c) {
        const std::uint32_t p = page_of.at(c.id);
        completion_order.push_back(p);
        csize[p] = c.outputSize;
        driver_->commitWriteback(c.id, rowAddr(10000 + 16 * p));
    });

    // One tREFI batch of 8 submissions: a single doorbell covers all
    // of them (batched MMIO) and the SQ runs at full depth.
    for (std::uint32_t p = 0; p < pages; ++p) {
        const auto id = driver_->xfmCompress(rowAddr(src_rows[p]),
                                             4096, maxTick);
        ASSERT_NE(id, invalidOffloadId);
        page_of[id] = p;
    }
    eq_.run(cfg_.rank.device.retention);
    ASSERT_EQ(completion_order.size(), pages);
    EXPECT_FALSE(std::is_sorted(completion_order.begin(),
                                completion_order.end()))
        << "workload failed to exercise out-of-order completion";

    // Decompress every page back and compare byte-for-byte.
    page_of.clear();
    std::uint32_t restored = 0;
    driver_->onComplete([&](const OffloadCompletion &) {});
    driver_->onWriteback([&](OffloadId, Tick) { ++restored; });
    for (std::uint32_t p = 0; p < pages; ++p) {
        const auto id = driver_->xfmDecompress(
            rowAddr(10000 + 16 * p), csize.at(p),
            rowAddr(30000 + 16 * p), 4096, maxTick);
        ASSERT_NE(id, invalidOffloadId);
        page_of[id] = p;
    }
    eq_.run(2 * cfg_.rank.device.retention);
    ASSERT_EQ(restored, pages);
    for (std::uint32_t p = 0; p < pages; ++p) {
        EXPECT_EQ(mem_.read(rowAddr(30000 + 16 * p), 4096),
                  originals[p])
            << "page " << p << " corrupted through the ring";
    }

    // Ring bookkeeping closed out: every slot reclaimed, every
    // record reaped, nothing stale or stranded.
    const auto &rs = device_->ring().stats();
    EXPECT_EQ(rs.sqEnqueues, 2u * pages);
    EXPECT_EQ(rs.consumed, 2u * pages);
    EXPECT_EQ(rs.cqPosts, rs.reaped);
    EXPECT_EQ(rs.staleRejected, 0u);
    EXPECT_EQ(device_->ring().sq().inFlight(), 0u);
    // Batched doorbells: 8 same-tick submissions per phase cost far
    // fewer MMIO writes than one-per-command.
    EXPECT_LE(rs.doorbells, 4u);
}

TEST_F(RingIntegrationTest, AbortInFlightRejectsLateRecord)
{
    makeStack(8, 1);
    mem_.write(rowAddr(5), Bytes(4096, 0x11));
    // Row 5 is refreshed in window 0; abort after the doorbell flush
    // but before the window executes it.
    const auto id =
        driver_->xfmCompress(rowAddr(5), 4096, maxTick);
    ASSERT_NE(id, invalidOffloadId);
    bool completed = false;
    driver_->onComplete(
        [&](const OffloadCompletion &) { completed = true; });
    eq_.scheduleIn(1, [&] { driver_->abort(id); });
    eq_.run(cfg_.rank.device.retention);
    EXPECT_FALSE(completed);
    EXPECT_EQ(device_->ring().sq().inFlight(), 0u);
}

} // namespace
} // namespace nma
} // namespace xfm
