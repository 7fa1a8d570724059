/**
 * @file
 * Google-benchmark microbenchmarks for the core substrates:
 * compression codecs (whole pages and single shards), the ZPool
 * and same-offset slot allocators, the event kernel, the
 * DRAM address map, and the LLC simulator.
 */

#include <benchmark/benchmark.h>

#include <vector>

#include "common/random.hh"
#include "compress/compressor.hh"
#include "compress/corpus.hh"
#include "dram/address_map.hh"
#include "dram/mem_ctrl.hh"
#include "dram/phys_mem.hh"
#include "interference/cache.hh"
#include "sfm/zpool.hh"
#include "sim/event_queue.hh"
#include "xfm/multichannel.hh"

using namespace xfm;

namespace
{

Bytes
testPage(compress::CorpusKind kind)
{
    return compress::generateCorpus(kind, 99, pageBytes);
}

void
BM_Compress(benchmark::State &state)
{
    const auto algo =
        static_cast<compress::Algorithm>(state.range(0));
    const auto codec = compress::makeCompressor(algo);
    const Bytes page = testPage(compress::CorpusKind::LogLines);
    std::size_t out_bytes = 0;
    for (auto _ : state) {
        const Bytes block = codec->compress(page);
        benchmark::DoNotOptimize(block.data());
        out_bytes = block.size();
    }
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations() * page.size()));
    state.counters["ratio"] =
        static_cast<double>(page.size())
        / static_cast<double>(out_bytes);
}
BENCHMARK(BM_Compress)
    ->Arg(static_cast<int>(compress::Algorithm::LzFast))
    ->Arg(static_cast<int>(compress::Algorithm::Deflate))
    ->Arg(static_cast<int>(compress::Algorithm::ZstdLike));

void
BM_Decompress(benchmark::State &state)
{
    const auto algo =
        static_cast<compress::Algorithm>(state.range(0));
    const auto codec = compress::makeCompressor(algo);
    const Bytes page = testPage(compress::CorpusKind::LogLines);
    const Bytes block = codec->compress(page);
    for (auto _ : state) {
        const Bytes raw = codec->decompress(block);
        benchmark::DoNotOptimize(raw.data());
    }
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations() * page.size()));
}
BENCHMARK(BM_Decompress)
    ->Arg(static_cast<int>(compress::Algorithm::LzFast))
    ->Arg(static_cast<int>(compress::Algorithm::Deflate))
    ->Arg(static_cast<int>(compress::Algorithm::ZstdLike));

/**
 * One shard of the sizes the system compresses: shard 0 of a
 * LogLines page split over range(1) DIMMs at the default interleave
 * (LzFast over 4 DIMMs is the NMA workload's 1 KiB shard, ZstdLike
 * over 8 the CPU workloads' 512 B one). Every iteration compresses
 * the same shard, which the branch predictors learn: a stream of
 * different shards costs several times more per shard.
 */
void
BM_CompressShard(benchmark::State &state)
{
    const auto algo =
        static_cast<compress::Algorithm>(state.range(0));
    const auto codec = compress::makeCompressor(algo);
    const Bytes shard =
        xfmsys::splitPage(testPage(compress::CorpusKind::LogLines),
                          static_cast<std::size_t>(state.range(1)))
            .front();
    Bytes block;
    for (auto _ : state) {
        codec->compressInto(shard, block);
        benchmark::DoNotOptimize(block.data());
    }
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations() * shard.size()));
    state.counters["ratio"] =
        static_cast<double>(shard.size())
        / static_cast<double>(block.size());
}
BENCHMARK(BM_CompressShard)
    ->Args({static_cast<int>(compress::Algorithm::LzFast), 4})
    ->Args({static_cast<int>(compress::Algorithm::ZstdLike), 8});

void
BM_ZPoolInsertErase(benchmark::State &state)
{
    dram::PhysMem mem(gib(1));
    sfm::ZPool pool(mem, 0, mib(64));
    const Bytes obj(state.range(0), 0x5A);
    for (auto _ : state) {
        const sfm::ZHandle h = pool.insert(obj);
        benchmark::DoNotOptimize(h);
        pool.erase(h);
    }
}
BENCHMARK(BM_ZPoolInsertErase)->Arg(512)->Arg(1365)->Arg(4096);

void
BM_SameOffsetAllocate(benchmark::State &state)
{
    // The fleet's 16 MiB SFM region fragmented to range(0) live
    // slots; each iteration frees a random slot and places a new one.
    xfmsys::SameOffsetAllocator alloc(mib(16));
    Rng rng(3);
    const auto slot_bytes = [&] {
        return static_cast<std::uint32_t>(1 + rng.uniformInt(1100));
    };
    std::vector<std::uint64_t> live;
    while (live.size() < static_cast<std::size_t>(state.range(0))) {
        if (!live.empty() && rng.chance(0.3)) {
            const std::size_t i = rng.uniformInt(live.size());
            alloc.release(live[i]);
            live[i] = live.back();
            live.pop_back();
        } else {
            live.push_back(alloc.allocate(slot_bytes()));
        }
    }
    for (auto _ : state) {
        const std::size_t i = rng.uniformInt(live.size());
        alloc.release(live[i]);
        live[i] = alloc.allocate(slot_bytes());
        benchmark::DoNotOptimize(live[i]);
        if (live[i] == xfmsys::SameOffsetAllocator::invalidOffset) {
            state.SkipWithError("SFM region full");
            break;
        }
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SameOffsetAllocate)->Arg(7600);

void
BM_EventQueueScheduleRun(benchmark::State &state)
{
    for (auto _ : state) {
        EventQueue eq;
        std::uint64_t sink = 0;
        for (int i = 0; i < 1000; ++i)
            eq.schedule(static_cast<Tick>(i), [&sink] { ++sink; });
        eq.run();
        benchmark::DoNotOptimize(sink);
    }
    state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventQueueScheduleRun);

void
BM_AddressMapDecode(benchmark::State &state)
{
    const auto cfg = dram::defaultMemSystem();
    dram::AddressMap map(cfg);
    Rng rng(1);
    for (auto _ : state) {
        const auto coord =
            map.decode(rng.uniformInt(map.capacityBytes()));
        benchmark::DoNotOptimize(coord);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AddressMapDecode);

void
BM_LlcAccess(benchmark::State &state)
{
    interference::SetAssocCache llc(16ull << 20, 16, 64, 1);
    Rng rng(2);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            llc.access(rng.uniformInt(64ull << 20), 0));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LlcAccess);

void
BM_MemCtrlPageRead(benchmark::State &state)
{
    for (auto _ : state) {
        EventQueue eq;
        const auto cfg = dram::defaultMemSystem();
        dram::MemCtrl ctrl("memctrl", eq, cfg, nullptr);
        for (int i = 0; i < 16; ++i)
            ctrl.submit({std::uint64_t(i) * 4096, 4096, false,
                         nullptr});
        eq.run();
        benchmark::DoNotOptimize(ctrl.stats().bytesRead);
    }
    state.SetItemsProcessed(state.iterations() * 16);
}
BENCHMARK(BM_MemCtrlPageRead);

} // namespace

BENCHMARK_MAIN();
