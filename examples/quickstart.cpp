/**
 * @file
 * Quickstart: stand up an XFM memory system (4 DIMMs in
 * multi-channel mode), demote pages into compressed far memory via
 * NMA offloads, promote them back, and verify the data.
 *
 * Build & run:
 *   cmake -B build -G Ninja && cmake --build build
 *   ./build/examples/quickstart
 */

#include <cstdio>

#include "compress/corpus.hh"
#include "xfm/xfm_backend.hh"

using namespace xfm;
using namespace xfm::xfmsys;

int
main()
{
    // 1. Describe the system: four single-rank DIMMs built from
    //    32 Gb DDR5 devices; a 16 MiB SFM region on each DIMM.
    XfmSystemConfig cfg;
    cfg.numDimms = 4;
    cfg.localPages = 64;
    cfg.sfmBase = gib(1);
    cfg.sfmBytes = mib(16);

    EventQueue eq;
    XfmBackend backend("xfm", eq, cfg);
    backend.start();  // refresh engine ticking

    // 2. Populate some application pages.
    std::vector<Bytes> pages;
    for (sfm::VirtPage p = 0; p < 8; ++p) {
        pages.push_back(compress::generateCorpus(
            compress::CorpusKind::Json, p, pageBytes));
        backend.writePage(p, pages.back());
    }

    // 3. Demote them: the NMA on each DIMM compresses its shard of
    //    every page during DRAM refresh windows.
    std::uint64_t stored = 0;
    for (sfm::VirtPage p = 0; p < 8; ++p) {
        backend.swapOut(p, [&](const sfm::SwapOutcome &o) {
            std::printf("swap-out page %llu: %s via %s, %u B "
                        "compressed, done at %s\n",
                        (unsigned long long)o.page,
                        o.success ? "ok" : "FAILED",
                        o.usedCpu ? "CPU" : "NMA",
                        o.compressedSize,
                        formatTicks(o.completed).c_str());
            stored += o.compressedSize;
        });
    }
    eq.run(seconds(0.05));

    std::printf("\nfar pages: %llu, stored %s (of %s raw), "
                "fragmentation %s\n",
                (unsigned long long)backend.farPageCount(),
                formatBytes(backend.storedCompressedBytes()).c_str(),
                formatBytes(8 * pageBytes).c_str(),
                formatBytes(backend.fragmentationBytes()).c_str());

    // 4. Promote them back with offload (prefetch path) and check
    //    the data survived the round trip.
    for (sfm::VirtPage p = 0; p < 8; ++p)
        backend.swapIn(p, /*allow_offload=*/true, nullptr);
    eq.run(seconds(0.1));

    int intact = 0;
    for (sfm::VirtPage p = 0; p < 8; ++p)
        if (backend.readPage(p) == pages[p])
            ++intact;
    std::printf("round-trip intact pages: %d/8\n", intact);

    // 5. Show the device-side statistics.
    const auto &xs = backend.xfmStats();
    std::printf("\noffloaded swap-outs: %llu, swap-ins: %llu, CPU "
                "fallbacks: %llu\n",
                (unsigned long long)xs.offloadedSwapOuts,
                (unsigned long long)xs.offloadedSwapIns,
                (unsigned long long)(xs.fallbackCapacity
                                     + xs.fallbackDeadline));
    for (std::size_t d = 0; d < cfg.numDimms; ++d) {
        const auto &ds = backend.driver(d).device().stats();
        std::printf("dimm%zu: %llu conditional + %llu random "
                    "accesses, %.1f%% access energy saved\n",
                    d,
                    (unsigned long long)ds.conditionalAccesses,
                    (unsigned long long)ds.randomAccesses,
                    100.0 * ds.energySavedFraction());
    }
    return intact == 8 ? 0 : 1;
}
