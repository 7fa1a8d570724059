/**
 * @file
 * Refresh-timeline visualiser (qualitative reproduction of Fig. 5
 * and Fig. 10): traces a few tREFI intervals of one rank, showing
 * when the all-bank refresh windows open, which rows they cover,
 * and how the NMA batches and executes conditional/random accesses
 * inside them while the CPU-visible bus stays untouched.
 *
 * Run: ./build/examples/refresh_timeline
 */

#include <cstdio>

#include "dram/address_map.hh"
#include "dram/phys_mem.hh"
#include "dram/refresh.hh"
#include "nma/xfm_device.hh"
#include "xfm/xfm_driver.hh"

using namespace xfm;
using namespace xfm::nma;

int
main()
{
    dram::MemSystemConfig cfg;
    cfg.rank.device = dram::ddr5Device32Gb();
    cfg.channels = 1;
    cfg.dimmsPerChannel = 1;
    cfg.ranksPerDimm = 1;

    EventQueue eq;
    dram::AddressMap map(cfg);
    dram::PhysMem mem(cfg.totalCapacityBytes());
    dram::RefreshController refresh("refresh", eq,
                                    cfg.rank.device, 1);

    XfmDeviceConfig dcfg;
    dcfg.maxAccessesPerWindow = 3;
    XfmDevice device("xfm0", eq, dcfg, map, mem, refresh);
    xfmsys::XfmDriver driver(device);

    auto addr_of_row = [&](std::uint32_t row) {
        dram::DramCoord c{};
        c.row = row;
        return map.encode(c);
    };

    refresh.addListener([&](const dram::RefreshWindow &w) {
        std::printf("[%9s] REF: tRFC window until %s, refreshing "
                    "rows %u..%u in every bank\n",
                    formatTicks(w.start).c_str(),
                    formatTicks(w.end).c_str(), w.firstRow,
                    w.firstRow + w.rowCount - 1);
    });
    driver.onComplete([&](const OffloadCompletion &c) {
        std::printf("[%9s]   engine: offload %llu %s -> %u B "
                    "(staged in SPM)\n",
                    formatTicks(c.finished).c_str(),
                    (unsigned long long)c.id,
                    c.kind == OffloadKind::Compress ? "compressed"
                                                    : "decompressed",
                    c.outputSize);
        if (c.kind == OffloadKind::Compress)
            driver.commitWriteback(c.id, addr_of_row(40));
    });
    driver.onWriteback([&](OffloadId id, Tick t) {
        std::printf("[%9s]   write-back: offload %llu output now in "
                    "DRAM\n",
                    formatTicks(t).c_str(), (unsigned long long)id);
    });

    // Offload A targets row 5 (inside the very first refresh set:
    // conditional). Offload B targets row 60000 (random SALP slot).
    mem.write(addr_of_row(5), Bytes(4096, 0xA5));
    mem.write(addr_of_row(60000), Bytes(4096, 0x5A));

    std::printf("[%9s] submit compress of row 5 (refresh-aligned)\n",
                formatTicks(eq.now()).c_str());
    driver.xfmCompress(addr_of_row(5), 4096, maxTick);

    std::printf("[%9s] submit decompress from row 60000 (random "
                "access)\n",
                formatTicks(eq.now()).c_str());
    // Pre-stage a compressed block so the decompression has real
    // input (content irrelevant for the timeline).
    CompressionEngine eng(compress::Algorithm::ZstdLike);
    const Bytes block = eng.compress(Bytes(4096, 0x11)).first;
    mem.write(addr_of_row(60000), block);
    driver.xfmDecompress(addr_of_row(60000),
                         static_cast<std::uint32_t>(block.size()),
                         addr_of_row(70000), 4096, maxTick);

    refresh.start();
    eq.run(5 * cfg.rank.device.tREFI());

    const auto &st = device.stats();
    std::printf("\nAfter 5 tREFI: %llu conditional + %llu random "
                "accesses, %llu windows, min offload latency ~2 x "
                "tREFI (Fig. 10)\n",
                (unsigned long long)st.conditionalAccesses,
                (unsigned long long)st.randomAccesses,
                (unsigned long long)st.windows);
    return 0;
}
