/**
 * @file
 * Far-memory tier comparison: fault-service latency and capacity
 * economics of the three implementations the paper discusses —
 * SFM on the CPU (zswap), DFM over a CXL-class link, and XFM.
 *
 * DFM wins per-fault latency (no decompression), SFM wins cost and
 * elasticity (Sec. 3), and XFM keeps SFM's economics while moving
 * the predictable promotions off the CPU entirely: only the
 * unpredicted faults still pay the CPU decompression price.
 */

#include <cstdio>

#include "compress/corpus.hh"
#include "costmodel/cost_model.hh"
#include "dram/phys_mem.hh"
#include "sfm/cpu_backend.hh"
#include "sfm/dfm_backend.hh"
#include "xfm/xfm_backend.hh"

using namespace xfm;
using namespace xfm::sfm;

int
main()
{
    std::printf("Far-memory tier comparison: fault-service latency "
                "for one 4 KiB page\n\n");

    EventQueue eq;
    dram::PhysMem mem(mib(256));
    const Bytes page = compress::generateCorpus(
        compress::CorpusKind::KeyValue, 1, pageBytes);

    // --- SFM on the CPU (zswap / zstd-class) ----------------------
    CpuBackendConfig scfg;
    scfg.localBase = 0;
    scfg.localPages = 16;
    scfg.sfmBase = mib(64);
    scfg.sfmBytes = mib(1);
    CpuSfmBackend sfm_backend("sfm", eq, scfg, mem);
    mem.write(sfm_backend.frameAddr(0), page);
    sfm_backend.swapOut(0, nullptr);
    eq.run();
    Tick start = eq.now();
    Tick sfm_latency = 0;
    sfm_backend.swapIn(0, false, [&](const SwapOutcome &o) {
        sfm_latency = o.completed - start;
    });
    eq.run();

    // --- DFM over a CXL-class link ---------------------------------
    DfmBackendConfig dcfg;
    dcfg.localBase = mib(128);
    dcfg.localPages = 16;
    dcfg.poolBase = mib(192);
    dcfg.poolBytes = mib(1);
    DfmBackend dfm_backend("dfm", eq, dcfg, mem);
    mem.write(dfm_backend.frameAddr(0), page);
    dfm_backend.swapOut(0, nullptr);
    eq.run();
    start = eq.now();
    Tick dfm_latency = 0;
    dfm_backend.swapIn(0, false, [&](const SwapOutcome &o) {
        dfm_latency = o.completed - start;
    });
    eq.run();

    // --- XFM: predicted promotion (NMA) vs demand fault (CPU) -----
    EventQueue eq2;
    xfmsys::XfmSystemConfig xcfg;
    xcfg.numDimms = 4;
    xcfg.localPages = 16;
    xcfg.sfmBase = gib(1);
    xcfg.sfmBytes = mib(4);
    xfmsys::XfmBackend xfm_backend("xfm", eq2, xcfg);
    xfm_backend.start();
    xfm_backend.writePage(0, page);
    xfm_backend.swapOut(0, nullptr);
    eq2.run(seconds(0.05));
    start = eq2.now();
    Tick xfm_prefetch_latency = 0;
    xfm_backend.swapIn(0, true, [&](const SwapOutcome &o) {
        xfm_prefetch_latency = o.completed - start;
    });
    eq2.run(eq2.now() + seconds(0.05));

    std::printf("%-36s %12s %s\n", "tier", "latency", "notes");
    std::printf("%-36s %9.1f us CPU zstd-class decompression\n",
                "SFM demand fault (CPU)",
                ticksToUs(sfm_latency));
    std::printf("%-36s %9.1f us link latency + 4 KiB transfer, "
                "0 CPU cycles\n",
                "DFM fetch (CXL-class)", ticksToUs(dfm_latency));
    std::printf("%-36s %9.1f us refresh-window promotion "
                "(hidden when predicted ahead)\n",
                "XFM NMA promotion", ticksToUs(xfm_prefetch_latency));
    std::printf("%-36s %12s identical to the SFM row by design "
                "(CPU_Fallback)\n",
                "XFM unpredicted fault", "same as SFM");

    // --- the economics side (Sec. 3) -------------------------------
    costmodel::CostParams p;
    p.promotionRate = 0.2;
    costmodel::FarMemoryCostModel model(p);
    const auto sfm5 = model.sfm(5.0);
    const auto dfm5 = model.dfm(costmodel::DfmTech::Dram, 5.0);
    std::printf("\n5-year cost of 512 GB extra capacity at 20%% "
                "promotion (Sec. 3.1):\n");
    std::printf("  SFM/XFM : $%.0f  (%.0f kg CO2eq)\n",
                sfm5.totalUSD(), sfm5.totalKgCO2());
    std::printf("  DFM-DRAM: $%.0f  (%.0f kg CO2eq)\n",
                dfm5.totalUSD(), dfm5.totalKgCO2());
    std::printf("\nDFM buys fault latency with capital and carbon; "
                "XFM keeps SFM's economics and hides the latency "
                "behind prediction.\n");
    return 0;
}
