/**
 * @file
 * Reproduces Fig. 11: interference between SPEC-like workloads and
 * co-running SFM swap traffic (512 GB SFM, 14% promotion rate)
 * under Baseline-CPU, Host-Lockout-NMA, and XFM interfaces, plus
 * the abstract's combined-performance summary (XFM improves the
 * combined performance of co-running applications by 5~27%).
 */

#include <cmath>
#include <cstdio>
#include <memory>
#include <vector>

#include "dram/mem_ctrl.hh"
#include "dram/phys_mem.hh"
#include "dram/refresh.hh"
#include "interference/corun.hh"
#include "nma/lockout_device.hh"
#include "nma/xfm_device.hh"
#include "workload/spec_model.hh"
#include "xfm/xfm_driver.hh"

using namespace xfm;
using namespace xfm::interference;

int
main()
{
    const auto apps = workload::specMemoryIntensiveMix();
    CoRunConfig cfg;

    std::vector<CoRunOutcome> outcomes;
    for (auto iface : {SfmInterface::BaselineCpu,
                       SfmInterface::HostLockoutNma,
                       SfmInterface::Xfm}) {
        outcomes.push_back(runCoRun(apps, iface, cfg));
    }

    std::printf("Fig. 11: co-run slowdown (%%) per workload, 512 GB "
                "SFM @ 14%% promotion rate\n\n");
    std::printf("%-11s", "workload");
    for (const auto &o : outcomes)
        std::printf(" %17s", interfaceName(o.interface_).c_str());
    std::printf("\n");
    for (std::size_t a = 0; a < apps.size(); ++a) {
        std::printf("%-11s", apps[a].name.c_str());
        for (const auto &o : outcomes)
            std::printf(" %16.2f%%", o.apps[a].slowdownPercent);
        std::printf("\n");
    }
    std::printf("%-11s", "average");
    for (const auto &o : outcomes)
        std::printf(" %16.2f%%", o.avgSlowdownPercent);
    std::printf("\n%-11s", "max");
    for (const auto &o : outcomes)
        std::printf(" %16.2f%%", o.maxSlowdownPercent);

    std::printf("\n\nSFM throughput relative to running alone:\n");
    for (const auto &o : outcomes)
        std::printf("  %-18s %.3f (%.1f%% degradation)\n",
                    interfaceName(o.interface_).c_str(),
                    o.sfmThroughputFactor,
                    100.0 * (1.0 - o.sfmThroughputFactor));

    std::printf("\nDiagnostics:\n");
    for (const auto &o : outcomes) {
        std::printf("  %-18s bw util %.2f, extra rank-locked "
                    "fraction %.3f\n",
                    interfaceName(o.interface_).c_str(),
                    o.bandwidthUtilisation, o.rankLockedFraction);
    }

    // Combined performance: apps + SFM job, following the paper's
    // framing that SFM throughput loss also costs job throughput.
    std::printf("\nCombined co-running performance gain of XFM "
                "(abstract: 5~27%%):\n");
    const auto &cpu = outcomes[0];
    const auto &lock = outcomes[1];
    auto combined = [](const CoRunOutcome &o) {
        // Geometric-mean app throughput x SFM throughput.
        double prod = 1.0;
        for (const auto &a : o.apps)
            prod *= 1.0 / (1.0 + a.slowdownPercent / 100.0);
        const double apps_tp =
            std::pow(prod, 1.0 / o.apps.size());
        return apps_tp * o.sfmThroughputFactor;
    };
    const double vs_cpu = (1.0 / combined(cpu) - 1.0) * 100.0;
    const double vs_lock = (1.0 / combined(lock) - 1.0) * 100.0;
    std::printf("  vs Baseline-CPU     : +%.1f%% (min of range)\n",
                vs_cpu);
    std::printf("  vs Host-Lockout-NMA : +%.1f%%\n", vs_lock);
    std::printf("  worst single app vs Host-Lockout: +%.1f%% (max "
                "of range)\n",
                lock.maxSlowdownPercent
                    + 100.0 * (1.0 - cpu.sfmThroughputFactor));

    // ---- job mixes (paper: multiple SPEC applications co-run on
    // separate CPUs in mix configurations) -----------------------
    std::printf("\nJob mixes (average slowdown %%):\n");
    const struct
    {
        const char *name;
        std::vector<std::size_t> members;
    } mixes[] = {
        {"mix-bw (mcf,lbm,fotonik3d,roms)", {0, 1, 6, 7}},
        {"mix-lat (omnetpp,gcc,xalancbmk,cactuBSSN)", {2, 3, 4, 5}},
        {"mix-hi (mcf,omnetpp,fotonik3d,xalancbmk)", {0, 2, 6, 4}},
        {"mix-all (8 workloads)", {0, 1, 2, 3, 4, 5, 6, 7}},
    };
    std::printf("%-44s", "mix");
    for (const auto &o : outcomes)
        std::printf(" %17s", interfaceName(o.interface_).c_str());
    std::printf("\n");
    for (const auto &mix : mixes) {
        std::vector<workload::AppProfile> members;
        for (auto idx : mix.members)
            members.push_back(apps[idx]);
        std::printf("%-44s", mix.name);
        for (auto iface : {SfmInterface::BaselineCpu,
                           SfmInterface::HostLockoutNma,
                           SfmInterface::Xfm}) {
            const auto r = runCoRun(members, iface, cfg);
            std::printf(" %16.2f%%", r.avgSlowdownPercent);
        }
        std::printf("\n");
    }

    // ---- DRAM-level validation of the lockout premise ----------
    // Drive one rank's memory controller with host reads while an
    // NMA performs offloads through (a) the Host-Lockout interface
    // and (b) XFM's refresh-window channel, and compare the mean
    // host access latency.
    std::printf("\nDRAM-level check (one rank, 64 B host reads "
                "every 1 us, offload every 5 us):\n");
    auto run_host_latency = [&](bool use_lockout) {
        EventQueue eq;
        dram::MemSystemConfig mc;
        mc.rank.device = dram::ddr5Device32Gb();
        mc.channels = 1;
        mc.dimmsPerChannel = 1;
        mc.ranksPerDimm = 1;
        dram::AddressMap map(mc);
        dram::PhysMem mem(mc.totalCapacityBytes());
        dram::RefreshController refresh("refresh", eq,
                                        mc.rank.device, 1);
        dram::MemCtrl ctrl("memctrl", eq, mc, &refresh);
        refresh.start();

        auto addr_of_row = [&](std::uint32_t row) {
            dram::DramCoord c{};
            c.row = row;
            return map.encode(c);
        };
        mem.write(addr_of_row(10), Bytes(4096, 0x3C));

        std::unique_ptr<nma::HostLockoutDevice> lockout;
        std::unique_ptr<nma::XfmDevice> xfm;
        std::unique_ptr<xfmsys::XfmDriver> driver;
        if (use_lockout) {
            nma::LockoutDeviceConfig lcfg;
            lcfg.engine = nma::EngineProfile::fpgaSoftCore();
            lockout = std::make_unique<nma::HostLockoutDevice>(
                "lockout", eq, lcfg, mem, ctrl);
        } else {
            nma::XfmDeviceConfig xcfg;
            xfm = std::make_unique<nma::XfmDevice>(
                "xfm", eq, xcfg, map, mem, refresh);
            driver = std::make_unique<xfmsys::XfmDriver>(*xfm);
            driver->onComplete([&driver, addr_of_row](
                                   const nma::OffloadCompletion &c) {
                driver->commitWriteback(c.id, addr_of_row(3000));
            });
        }
        for (int i = 0; i < 400; ++i) {
            eq.schedule(microseconds(i * 5.0), [&, i] {
                nma::OffloadRequest req;
                req.kind = nma::OffloadKind::Compress;
                req.srcAddr = addr_of_row(10);
                req.size = 4096;
                if (use_lockout) {
                    req.dstAddr = addr_of_row(2000 + i % 64);
                    lockout->offload(req, nullptr);
                } else {
                    driver->xfmCompress(req.srcAddr, req.size,
                                        eq.now() + milliseconds(32.0));
                }
            });
        }
        auto sum = std::make_shared<double>(0.0);
        auto count = std::make_shared<int>(0);
        for (Tick t = 0; t < milliseconds(2.0);
             t += microseconds(1.0)) {
            eq.schedule(t, [&, t, sum, count] {
                ctrl.submit({kib(64) + (t % kib(4)), 64, false,
                             [=](Tick done) {
                    *sum += ticksToNs(done - t);
                    ++*count;
                }});
            });
        }
        eq.run(milliseconds(3.0));
        return *count ? *sum / *count : 0.0;
    };
    const double lat_lockout = run_host_latency(true);
    const double lat_xfm = run_host_latency(false);
    std::printf("  host read latency under Host-Lockout NMA : "
                "%.1f ns\n", lat_lockout);
    std::printf("  host read latency under XFM              : "
                "%.1f ns (refresh-only baseline)\n", lat_xfm);
    std::printf("  lockout inflates host latency %.2fx while XFM "
                "is invisible to the memory controller.\n",
                lat_lockout / lat_xfm);
    return 0;
}
