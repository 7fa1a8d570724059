/**
 * @file
 * Shared helpers for the test suite: deterministic corpus-backed
 * page content and the canonical small system / service
 * configurations that several test binaries build on.
 *
 * Everything here is inline and header-only, so a test that uses
 * only the page helpers or the thread count does not need to link
 * the service or XFM libraries.
 */

#ifndef XFM_TESTS_TEST_UTIL_HH
#define XFM_TESTS_TEST_UTIL_HH

#include <cstddef>
#include <filesystem>
#include <iterator>
#include <thread>

#include "common/config.hh"
#include "compress/corpus.hh"
#include "dram/ddr_config.hh"
#include "service/service.hh"
#include "system/system.hh"
#include "xfm/xfm_backend.hh"

namespace xfm
{
namespace testutil
{

/** Threads of this process, from the kernel's own list. The first
 *  call starts and joins one thread, so a runtime that adds a thread
 *  of its own at the first thread start (TSan does) has done so
 *  before anything is counted. */
inline std::size_t
osThreads()
{
    static const bool warmed = [] {
        std::thread([] {}).join();
        return true;
    }();
    (void)warmed;
    const std::filesystem::directory_iterator tasks("/proc/self/task");
    return static_cast<std::size_t>(
        std::distance(tasks, std::filesystem::directory_iterator{}));
}

/** One page of deterministic corpus content. */
inline Bytes
corpusPage(compress::CorpusKind kind, std::uint64_t seed)
{
    return compress::generateCorpus(kind, seed, pageBytes);
}

/**
 * The canonical small XFM memory system used across the suite:
 * 256 virtual pages interleaved over @p dimms DDR5 DIMMs, a 16 MiB
 * per-DIMM SFM region at 1 GiB, and a 2 MiB SPM.
 */
inline xfmsys::XfmSystemConfig
testXfmConfig(std::size_t dimms = 4)
{
    xfmsys::XfmSystemConfig cfg;
    cfg.numDimms = dimms;
    cfg.localBase = 0;
    cfg.localPages = 256;
    cfg.sfmBase = gib(1);
    cfg.sfmBytes = mib(16);
    cfg.device.spmBytes = mib(2);
    return cfg;
}

/**
 * The canonical 4-tenant service configuration: 64-page shards over
 * a 4-DIMM XFM system with an 8 MiB SFM region and a 1 MiB SPM.
 */
inline service::ServiceConfig
testServiceConfig()
{
    service::ServiceConfig cfg;
    cfg.registry.maxTenants = 4;
    cfg.registry.pagesPerShard = 64;
    cfg.system.numDimms = 4;
    cfg.system.sfmBase = gib(1);
    cfg.system.sfmBytes = mib(8);
    cfg.system.device.spmBytes = mib(1);
    return cfg;
}

/** The chaos system's fault plan, as config text. */
inline constexpr const char *chaosFaults =
    "fault.seed = 11\n"
    "fault.spm_reserve.p = 0.20\n"
    "fault.engine_stall.p = 0.10\n"
    "fault.mmio_doorbell.p = 0.25\n";

/**
 * The health-armed chaos system: 96 pages under a seeded fault plan
 * whose rates trip channel breakers mid-run, with a small quarantine
 * cap. Its runs route single shards to the CPU in both swap
 * directions while the other channels stay offloaded.
 */
inline system::SystemConfig
chaoticSystemConfig()
{
    system::SystemConfig cfg;
    cfg.backend = system::BackendKind::Xfm;
    cfg.pages = 96;
    cfg.sfmBytes = mib(8);
    cfg.controller.coldThreshold = milliseconds(5.0);
    cfg.controller.scanInterval = milliseconds(1.0);
    cfg.controller.maxSwapOutsPerScan = 16;
    cfg.xfm.faults =
        fault::FaultPlan::fromConfig(Config::parseString(chaosFaults));
    cfg.xfm.health.enabled = true;
    cfg.xfm.health.window = 8;
    cfg.xfm.health.failConsecutive = 4;
    cfg.xfm.health.cooldown = microseconds(50.0);
    cfg.xfm.device.watchdogWindows = 512;
    cfg.xfm.quarantineCap = 4;
    return cfg;
}

} // namespace testutil
} // namespace xfm

#endif // XFM_TESTS_TEST_UTIL_HH
