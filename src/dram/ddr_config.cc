#include "ddr_config.hh"

#include <utility>

#include "common/config.hh"
#include "common/logging.hh"

namespace xfm
{
namespace dram
{

const char *
refreshModeName(RefreshMode m)
{
    switch (m) {
      case RefreshMode::RefAb: return "refab";
      case RefreshMode::RefPb: return "refpb";
    }
    return "unknown";
}

DeviceConfig
ddr5Device8Gb()
{
    DeviceConfig c;
    c.name = "DDR5-3200 8Gb";
    c.generation = DdrGeneration::Ddr5;
    c.capacityBits = std::uint64_t(8) << 30;
    c.banksPerChip = 16;
    c.rowsPerBank = 64 * 1024;
    c.subarraysPerBank = 128;
    c.rowBytesPerChip = 1024;
    c.rowsPerRefresh = 8;
    c.tRFC = nanoseconds(195.0);
    return c;
}

DeviceConfig
ddr5Device16Gb()
{
    DeviceConfig c;
    c.name = "DDR5-3200 16Gb";
    c.generation = DdrGeneration::Ddr5;
    c.capacityBits = std::uint64_t(16) << 30;
    c.banksPerChip = 32;
    c.rowsPerBank = 64 * 1024;
    c.subarraysPerBank = 128;
    c.rowBytesPerChip = 1024;
    c.rowsPerRefresh = 8;
    c.tRFC = nanoseconds(295.0);
    return c;
}

DeviceConfig
ddr5Device32Gb()
{
    DeviceConfig c;
    c.name = "DDR5-3200 32Gb";
    c.generation = DdrGeneration::Ddr5;
    c.capacityBits = std::uint64_t(32) << 30;
    c.banksPerChip = 32;
    c.rowsPerBank = 128 * 1024;
    c.subarraysPerBank = 256;
    c.rowBytesPerChip = 1024;
    c.rowsPerRefresh = 16;
    c.tRFC = nanoseconds(410.0);
    return c;
}

DeviceConfig
ddr4Device8Gb2400()
{
    DeviceConfig c;
    c.name = "DDR4-2400 8Gb";
    c.generation = DdrGeneration::Ddr4;
    c.capacityBits = std::uint64_t(8) << 30;
    c.banksPerChip = 16;
    c.rowsPerBank = 64 * 1024;
    c.subarraysPerBank = 128;
    c.rowBytesPerChip = 1024;
    c.rowsPerRefresh = 8;
    c.tCK = 833;  // 2400 MT/s
    c.tRCD = nanoseconds(14.16);
    c.tCL = nanoseconds(14.16);
    c.tRP = nanoseconds(14.16);
    c.tRC = nanoseconds(46.0);
    c.tRFC = nanoseconds(350.0);
    c.tBURST = picoseconds(3333);  // BL8 at 2400 MT/s
    return c;
}

std::uint32_t
maxAccessesPerTrfc(const DeviceConfig &dev)
{
    const Tick first = dev.tRCD + dev.tCL + 32 * dev.tBURST;
    if (dev.tRFC < first)
        return 0;
    const Tick per_access = 32 * dev.tBURST;
    return 1 + static_cast<std::uint32_t>((dev.tRFC - first)
                                          / per_access);
}

std::uint32_t
maxAccessesPerWindowOf(const DeviceConfig &dev, Tick window)
{
    const Tick first = dev.tRCD + dev.tCL + 32 * dev.tBURST;
    if (window < first)
        return 0;
    const Tick per_access = 32 * dev.tBURST;
    return 1 + static_cast<std::uint32_t>((window - first)
                                          / per_access);
}

DeviceConfig
DeviceConfig::fromConfig(const Config &cfg, DeviceConfig base)
{
    DeviceConfig dev = std::move(base);
    const std::string mode =
        cfg.getString("refresh.mode", refreshModeName(dev.refreshMode));
    if (mode == "refab")
        dev.refreshMode = RefreshMode::RefAb;
    else if (mode == "refpb")
        dev.refreshMode = RefreshMode::RefPb;
    else
        fatal("refresh.mode must be 'refab' or 'refpb', got '", mode,
              "'");
    dev.hira = cfg.getBool("refresh.hira", dev.hira);
    if (cfg.has("refresh.trfcpb_ns"))
        dev.tRFCpb = nanoseconds(cfg.getDouble("refresh.trfcpb_ns"));
    dev.rfmRaaimt = cfg.getU32("rfm.raaimt", dev.rfmRaaimt);
    dev.rfmRaammt = cfg.getU32("rfm.raammt", dev.rfmRaammt);
    if (cfg.has("rfm.trfm_ns"))
        dev.tRFM = nanoseconds(cfg.getDouble("rfm.trfm_ns"));
    return dev;
}

Tick
accessCompletionOffset(const DeviceConfig &dev, std::uint32_t k)
{
    return dev.tRCD + dev.tCL
        + static_cast<Tick>(k + 1) * 32 * dev.tBURST;
}

MemSystemConfig
defaultMemSystem()
{
    MemSystemConfig cfg;
    cfg.rank.device = ddr5Device16Gb();
    cfg.channels = 4;
    cfg.dimmsPerChannel = 2;
    cfg.ranksPerDimm = 1;
    return cfg;
}

} // namespace dram
} // namespace xfm
