#include "address_map.hh"

#include "common/logging.hh"

namespace xfm
{
namespace dram
{

AddressMap::AddressMap(const MemSystemConfig &cfg)
    : channels_(cfg.channels),
      ranks_per_channel_(cfg.dimmsPerChannel * cfg.ranksPerDimm),
      banks_(cfg.rank.device.banksPerChip),
      rows_per_bank_(cfg.rank.device.rowsPerBank),
      rows_per_subarray_(cfg.rank.device.rowsPerSubarray()),
      stripes_per_row_(cfg.rank.rowBytes() / bankStripeBytes),
      capacity_(cfg.totalCapacityBytes())
{
    XFM_ASSERT(banks_ % 2 == 0, "bank-pair interleave needs even banks");
    XFM_ASSERT(cfg.rank.rowBytes() % bankStripeBytes == 0,
               "row size must be a multiple of the bank interleave");
}

DramCoord
AddressMap::decode(std::uint64_t addr) const
{
    XFM_ASSERT(addr < capacity_, "address ", addr, " beyond capacity ",
               capacity_);
    DramCoord c{};
    c.channel = static_cast<std::uint32_t>(
        (addr / channelChunkBytes) % channels_);
    const std::uint64_t local =
        (addr / (std::uint64_t(channelChunkBytes) * channels_))
            * channelChunkBytes
        + (addr % channelChunkBytes);

    c.offset = static_cast<std::uint32_t>(local % bankStripeBytes);
    std::uint64_t s = local / bankStripeBytes;
    const std::uint32_t bank_lsb = static_cast<std::uint32_t>(s % 2);
    s /= 2;
    c.column = static_cast<std::uint32_t>(s % stripes_per_row_);
    s /= stripes_per_row_;
    const std::uint32_t bank_group =
        static_cast<std::uint32_t>(s % (banks_ / 2));
    s /= (banks_ / 2);
    c.rank = static_cast<std::uint32_t>(s % ranks_per_channel_);
    s /= ranks_per_channel_;
    c.row = static_cast<std::uint32_t>(s);
    c.bank = bank_group * 2 + bank_lsb;
    XFM_ASSERT(c.row < rows_per_bank_, "row decode overflow");
    return c;
}

std::uint64_t
AddressMap::encode(const DramCoord &coord) const
{
    XFM_ASSERT(coord.channel < channels_ && coord.bank < banks_
               && coord.row < rows_per_bank_
               && coord.rank < ranks_per_channel_
               && coord.column < stripes_per_row_
               && coord.offset < bankStripeBytes,
               "encode: coordinate out of range");
    const std::uint32_t bank_lsb = coord.bank % 2;
    const std::uint32_t bank_group = coord.bank / 2;

    std::uint64_t s = coord.row;
    s = s * ranks_per_channel_ + coord.rank;
    s = s * (banks_ / 2) + bank_group;
    s = s * stripes_per_row_ + coord.column;
    s = s * 2 + bank_lsb;

    const std::uint64_t local = s * bankStripeBytes + coord.offset;
    const std::uint64_t block = local / channelChunkBytes;
    const std::uint64_t within = local % channelChunkBytes;
    return (block * channels_ + coord.channel) * channelChunkBytes
        + within;
}

} // namespace dram
} // namespace xfm
