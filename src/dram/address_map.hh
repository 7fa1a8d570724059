/**
 * @file
 * Skylake-style physical address mapping.
 *
 * Physical addresses interleave across channels at 256 B and across
 * a bank pair at 128 B (DRAMA-reported Intel Skylake mapping), so a
 * 4 KiB page spreads over four channels and two banks, occupying
 * the same row in both banks of the pair — the layout Fig. 6a of
 * the paper assumes.
 */

#ifndef XFM_DRAM_ADDRESS_MAP_HH
#define XFM_DRAM_ADDRESS_MAP_HH

#include <cstdint>

#include "dram/ddr_config.hh"

namespace xfm
{
namespace dram
{

/** Fully decoded DRAM coordinates of a physical byte address. */
struct DramCoord
{
    std::uint32_t channel;
    std::uint32_t rank;      ///< rank index within the channel
    std::uint32_t bank;
    std::uint32_t row;
    std::uint32_t column;    ///< 128 B stripe index within the row
    std::uint32_t offset;    ///< byte offset within the stripe

    bool
    operator==(const DramCoord &o) const
    {
        return channel == o.channel && rank == o.rank && bank == o.bank
            && row == o.row && column == o.column && offset == o.offset;
    }
};

/**
 * Bidirectional physical-address <-> DRAM-coordinate mapping.
 *
 * The decode order (LSB first) is: byte-in-stripe, bank LSB,
 * column, bank group, rank, row; the channel bits sit at the
 * channel-interleave boundary below all of these.
 */
class AddressMap
{
  public:
    explicit AddressMap(const MemSystemConfig &cfg);

    /** Decode a physical byte address. */
    DramCoord decode(std::uint64_t addr) const;

    /** Inverse of decode(). */
    std::uint64_t encode(const DramCoord &coord) const;

    /** Subarray that holds @p row. */
    std::uint32_t
    subarrayOf(std::uint32_t row) const
    {
        return row / rows_per_subarray_;
    }

    /** Total mapped capacity in bytes. */
    std::uint64_t capacityBytes() const { return capacity_; }

    std::uint32_t channels() const { return channels_; }
    std::uint32_t ranksPerChannel() const { return ranks_per_channel_; }
    std::uint32_t banksPerRank() const { return banks_; }
    std::uint32_t rowsPerBank() const { return rows_per_bank_; }

  private:
    std::uint32_t channels_;
    std::uint32_t ranks_per_channel_;
    std::uint32_t banks_;
    std::uint32_t rows_per_bank_;
    std::uint32_t rows_per_subarray_;
    std::uint32_t channel_interleave_;
    std::uint32_t bank_interleave_;
    std::uint32_t stripes_per_row_;
    std::uint64_t capacity_;
};

} // namespace dram
} // namespace xfm

#endif // XFM_DRAM_ADDRESS_MAP_HH
