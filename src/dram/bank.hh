/**
 * @file
 * DRAM bank model with SALP-style subarray support (paper Fig. 7).
 *
 * A bank is a collection of subarrays, each with its own local row
 * buffer. Stock DRAM allows one activated row per bank; the XFM
 * modification adds, per subarray, a row-decoder latch and a
 * local-bitline isolation latch so that while some rows are being
 * refreshed, *one other subarray* can be activated and accessed
 * through the shared global bitlines.
 *
 * This model enforces the structural rules the paper's random
 * accesses must respect:
 *  - a random access may not target a subarray that is busy
 *    refreshing a row in the same tRFC window (local row buffer is
 *    occupied by the refresh);
 *  - only one subarray can drive the global bitlines at a time, so
 *    at most one non-refresh row can be open per bank.
 */

#ifndef XFM_DRAM_BANK_HH
#define XFM_DRAM_BANK_HH

#include <cstdint>
#include <vector>

#include "common/stats.hh"
#include "dram/ddr_config.hh"

namespace xfm
{
namespace dram
{

/** Result of attempting an access against the bank state. */
enum class BankAccessResult
{
    Ok,                ///< access legal, state updated
    SubarrayBusy,      ///< target subarray is refreshing this window
    GlobalBitlineBusy, ///< another subarray already drives the GBL
};

/**
 * One DRAM bank with per-subarray state.
 */
class Bank
{
  public:
    explicit Bank(const DeviceConfig &dev);

    /**
     * Begin an all-bank-refresh slice for this bank: rows
     * [first_row, first_row + count) (wrapping) are refreshed, each
     * in its own subarray's local row buffer. The busy subarrays
     * are fixed here, so accessRandom() tests one in O(1).
     */
    void beginRefresh(std::uint32_t first_row, std::uint32_t count);

    /** End the refresh window; refreshed subarrays precharge. */
    void endRefresh();

    /**
     * Attempt a *conditional* access: legal only while the row is
     * part of the current refresh set (its row buffer already holds
     * the row).
     */
    BankAccessResult accessConditional(std::uint32_t row);

    /**
     * Attempt a *random* (SALP) access to a row outside the refresh
     * set. Requires the row's subarray to be idle and the global
     * bitlines to be free; on success the subarray is held open
     * until releaseRandom().
     */
    BankAccessResult accessRandom(std::uint32_t row);

    /** Close the row opened by a successful accessRandom(). */
    void releaseRandom();

    /** True while inside a refresh window. */
    bool refreshing() const { return refreshing_; }

    /** True if @p row is in the current refresh set. */
    bool rowInRefreshSet(std::uint32_t row) const;

    /** Subarray index of @p row. */
    std::uint32_t
    subarrayOf(std::uint32_t row) const
    {
        return row / rows_per_subarray_;
    }

    std::uint32_t subarrays() const { return subarrays_; }

    /** Structural-hazard counters. */
    std::uint64_t subarrayConflicts() const
    {
        return subarray_conflicts_.value();
    }
    std::uint64_t bitlineConflicts() const
    {
        return bitline_conflicts_.value();
    }

  private:
    /** True if @p sub holds a row refreshing this window. */
    bool
    subarrayRefreshing(std::uint32_t sub) const
    {
        const std::uint32_t rel = sub >= busy_first_
            ? sub - busy_first_
            : sub + subarray_span_ - busy_first_;
        return rel < busy_count_;
    }

    std::uint32_t rows_per_bank_;
    std::uint32_t rows_per_subarray_;
    std::uint32_t subarrays_;
    /** Subarray indices rows map to: subarrayOf(rows_per_bank_ - 1)
     *  + 1 (subarrays_ unless rows do not divide evenly). */
    std::uint32_t subarray_span_;

    bool refreshing_ = false;
    std::uint32_t refresh_first_ = 0;
    std::uint32_t refresh_count_ = 0;
    /**
     * The refreshing rows are contiguous modulo rows_per_bank_, so
     * the subarrays they occupy are busy_count_ consecutive indices
     * from busy_first_, wrapping modulo subarray_span_.
     */
    std::uint32_t busy_first_ = 0;
    std::uint32_t busy_count_ = 0;

    /** Subarray currently opened for a random access, or -1. */
    std::int64_t random_open_subarray_ = -1;

    stats::Counter subarray_conflicts_;
    stats::Counter bitline_conflicts_;
};

} // namespace dram
} // namespace xfm

#endif // XFM_DRAM_BANK_HH
