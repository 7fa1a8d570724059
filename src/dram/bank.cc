#include "bank.hh"

#include "common/logging.hh"

namespace xfm
{
namespace dram
{

Bank::Bank(const DeviceConfig &dev)
    : rows_per_bank_(dev.rowsPerBank),
      rows_per_subarray_(dev.rowsPerSubarray()),
      subarrays_(dev.subarraysPerBank)
{
    XFM_ASSERT(rows_per_subarray_ > 0, "empty subarrays");
    subarray_span_ = subarrayOf(rows_per_bank_ - 1) + 1;
}

void
Bank::beginRefresh(std::uint32_t first_row, std::uint32_t count)
{
    XFM_ASSERT(!refreshing_, "nested refresh window");
    XFM_ASSERT(count <= subarrays_,
               "cannot refresh more rows in parallel than there are "
               "subarrays (one local row buffer each)");
    refreshing_ = true;
    refresh_first_ = first_row % rows_per_bank_;
    refresh_count_ = count;
    busy_first_ = subarrayOf(refresh_first_);
    busy_count_ = 0;
    if (count > 0) {
        const std::uint32_t last = static_cast<std::uint32_t>(
            (std::uint64_t(refresh_first_) + count - 1)
            % rows_per_bank_);
        const std::uint32_t last_sub = subarrayOf(last);
        // A range that wraps past the bank end ends in a subarray
        // below the one it starts in (count <= subarrays_ rows
        // cannot reach back into their first subarray).
        busy_count_ = last_sub >= busy_first_
            ? last_sub - busy_first_ + 1
            : subarray_span_ - busy_first_ + last_sub + 1;
    }
}

void
Bank::endRefresh()
{
    XFM_ASSERT(refreshing_, "endRefresh outside a window");
    refreshing_ = false;
    refresh_count_ = 0;
    // A random-access row held open across the window boundary is
    // precharged with the rest of the bank (auto-precharge).
    random_open_subarray_ = -1;
}

bool
Bank::rowInRefreshSet(std::uint32_t row) const
{
    if (!refreshing_)
        return false;
    const std::uint32_t rel =
        (row + rows_per_bank_ - refresh_first_) % rows_per_bank_;
    return rel < refresh_count_;
}

BankAccessResult
Bank::accessConditional(std::uint32_t row)
{
    XFM_ASSERT(row < rows_per_bank_, "row out of range");
    if (!rowInRefreshSet(row)) {
        ++subarray_conflicts_;
        return BankAccessResult::SubarrayBusy;
    }
    // The refresh already activated this row in its subarray's
    // local row buffer; bursting it out is free of activation.
    return BankAccessResult::Ok;
}

BankAccessResult
Bank::accessRandom(std::uint32_t row)
{
    XFM_ASSERT(row < rows_per_bank_, "row out of range");
    XFM_ASSERT(refreshing_,
               "NMA random accesses only occur inside tRFC windows");
    const std::uint32_t sub = subarrayOf(row);

    // The target subarray must not be refreshing a row this window:
    // its local row buffer is in use.
    if (subarrayRefreshing(sub)) {
        ++subarray_conflicts_;
        return BankAccessResult::SubarrayBusy;
    }
    // Only one subarray may drive the global bitlines (the added
    // isolation latch selects exactly one).
    if (random_open_subarray_ >= 0
        && random_open_subarray_ != static_cast<std::int64_t>(sub)) {
        ++bitline_conflicts_;
        return BankAccessResult::GlobalBitlineBusy;
    }
    random_open_subarray_ = sub;
    return BankAccessResult::Ok;
}

void
Bank::releaseRandom()
{
    random_open_subarray_ = -1;
}

} // namespace dram
} // namespace xfm
