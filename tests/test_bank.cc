/**
 * @file
 * Tests for the SALP bank model (paper Fig. 7): legality of
 * conditional and random accesses against the per-subarray row
 * buffers and the shared global bitlines.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/random.hh"
#include "dram/bank.hh"

namespace xfm
{
namespace dram
{
namespace
{

/**
 * Reference subarray test: walk every row of the refresh set
 * [first_row, first_row + count) (wrapping) and report whether one
 * of them shares @p row's subarray.
 */
bool
referenceSubarrayBusy(const DeviceConfig &dev, std::uint32_t first_row,
                      std::uint32_t count, std::uint32_t row)
{
    const std::uint32_t rows = dev.rowsPerBank;
    const std::uint32_t per_sub = dev.rowsPerSubarray();
    const std::uint32_t first = first_row % rows;
    for (std::uint32_t k = 0; k < count; ++k) {
        const std::uint32_t r =
            static_cast<std::uint32_t>((std::uint64_t(first) + k) % rows);
        if (r / per_sub == row / per_sub)
            return true;
    }
    return false;
}

class BankTest : public ::testing::Test
{
  protected:
    BankTest() : dev_(ddr5Device32Gb()), bank_(dev_) {}

    DeviceConfig dev_;
    Bank bank_;
};

TEST_F(BankTest, GeometryFromDevice)
{
    EXPECT_EQ(bank_.subarrays(), dev_.subarraysPerBank);
    EXPECT_EQ(bank_.subarrayOf(0), 0u);
    EXPECT_EQ(bank_.subarrayOf(dev_.rowsPerSubarray()), 1u);
}

TEST_F(BankTest, ConditionalRequiresRefreshSet)
{
    bank_.beginRefresh(100, 16);
    EXPECT_EQ(bank_.accessConditional(100), BankAccessResult::Ok);
    EXPECT_EQ(bank_.accessConditional(115), BankAccessResult::Ok);
    EXPECT_EQ(bank_.accessConditional(116),
              BankAccessResult::SubarrayBusy);
    EXPECT_EQ(bank_.accessConditional(99),
              BankAccessResult::SubarrayBusy);
    bank_.endRefresh();
}

TEST_F(BankTest, RefreshSetWrapsAtBankEnd)
{
    const std::uint32_t last = dev_.rowsPerBank - 4;
    bank_.beginRefresh(last, 16);
    EXPECT_TRUE(bank_.rowInRefreshSet(last));
    EXPECT_TRUE(bank_.rowInRefreshSet(dev_.rowsPerBank - 1));
    EXPECT_TRUE(bank_.rowInRefreshSet(0));   // wrapped
    EXPECT_TRUE(bank_.rowInRefreshSet(11));
    EXPECT_FALSE(bank_.rowInRefreshSet(12));
    bank_.endRefresh();
}

TEST_F(BankTest, RandomAccessToRefreshedSubarrayConflicts)
{
    // Rows 0..15 are being refreshed: rows 0..511 share subarray 0
    // (512 rows per subarray), so any row in subarray 0 conflicts.
    bank_.beginRefresh(0, 16);
    EXPECT_EQ(bank_.accessRandom(300),
              BankAccessResult::SubarrayBusy);
    EXPECT_EQ(bank_.subarrayConflicts(), 1u);
    // Subarray 1 (rows 512..1023) is idle.
    EXPECT_EQ(bank_.accessRandom(600), BankAccessResult::Ok);
    bank_.endRefresh();
}

TEST_F(BankTest, GlobalBitlinesSerialiseSubarrays)
{
    bank_.beginRefresh(0, 16);
    ASSERT_EQ(bank_.accessRandom(600), BankAccessResult::Ok);
    // A second random access in a *different* subarray must wait
    // for the bitlines.
    EXPECT_EQ(bank_.accessRandom(1200),
              BankAccessResult::GlobalBitlineBusy);
    EXPECT_EQ(bank_.bitlineConflicts(), 1u);
    // Same subarray reuses the open row buffer.
    EXPECT_EQ(bank_.accessRandom(601), BankAccessResult::Ok);
    bank_.releaseRandom();
    EXPECT_EQ(bank_.accessRandom(1200), BankAccessResult::Ok);
    bank_.endRefresh();
}

TEST_F(BankTest, EndRefreshPrechargesEverything)
{
    bank_.beginRefresh(0, 16);
    ASSERT_EQ(bank_.accessRandom(600), BankAccessResult::Ok);
    bank_.endRefresh();
    EXPECT_FALSE(bank_.refreshing());
    // Next window: the previously open subarray was precharged.
    bank_.beginRefresh(16, 16);
    EXPECT_EQ(bank_.accessRandom(5000), BankAccessResult::Ok);
    bank_.endRefresh();
}

TEST_F(BankTest, RefreshSpansManySubarraysConflictRate)
{
    // With 16 rows per REF spread over consecutive rows, only
    // subarray 0 is busy; 255 of 256 subarrays accept randoms —
    // matching the paper's observation that refreshed rows each
    // belong to a different subarray and conflicts are rare.
    bank_.beginRefresh(0, dev_.rowsPerRefresh);
    int ok = 0;
    for (std::uint32_t s = 0; s < bank_.subarrays(); ++s) {
        const std::uint32_t row = s * dev_.rowsPerSubarray() + 100;
        if (bank_.accessRandom(row) == BankAccessResult::Ok) {
            ++ok;
            bank_.releaseRandom();
        }
    }
    EXPECT_EQ(ok, static_cast<int>(bank_.subarrays()) - 1);
    bank_.endRefresh();
}

TEST(Bank, SubarrayTestMatchesRowScan)
{
    std::vector<DeviceConfig> devs = {ddr5Device8Gb(), ddr5Device16Gb(),
                                      ddr5Device32Gb(),
                                      ddr4Device8Gb2400()};
    DeviceConfig one_row = ddr5Device8Gb();  // rowsPerSubarray == 1
    one_row.rowsPerBank = 512;
    one_row.subarraysPerBank = 512;
    devs.push_back(one_row);
    DeviceConfig uneven = ddr5Device8Gb();  // last subarray is short
    uneven.rowsPerBank = 1000;
    uneven.subarraysPerBank = 48;
    devs.push_back(uneven);

    Rng rng(2024);
    std::uint64_t cases = 0;
    for (const DeviceConfig &dev : devs) {
        Bank bank(dev);
        const std::uint32_t rows = dev.rowsPerBank;
        const std::uint32_t subs = dev.subarraysPerBank;
        const std::uint32_t per_sub = dev.rowsPerSubarray();
        std::uint64_t conflicts = 0;
        for (int i = 0; i < 2500; ++i) {
            // Counts cover empty, the refresh width and a full row
            // buffer per subarray; starts land near the bank end
            // (wrapping ranges) and past it (reduced modulo rows).
            std::uint32_t count;
            switch (i % 4) {
              case 0: count = dev.rowsPerRefresh; break;
              case 1: count = subs; break;
              default:
                count = static_cast<std::uint32_t>(rng.uniformInt(subs + 1));
            }
            std::uint32_t first;
            switch (i % 3) {
              case 0:
                first = rows - 1
                    - static_cast<std::uint32_t>(
                        rng.uniformInt(std::min(rows, 2 * per_sub + 8)));
                break;
              case 1:
                first = rows
                    + static_cast<std::uint32_t>(rng.uniformInt(3 * rows));
                break;
              default:
                first = static_cast<std::uint32_t>(rng.uniformInt(rows));
            }
            bank.beginRefresh(first, count);
            for (int j = 0; j < 4; ++j) {
                // Half the probes sit within a few subarrays of the
                // range, where the answer changes.
                const std::uint32_t row = j % 2
                    ? static_cast<std::uint32_t>(rng.uniformInt(rows))
                    : static_cast<std::uint32_t>(
                        (std::uint64_t(first % rows) + rows
                         - 2 * per_sub
                         + rng.uniformInt(std::uint64_t(count) + 4 * per_sub))
                        % rows);
                const bool busy =
                    referenceSubarrayBusy(dev, first, count, row);
                const BankAccessResult res = bank.accessRandom(row);
                ASSERT_EQ(res == BankAccessResult::SubarrayBusy, busy)
                    << dev.name << " rows " << rows << " first " << first
                    << " count " << count << " row " << row;
                if (res == BankAccessResult::Ok)
                    bank.releaseRandom();
                conflicts += busy;
                ++cases;
            }
            bank.endRefresh();
        }
        EXPECT_EQ(bank.subarrayConflicts(), conflicts) << dev.name;
        EXPECT_EQ(bank.bitlineConflicts(), 0u) << dev.name;
    }
    EXPECT_GE(cases, 10000u);
}

} // namespace
} // namespace dram
} // namespace xfm
