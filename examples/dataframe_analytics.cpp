/**
 * @file
 * DataFrame analytics over XFM far memory (the AIFM paper's
 * motivating application, which the XFM emulator traces).
 *
 * A columnar table larger than local memory is stored page-wise in
 * an XFM system. Analytic passes scan columns sequentially —
 * exactly the predictable access pattern SFM thrives on — so the
 * controller prefetches ahead with do_offload asserted and the NMA
 * decompresses upcoming pages inside refresh windows while the CPU
 * crunches the current ones.
 *
 * Run: ./build/examples/dataframe_analytics
 */

#include <cstdio>
#include <cstring>
#include <numeric>

#include "xfm/xfm_backend.hh"

using namespace xfm;
using namespace xfm::xfmsys;

namespace
{

/** int64 column of a toy trip-record table, page-packed. */
struct Column
{
    std::string name;
    sfm::VirtPage firstPage;
    std::uint64_t rows;

    static constexpr std::uint64_t rowsPerPage =
        pageBytes / sizeof(std::int64_t);

    std::uint64_t
    pages() const
    {
        return (rows + rowsPerPage - 1) / rowsPerPage;
    }
};

Bytes
encodePage(const std::vector<std::int64_t> &values)
{
    Bytes page(pageBytes, 0);
    std::memcpy(page.data(), values.data(),
                std::min<std::size_t>(values.size()
                                          * sizeof(std::int64_t),
                                      pageBytes));
    return page;
}

std::vector<std::int64_t>
decodePage(const Bytes &page)
{
    std::vector<std::int64_t> values(Column::rowsPerPage);
    std::memcpy(values.data(), page.data(), pageBytes);
    return values;
}

} // namespace

int
main()
{
    constexpr std::uint64_t rows = 40000;  // ~78 pages per column

    XfmSystemConfig cfg;
    cfg.numDimms = 4;
    cfg.localPages = 512;
    cfg.sfmBase = gib(1);
    cfg.sfmBytes = mib(64);
    cfg.decompressSlack = milliseconds(8.0);

    EventQueue eq;
    XfmBackend backend("xfm", eq, cfg);
    backend.start();

    // Two columns: trip distance (small deltas) and fare amount.
    Column distance{"distance_x100", 0, rows};
    Column fare{"fare_cents", distance.pages(), rows};

    Rng rng(2026);
    std::uint64_t loaded_pages = 0;
    for (const Column &col : {distance, fare}) {
        for (std::uint64_t p = 0; p < col.pages(); ++p) {
            std::vector<std::int64_t> vals(Column::rowsPerPage);
            for (auto &v : vals) {
                v = col.firstPage == 0
                    ? 80 + static_cast<std::int64_t>(
                          rng.uniformInt(400))          // distance
                    : 250 + static_cast<std::int64_t>(
                          rng.uniformInt(3000));        // fare
            }
            backend.writePage(col.firstPage + p, encodePage(vals));
            ++loaded_pages;
        }
    }
    std::printf("loaded %llu pages (%s) across %zu DIMMs\n",
                (unsigned long long)loaded_pages,
                formatBytes(loaded_pages * pageBytes).c_str(),
                cfg.numDimms);

    // Cold phase: the whole table is demoted to far memory.
    for (std::uint64_t p = 0; p < loaded_pages; ++p)
        backend.swapOut(p, nullptr);
    eq.run(eq.now() + seconds(0.2));
    std::printf("demoted: %llu pages far, %s stored (%.2fx), "
                "fragmentation %s\n",
                (unsigned long long)backend.farPageCount(),
                formatBytes(backend.storedCompressedBytes()).c_str(),
                static_cast<double>(backend.farPageCount())
                        * pageBytes
                    / static_cast<double>(
                          backend.storedCompressedBytes()),
                formatBytes(backend.fragmentationBytes()).c_str());

    // Analytics pass: sequential scan of `fare` with prefetch
    // (promote page p+1 with do_offload while summing page p).
    std::int64_t total = 0;
    std::uint64_t demand_cpu = 0;
    for (std::uint64_t p = 0; p < fare.pages(); ++p) {
        const sfm::VirtPage page = fare.firstPage + p;
        if (backend.pageState(page) == sfm::PageState::Far) {
            // Demand promotion of the current page: CPU path.
            backend.swapIn(page, false, nullptr);
            ++demand_cpu;
            eq.run(eq.now() + milliseconds(1.0));
        }
        // Prefetch the next pages via the NMA.
        for (std::uint64_t d = 1; d <= 3; ++d) {
            const sfm::VirtPage next = page + d;
            if (next < fare.firstPage + fare.pages()
                && backend.pageState(next) == sfm::PageState::Far)
                backend.swapIn(next, true, nullptr);
        }
        // "Compute" on the current page while the NMA works.
        eq.run(eq.now() + microseconds(200.0));
        if (backend.pageState(page) != sfm::PageState::Local)
            eq.run(eq.now() + milliseconds(2.0));
        for (auto v : decodePage(backend.readPage(page)))
            total += v;
    }

    const double mean = static_cast<double>(total)
        / static_cast<double>(fare.pages() * Column::rowsPerPage);
    std::printf("\nscan of '%s': mean = %.1f cents over %llu rows\n",
                fare.name.c_str(), mean,
                (unsigned long long)rows);
    std::printf("demand (CPU) promotions: %llu of %llu pages — the "
                "rest arrived via NMA prefetch\n",
                (unsigned long long)demand_cpu,
                (unsigned long long)fare.pages());

    const auto &xs = backend.xfmStats();
    std::printf("offloaded: %llu swap-outs, %llu swap-ins; CPU "
                "fallbacks: %llu\n",
                (unsigned long long)xs.offloadedSwapOuts,
                (unsigned long long)xs.offloadedSwapIns,
                (unsigned long long)(xs.fallbackCapacity
                                     + xs.fallbackDeadline));
    return 0;
}
