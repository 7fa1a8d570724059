/**
 * @file
 * WorkerPool: fixed-size thread pool for deterministic fan-out of
 * embarrassingly-parallel simulator work (the CPU path's per-DIMM
 * shard codec calls).
 *
 * Determinism contract: the pool only accelerates wall-clock time,
 * never simulated behavior. parallelFor() bodies each write only
 * their own output slot; the caller commits results in index order
 * after the barrier. Simulated timing, metrics, and traces are
 * byte-identical for any worker count.
 *
 * `workers` counts total concurrent execution contexts: a pool
 * constructed with workers <= 1 spawns no threads and runs
 * everything inline on the caller (exactly the single-threaded
 * behavior, and the default); workers = N spawns N - 1 threads and
 * the caller participates in parallelFor().
 */

#ifndef XFM_COMMON_WORKER_POOL_HH
#define XFM_COMMON_WORKER_POOL_HH

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace xfm
{

/** Fixed-size thread pool; inline when workers <= 1. */
class WorkerPool
{
  public:
    explicit WorkerPool(std::size_t workers = 1);
    ~WorkerPool();
    WorkerPool(const WorkerPool &) = delete;
    WorkerPool &operator=(const WorkerPool &) = delete;

    /** Configured execution contexts (>= 1). */
    std::size_t workers() const { return workers_; }

    /** True when background threads exist (workers >= 2). */
    bool parallel() const { return !threads_.empty(); }

    /**
     * Run fn(0) .. fn(n-1), potentially concurrently; the caller
     * participates and the call returns only after every helper
     * left the loop (a barrier). Bodies must write disjoint state;
     * commit results in index order after this returns.
     *
     * If a body throws, indices not yet claimed are skipped, every
     * helper is joined, and only then is the first exception
     * rethrown, so no body outlives @p fn or the caller's locals.
     * Call from one thread at a time (the simulation thread).
     */
    void parallelFor(std::size_t n,
                     const std::function<void(std::size_t)> &fn);

  private:
    void workerLoop();
    /** Claim and run indices of the current loop until none remain;
     *  the first exception is kept in error_. */
    void drain();

    std::size_t workers_;
    std::vector<std::thread> threads_;

    std::mutex m_;
    std::condition_variable wake_;  ///< helpers: tickets posted / stop
    std::condition_variable idle_;  ///< caller: every helper finished
    bool stop_ = false;
    /** Helper slots of the current loop not yet claimed. */
    std::size_t tickets_ = 0;
    /** Helpers that claimed a ticket and have not finished. */
    std::size_t busy_ = 0;

    // The current loop; written only while no helper is busy.
    const std::function<void(std::size_t)> *body_ = nullptr;
    std::size_t n_ = 0;
    std::atomic<std::size_t> next_{0};
    std::exception_ptr error_;
};

} // namespace xfm

#endif // XFM_COMMON_WORKER_POOL_HH
