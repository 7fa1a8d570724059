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
 * constructed with workers <= 1 never starts a thread and runs
 * everything inline on the caller (exactly the single-threaded
 * simulator); workers = N starts N - 1 helper threads on the first
 * parallelFor() with n > 1, and the caller participates in every
 * loop. A pool that never fans out starts no thread.
 *
 * Hand-off: a shard's codec call takes microseconds, so waking a
 * sleeping thread per loop would cost as much as the work. The
 * caller opens a loop and bumps an atomic generation; helpers spin
 * on it for a bounded time (spinBudget) and only then park in
 * std::atomic::wait. A helper joins the loop only while it is open,
 * counting itself in; once the caller has drained the indices it
 * closes the loop and waits, spinning the same way, for the helpers
 * still inside. A helper that wakes late (parked, or descheduled on
 * a busy host) finds the loop closed and delays nobody. There is no
 * mutex or condition variable.
 */

#ifndef XFM_COMMON_WORKER_POOL_HH
#define XFM_COMMON_WORKER_POOL_HH

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <thread>
#include <vector>

namespace xfm
{

/** CPUs this process may run on (its sched_getaffinity mask), >= 1. */
std::size_t availableCpus() noexcept;

/** Fixed-size thread pool; inline when workers <= 1. */
class WorkerPool
{
  public:
    /**
     * How long an idle helper, or the caller at the barrier, polls
     * before parking. Back-to-back swaps on one backend leave 20–50
     * µs between loops, and a helper that parks misses the next
     * ones. perfbench swap_cpu on a 4-vCPU VM (swaps/s, 4 episodes
     * each): no spin about 25k, 15 µs about 31k, and 50, 300 and
     * 1000 µs all about 32–33k. 100 µs sits in that flat range with
     * twice the widest gap as margin.
     */
    static constexpr std::chrono::microseconds spinBudget{100};

    explicit WorkerPool(std::size_t workers = 1);
    ~WorkerPool();
    WorkerPool(const WorkerPool &) = delete;
    WorkerPool &operator=(const WorkerPool &) = delete;

    /** Configured execution contexts (>= 1). */
    std::size_t workers() const { return workers_; }

    /** Helper threads started so far: 0 until the first fan-out,
     *  then workers() - 1. */
    std::size_t helpers() const { return threads_.size(); }

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
    void helperLoop(std::uint32_t seen);
    /** Claim and run indices of the current loop until none remain;
     *  the first exception is kept in error_. */
    void drain();

    std::size_t workers_;

    /** Bumped once per loop and once at shutdown; idle helpers
     *  wait on it. */
    std::atomic<std::uint32_t> gen_{0};
    /** openBit while the current loop admits helpers, plus the
     *  count of helpers inside it. */
    std::atomic<std::uint32_t> entry_{0};
    static constexpr std::uint32_t openBit = 1u << 31;
    std::atomic<bool> stop_{false};

    // The current loop, published by opening it; written only while
    // no helper is inside.
    const std::function<void(std::size_t)> *body_ = nullptr;
    std::size_t n_ = 0;
    std::atomic<std::size_t> next_{0};
    std::atomic<bool> failed_{false};
    std::exception_ptr error_;  ///< written once, by the first failure

    /** Declared last: the helpers use every member above. */
    std::vector<std::thread> threads_;
};

} // namespace xfm

#endif // XFM_COMMON_WORKER_POOL_HH
