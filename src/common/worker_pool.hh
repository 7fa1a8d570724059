/**
 * @file
 * WorkerPool: fixed-size thread pool for deterministic fan-out of
 * embarrassingly-parallel simulator work (per-DIMM shard codec
 * calls and NMA engine jobs).
 *
 * Determinism contract: the pool only accelerates wall-clock time,
 * never simulated behavior. Callers hand out independent jobs that
 * each write only their own output slot, then commit results on the
 * calling thread in deterministic (shard-index / submission) order
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

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace xfm
{

/** Fixed-size thread pool; inline when workers <= 1. */
class WorkerPool
{
  public:
    /** A submitted job; wait() blocks until it has run. */
    class Task
    {
      public:
        /**
         * Block until the body finished (inline tasks are born
         * done). Rethrows any exception the body raised.
         */
        void wait();

      private:
        friend class WorkerPool;
        void run();

        std::function<void()> fn_;
        std::mutex m_;
        std::condition_variable cv_;
        bool done_ = false;
        std::exception_ptr error_;
    };
    using TaskPtr = std::shared_ptr<Task>;

    /** Lifetime submission counters (main-thread reads only). */
    struct Stats
    {
        std::uint64_t tasks = 0;
        std::uint64_t inlineTasks = 0;
        std::uint64_t parallelLoops = 0;
    };

    explicit WorkerPool(std::size_t workers = 1);
    ~WorkerPool();
    WorkerPool(const WorkerPool &) = delete;
    WorkerPool &operator=(const WorkerPool &) = delete;

    /** Configured execution contexts (>= 1). */
    std::size_t workers() const { return workers_; }

    /** True when background threads exist (workers >= 2). */
    bool parallel() const { return !threads_.empty(); }

    /**
     * Run @p fn — queued to a worker thread when parallel(), run
     * inline before returning otherwise. Submit from the simulation
     * thread only.
     */
    TaskPtr submit(std::function<void()> fn);

    /**
     * Run fn(0) .. fn(n-1), potentially concurrently; the caller
     * participates and the call returns only after every index
     * completed (a barrier). Bodies must write disjoint state;
     * commit results in index order after this returns.
     */
    void parallelFor(std::size_t n,
                     const std::function<void(std::size_t)> &fn);

    const Stats &stats() const { return stats_; }

  private:
    void workerLoop();

    std::size_t workers_;
    std::vector<std::thread> threads_;
    std::deque<TaskPtr> queue_;
    std::mutex m_;
    std::condition_variable cv_;
    bool stop_ = false;
    Stats stats_;
};

} // namespace xfm

#endif // XFM_COMMON_WORKER_POOL_HH
