#include "worker_pool.hh"

#include <sched.h>

#include <algorithm>
#include <utility>

namespace xfm
{

namespace
{

void
cpuRelax()
{
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__)
    asm volatile("yield");
#endif
}

/** Poll @p a until it differs from @p old: spin for up to
 *  WorkerPool::spinBudget, then park in std::atomic::wait. */
std::uint32_t
awaitChange(const std::atomic<std::uint32_t> &a, std::uint32_t old)
{
    using Clock = std::chrono::steady_clock;
    const Clock::time_point deadline = Clock::now()
                                       + WorkerPool::spinBudget;
    for (unsigned i = 1;; ++i) {
        const std::uint32_t v = a.load(std::memory_order_acquire);
        if (v != old)
            return v;
        cpuRelax();
        // Read the clock only now and then: a poll is ~100 ns.
        if (i % 64 == 0 && Clock::now() >= deadline)
            break;
    }
    a.wait(old, std::memory_order_acquire);
    return a.load(std::memory_order_acquire);
}

} // namespace

std::size_t
availableCpus() noexcept
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0)
        return std::max(1, CPU_COUNT(&set));
    // A mask wider than cpu_set_t: fall back to the machine's count.
    return std::max(1u, std::thread::hardware_concurrency());
}

WorkerPool::WorkerPool(std::size_t workers)
    : workers_(std::max<std::size_t>(1, workers))
{
}

WorkerPool::~WorkerPool()
{
    if (threads_.empty())
        return;
    stop_.store(true);
    gen_.fetch_add(1);
    gen_.notify_all();
    for (auto &t : threads_)
        t.join();
}

void
WorkerPool::parallelFor(std::size_t n,
                        const std::function<void(std::size_t)> &fn)
{
    if (workers_ <= 1 || n <= 1) {
        for (std::size_t i = 0; i < n; ++i)
            fn(i);
        return;
    }
    if (threads_.empty()) {
        threads_.reserve(workers_ - 1);
        const std::uint32_t seen = gen_.load();
        for (std::size_t i = 0; i + 1 < workers_; ++i)
            threads_.emplace_back([this, seen] { helperLoop(seen); });
    }

    // Open the loop, then wake the helpers; they and the caller
    // drain one shared index counter.
    body_ = &fn;
    n_ = n;
    next_.store(0, std::memory_order_relaxed);
    entry_.store(openBit, std::memory_order_release);
    gen_.fetch_add(1);
    gen_.notify_all();
    drain();

    // Close it and join before rethrowing: fn and everything its
    // bodies reference must outlive every helper's last body.
    for (std::uint32_t inside = entry_.fetch_and(~openBit) & ~openBit;
         inside != 0;)
        inside = awaitChange(entry_, inside);
    body_ = nullptr;
    if (failed_.load(std::memory_order_relaxed)) {
        failed_.store(false, std::memory_order_relaxed);
        std::rethrow_exception(std::exchange(error_, nullptr));
    }
}

void
WorkerPool::drain()
{
    try {
        for (std::size_t i = next_.fetch_add(1); i < n_;
             i = next_.fetch_add(1)) {
            (*body_)(i);
        }
    } catch (...) {
        next_.store(n_);  // start no further index
        if (!failed_.exchange(true))
            error_ = std::current_exception();
    }
}

void
WorkerPool::helperLoop(std::uint32_t seen)
{
    for (;;) {
        seen = awaitChange(gen_, seen);
        if (stop_.load())
            return;
        // Join only an open loop; a closed one is over (or not yet
        // published) and needs nothing from this helper.
        std::uint32_t e = entry_.load(std::memory_order_relaxed);
        do {
            if (!(e & openBit))
                break;
        } while (!entry_.compare_exchange_weak(e, e + 1,
                                               std::memory_order_acquire,
                                               std::memory_order_relaxed));
        if (!(e & openBit))
            continue;
        drain();
        if (entry_.fetch_sub(1, std::memory_order_release) == 1)
            entry_.notify_one();  // the last one out of a closed loop
    }
}

} // namespace xfm
