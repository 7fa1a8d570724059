#include "worker_pool.hh"

#include <algorithm>
#include <utility>

namespace xfm
{

WorkerPool::WorkerPool(std::size_t workers)
    : workers_(std::max<std::size_t>(1, workers))
{
    threads_.reserve(workers_ - 1);
    for (std::size_t i = 0; i + 1 < workers_; ++i)
        threads_.emplace_back([this] { workerLoop(); });
}

WorkerPool::~WorkerPool()
{
    {
        std::lock_guard<std::mutex> g(m_);
        stop_ = true;
    }
    wake_.notify_all();
    for (auto &t : threads_)
        t.join();
}

void
WorkerPool::parallelFor(std::size_t n,
                        const std::function<void(std::size_t)> &fn)
{
    if (!parallel() || n <= 1) {
        for (std::size_t i = 0; i < n; ++i)
            fn(i);
        return;
    }

    // Helpers and the caller drain one shared index counter.
    const std::size_t helpers = std::min(threads_.size(), n - 1);
    {
        std::lock_guard<std::mutex> g(m_);
        body_ = &fn;
        n_ = n;
        next_.store(0);
        tickets_ = helpers;
        busy_ = helpers;
    }
    for (std::size_t h = 0; h < helpers; ++h)
        wake_.notify_one();
    drain();

    // Join before rethrowing: fn and everything its bodies reference
    // must outlive every helper's last body.
    std::unique_lock<std::mutex> g(m_);
    idle_.wait(g, [this] { return busy_ == 0; });
    body_ = nullptr;
    const std::exception_ptr error = std::exchange(error_, nullptr);
    g.unlock();
    if (error)
        std::rethrow_exception(error);
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
        std::lock_guard<std::mutex> g(m_);
        if (!error_)
            error_ = std::current_exception();
    }
}

void
WorkerPool::workerLoop()
{
    std::unique_lock<std::mutex> g(m_);
    for (;;) {
        wake_.wait(g, [this] { return stop_ || tickets_ > 0; });
        if (stop_)
            return;
        --tickets_;
        g.unlock();
        drain();
        g.lock();
        if (--busy_ == 0)
            idle_.notify_one();
    }
}

} // namespace xfm
