/**
 * @file
 * Discrete-event simulation kernel.
 *
 * A single EventQueue orders callbacks by (tick, priority, sequence
 * number) so same-tick events run in a deterministic order. Events
 * are cancellable via the returned EventId.
 *
 * Hot-path design (DESIGN.md §11): entries live in a slab of
 * fixed-size chunks and are recycled through a free list, the heap
 * is an inline std::vector of plain (tick, priority, seq, slot)
 * nodes, and callbacks are stored in an EventCallback with a large
 * small-buffer optimization — so steady-state scheduling performs
 * no heap allocation at all. Cancelled entries are swept out of the
 * heap when they outnumber live ones (see deschedule()).
 */

#ifndef XFM_SIM_EVENT_QUEUE_HH
#define XFM_SIM_EVENT_QUEUE_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/units.hh"

namespace xfm
{

/** Handle to a scheduled event, usable for cancellation. */
using EventId = std::uint64_t;

/** Invalid event handle. */
constexpr EventId invalidEventId = 0;

/**
 * Move-only callable wrapper with a small-buffer optimization wide
 * enough for the simulator's completion lambdas (which capture a
 * SwapOutcome plus a SwapCallback), so scheduling an event does not
 * touch the heap. Larger or not-nothrow-movable callables fall back
 * to a heap allocation, exactly like std::function.
 */
class EventCallback
{
  public:
    /** Inline storage; device completion lambdas are ~80-120 B. */
    static constexpr std::size_t inlineBytes = 120;

    EventCallback() = default;

    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, EventCallback> &&
                  std::is_invocable_r_v<void, std::decay_t<F> &>>>
    EventCallback(F &&f)
    {
        using Fn = std::decay_t<F>;
        if constexpr (fitsInline<Fn>()) {
            ::new (static_cast<void *>(&storage_))
                Fn(std::forward<F>(f));
            vtable_ = &InlineOps<Fn>::vtable;
        } else {
            ::new (static_cast<void *>(&storage_))
                Fn *(new Fn(std::forward<F>(f)));
            vtable_ = &HeapOps<Fn>::vtable;
        }
    }

    EventCallback(EventCallback &&o) noexcept { moveFrom(o); }

    EventCallback &
    operator=(EventCallback &&o) noexcept
    {
        if (this != &o) {
            reset();
            moveFrom(o);
        }
        return *this;
    }

    EventCallback(const EventCallback &) = delete;
    EventCallback &operator=(const EventCallback &) = delete;

    ~EventCallback() { reset(); }

    /** True when a callable is held. */
    explicit operator bool() const { return vtable_ != nullptr; }

    void
    operator()()
    {
        vtable_->invoke(&storage_);
    }

  private:
    struct VTable
    {
        void (*invoke)(void *);
        /** Move-construct dst's storage from src's, destroy src. */
        void (*relocate)(void *dst, void *src);
        void (*destroy)(void *);
    };

    template <typename Fn>
    static constexpr bool
    fitsInline()
    {
        return sizeof(Fn) <= inlineBytes &&
               alignof(Fn) <= alignof(std::max_align_t) &&
               std::is_nothrow_move_constructible_v<Fn>;
    }

    template <typename Fn>
    struct InlineOps
    {
        static void
        invoke(void *s)
        {
            (*static_cast<Fn *>(s))();
        }

        static void
        relocate(void *dst, void *src)
        {
            Fn *f = static_cast<Fn *>(src);
            ::new (dst) Fn(std::move(*f));
            f->~Fn();
        }

        static void
        destroy(void *s)
        {
            static_cast<Fn *>(s)->~Fn();
        }

        static constexpr VTable vtable{&invoke, &relocate, &destroy};
    };

    template <typename Fn>
    struct HeapOps
    {
        static void
        invoke(void *s)
        {
            (**static_cast<Fn **>(s))();
        }

        static void
        relocate(void *dst, void *src)
        {
            ::new (dst) Fn *(*static_cast<Fn **>(src));
        }

        static void
        destroy(void *s)
        {
            delete *static_cast<Fn **>(s);
        }

        static constexpr VTable vtable{&invoke, &relocate, &destroy};
    };

    void
    moveFrom(EventCallback &o) noexcept
    {
        if (o.vtable_) {
            o.vtable_->relocate(&storage_, &o.storage_);
            vtable_ = o.vtable_;
            o.vtable_ = nullptr;
        }
    }

    void
    reset()
    {
        if (vtable_) {
            vtable_->destroy(&storage_);
            vtable_ = nullptr;
        }
    }

    alignas(std::max_align_t) unsigned char storage_[inlineBytes];
    const VTable *vtable_ = nullptr;
};

/**
 * Deterministic discrete-event queue.
 *
 * Lower priority values run first among events scheduled for the
 * same tick; ties break on scheduling order.
 */
class EventQueue
{
  public:
    using Callback = EventCallback;

    /** Priorities for same-tick ordering (lower runs first). */
    enum Priority : int
    {
        refreshPriority = 0,   ///< refresh state transitions
        deviceMin = 10,        ///< device/bank state machines
        controllerMin = 20,    ///< memory controller decisions
        defaultPriority = 50,  ///< everything else
        statsPriority = 90,    ///< end-of-interval accounting
    };

    EventQueue() = default;

    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;
    EventQueue(EventQueue &&) noexcept = default;
    EventQueue &operator=(EventQueue &&) noexcept = default;

    /** Current simulated time. */
    Tick now() const { return now_; }

    /**
     * Schedule a callback at an absolute tick.
     *
     * @param when absolute time; must be >= now().
     * @return handle usable with deschedule().
     */
    EventId schedule(Tick when, Callback cb,
                     int priority = defaultPriority);

    /** Schedule a callback @p delta ticks in the future. */
    EventId
    scheduleIn(Tick delta, Callback cb, int priority = defaultPriority)
    {
        return schedule(now_ + delta, std::move(cb), priority);
    }

    /**
     * Cancel a pending event.
     *
     * @retval true the event was pending and is now cancelled.
     * @retval false the event already ran or was cancelled.
     */
    bool deschedule(EventId id);

    /** True if no events remain. */
    bool empty() const { return pending() == 0; }

    /** Number of pending (non-cancelled) events. */
    std::size_t pending() const { return heap_.size() - cancelled_; }

    /**
     * Run events until the queue empties or @p limit is reached.
     *
     * @param limit stop once now() would exceed this tick; events at
     *              exactly @p limit still execute.
     * @return number of events executed.
     */
    std::uint64_t run(Tick limit = maxTick);

    /** Run a single event; returns false if none pending. */
    bool step();

    /** Total events executed over the queue's lifetime. */
    std::uint64_t executed() const { return executed_; }

    /** Total successful deschedules over the queue's lifetime. */
    std::uint64_t descheduled() const { return descheduled_; }

    /** Entry slots currently allocated (capacity, not pending). */
    std::size_t slots() const { return slot_count_; }

    /** Times the cancelled-entry sweep ran. */
    std::uint64_t compactions() const { return compactions_; }

  private:
    /**
     * Slab entry. The slot index plus a generation counter forms the
     * EventId; the generation is bumped on release so stale handles
     * never resolve to a recycled slot.
     */
    struct Entry
    {
        EventCallback cb;
        std::uint32_t gen = 0;
        bool cancelled = false;
    };

    /** Heap node; everything the comparator needs, no pointers. */
    struct HeapNode
    {
        Tick when;
        int priority;
        std::uint64_t seq;
        std::uint32_t slot;
    };

    /** Max-heap comparator: "a runs later than b". */
    struct Later
    {
        bool
        operator()(const HeapNode &a, const HeapNode &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            if (a.priority != b.priority)
                return a.priority > b.priority;
            return a.seq > b.seq;
        }
    };

    static constexpr std::size_t chunkSize = 128;
    /** Don't bother sweeping tiny heaps. */
    static constexpr std::size_t compactMinHeap = 64;

    Entry &
    entry(std::uint32_t slot)
    {
        return chunks_[slot / chunkSize][slot % chunkSize];
    }

    std::uint32_t acquireSlot();
    void releaseSlot(std::uint32_t slot);
    void compact();

    /** Remove and return the heap top. */
    HeapNode popTop();
    /** Reap the heap top if it is a tombstone; true if it was. */
    bool dropCancelledTop();
    /** Run the (live) heap top's callback. */
    void fireTop();

    Tick now_ = 0;
    std::uint64_t next_seq_ = 1;
    std::uint64_t executed_ = 0;
    std::uint64_t descheduled_ = 0;
    std::vector<HeapNode> heap_;
    std::vector<std::unique_ptr<Entry[]>> chunks_;
    std::vector<std::uint32_t> free_slots_;
    std::uint32_t slot_count_ = 0;
    /** Tombstones still inside the heap. */
    std::size_t cancelled_ = 0;
    std::uint64_t compactions_ = 0;
};

} // namespace xfm

#endif // XFM_SIM_EVENT_QUEUE_HH
