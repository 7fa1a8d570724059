/**
 * @file
 * Command descriptors and completion records for the async NMA
 * command rings (NVMe-style submission/completion queue pairs).
 *
 * A command tag packs a slab slot index with a per-slot generation
 * counter: `(generation << commandSlotBits) | slot`. Generations
 * start at 1 and are bumped every time a slot is retired, so a tag
 * is unique over the life of the ring and never equals
 * `invalidOffloadId` — the tag *is* the OffloadId the driver hands
 * out. A completion record carrying a stale generation
 * (its slot was retired by an abort) is rejected at reap time.
 */

#ifndef XFM_NMA_COMMAND_HH
#define XFM_NMA_COMMAND_HH

#include <cstdint>

#include "nma/offload.hh"

namespace xfm
{
namespace nma
{

/** Generation-tagged command identifier (the OffloadId). */
using CommandTag = std::uint64_t;

/** Bits of the tag reserved for the slab slot index. */
constexpr std::uint32_t commandSlotBits = 16;
/** Maximum submission-queue depth expressible in a tag. */
constexpr std::uint32_t maxCommandSlots = 1u << commandSlotBits;

constexpr std::uint32_t
slotOf(CommandTag tag)
{
    return static_cast<std::uint32_t>(tag
                                      & (maxCommandSlots - 1));
}

constexpr std::uint64_t
generationOf(CommandTag tag)
{
    return tag >> commandSlotBits;
}

constexpr CommandTag
makeTag(std::uint64_t generation, std::uint32_t slot)
{
    return (generation << commandSlotBits) | slot;
}

/**
 * One slab-allocated submission-queue entry. The slot is owned by
 * its command from push() until the driver reaps the command's
 * final completion record (write-back or drop) — descriptors are
 * never reused while the command is in flight.
 */
struct CommandDescriptor
{
    OffloadRequest req;             ///< req.id == makeTag(gen, slot)
    std::uint32_t slot = 0;
    std::uint64_t generation = 1;
    Tick enqueued = 0;    ///< driver wrote the descriptor
    Tick doorbelled = 0;  ///< covered by an SQ tail doorbell write
    bool inUse = false;     ///< slot allocated to a live command
    bool visible = false;   ///< doorbell delivered; device may consume
    bool consumed = false;  ///< device pulled it into execution
};

/** What a completion-queue record reports. */
enum class CompletionType : std::uint8_t
{
    Complete,   ///< engine output staged (compress: size now known)
    Writeback,  ///< output landed in DRAM; command finished
    Drop,       ///< command abandoned; CPU must redo it
};

/** One completion-queue ring entry (phase-bit validity). */
struct CompletionRecord
{
    CommandTag tag = 0;
    OffloadKind kind = OffloadKind::Compress;
    CompletionType type = CompletionType::Complete;
    DropReason reason = DropReason::Deadline;  ///< Drop only
    std::uint32_t outputSize = 0;              ///< Complete only
    Tick tick = 0;            ///< when the device posted the record
    std::uint64_t traceId = 0;
    bool phase = false;       ///< device phase bit at post time
};

} // namespace nma
} // namespace xfm

#endif // XFM_NMA_COMMAND_HH
