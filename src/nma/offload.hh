/**
 * @file
 * Offload request/response types shared by the NMA device, the XFM
 * driver, and the XFM backend.
 */

#ifndef XFM_NMA_OFFLOAD_HH
#define XFM_NMA_OFFLOAD_HH

#include <cstdint>
#include <functional>
#include <memory>

#include "common/units.hh"
#include "compress/compressor.hh"

namespace xfm
{
namespace nma
{

/** Kind of (de)compression offload. */
enum class OffloadKind
{
    Compress,
    Decompress,
};

/** How an NMA DRAM access was scheduled within a refresh window. */
enum class AccessClass
{
    Conditional,  ///< row was being refreshed; piggybacked
    Random,       ///< SALP parallel access to another subarray
};

/** Unique offload identifier assigned by the device. */
using OffloadId = std::uint64_t;

constexpr OffloadId invalidOffloadId = 0;

/** Why an accepted offload was abandoned (drop callback detail). */
enum class DropReason : std::uint8_t
{
    Deadline,      ///< request deadline passed before execution
    EngineStall,   ///< injected engine stall/timeout mid-window
    Watchdog,      ///< stuck past the watchdog deadline
    DoorbellLost,  ///< the driver gave up ringing its SQ doorbell
};

/**
 * A descriptor pushed into the Compress_Request_Queue.
 *
 * For Compress, @p srcAddr names an uncompressed page shard in this
 * device's rank and @p size its length; the write-back destination
 * is supplied later via commitWriteback() once the backend has
 * allocated space for the now-known compressed size.
 *
 * For Decompress, @p srcAddr names the compressed entry, @p size its
 * compressed length, and @p dstAddr the destination page frame
 * (known up front).
 */
struct OffloadRequest
{
    /** Assigned by the device at submit(); 0 until then. */
    std::uint64_t id = 0;

    OffloadKind kind = OffloadKind::Compress;
    std::uint64_t srcAddr = 0;
    std::uint32_t size = 0;
    std::uint64_t dstAddr = 0;     ///< decompress only
    std::uint32_t rawSize = 0;     ///< decompress: expected output
    Tick deadline = maxTick;       ///< fall back if not started by then
    /** SPM partition charged for the staged output (0 = uncapped). */
    std::uint32_t partition = 0;
    /** obs::Tracer request id this offload belongs to (0 = untraced). */
    std::uint64_t traceId = 0;
    /** Stamped by the device at submit(); anchors the queue span. */
    Tick submitTick = 0;
    /**
     * Preset dictionary staged with the descriptor (DESIGN.md §16);
     * nullptr/empty disables dict mode. Compress offloads emit
     * dict-referencing (0xD2) blocks with it; decompress offloads
     * need it back to decode those blocks — the driver recovers it
     * from the page's once-per-slot packed copy and stages it into
     * the engine's SPM as part of the descriptor.
     */
    std::shared_ptr<const Bytes> dict;
};

/** Completion record delivered to the driver. */
struct OffloadCompletion
{
    OffloadId id = invalidOffloadId;
    OffloadKind kind = OffloadKind::Compress;
    std::uint32_t outputSize = 0;   ///< compressed/decompressed bytes
    Tick finished = 0;              ///< compute done (before writeback)
};

/** Callback invoked when engine work finishes (compress path). */
using CompletionCallback = std::function<void(const OffloadCompletion &)>;

/** Callback invoked when the write-back has been committed to DRAM. */
using WritebackCallback = std::function<void(OffloadId, Tick)>;

/** Callback invoked when an accepted offload is abandoned. */
using DropCallback = std::function<void(OffloadId, DropReason)>;

} // namespace nma
} // namespace xfm

#endif // XFM_NMA_OFFLOAD_HH
