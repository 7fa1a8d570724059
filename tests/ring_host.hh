/**
 * @file
 * RingHost: the host side of one XfmDevice's queue pair, for tests
 * that drive a device without an XfmDriver.
 *
 * submit() writes a descriptor and rings the SQ tail doorbell at
 * once, so a submission made before a refresh window is visible to
 * that window. Every CQ interrupt is reaped on the spot and each
 * record dispatched to the handlers below; a command's slot is
 * retired when its final record (write-back or drop) is reaped.
 */

#ifndef XFM_TESTS_RING_HOST_HH
#define XFM_TESTS_RING_HOST_HH

#include "nma/xfm_device.hh"

namespace xfm
{
namespace nma
{

class RingHost
{
  public:
    explicit RingHost(XfmDevice &dev) : dev_(dev)
    {
        dev_.setCqReadyCallback([this] { reap(); });
    }

    RingHost(const RingHost &) = delete;
    RingHost &operator=(const RingHost &) = delete;

    /** Submit @p req and make it device-visible immediately. */
    OffloadId
    submit(const OffloadRequest &req)
    {
        const OffloadId id = dev_.submit(req);
        if (id != invalidOffloadId)
            dev_.regs().write(Reg::SqTailDoorbell,
                              dev_.ring().sq().tailIndex());
        return id;
    }

    CompletionCallback onComplete;
    WritebackCallback onWriteback;
    DropCallback onDrop;

  private:
    void
    reap()
    {
        CommandRing &ring = dev_.ring();
        CompletionRecord rec;
        while (ring.cq().reap(rec)) {
            if (!ring.sq().validTag(rec.tag))
                continue;  // aborted after the record was posted
            switch (rec.type) {
              case CompletionType::Complete:
                if (onComplete)
                    onComplete(
                        {rec.tag, rec.kind, rec.outputSize, rec.tick});
                break;
              case CompletionType::Writeback:
                ring.sq().retire(rec.tag);
                if (onWriteback)
                    onWriteback(rec.tag, rec.tick);
                break;
              case CompletionType::Drop:
                ring.sq().retire(rec.tag);
                if (onDrop)
                    onDrop(rec.tag, rec.reason);
                break;
            }
        }
    }

    XfmDevice &dev_;
};

} // namespace nma
} // namespace xfm

#endif // XFM_TESTS_RING_HOST_HH
