/**
 * @file
 * Base class for named simulation components sharing an EventQueue.
 */

#ifndef XFM_SIM_SIM_OBJECT_HH
#define XFM_SIM_SIM_OBJECT_HH

#include <string>
#include <utility>

#include "sim/event_queue.hh"

namespace xfm
{

/**
 * A named component attached to an event queue.
 *
 * SimObjects never own the queue; a top-level System object (or a
 * test) owns it and wires components together.
 */
class SimObject
{
  public:
    SimObject(std::string name, EventQueue &eq)
        : name_(std::move(name)), eq_(eq)
    {}

    virtual ~SimObject() = default;

    SimObject(const SimObject &) = delete;
    SimObject &operator=(const SimObject &) = delete;

    const std::string &name() const { return name_; }
    Tick curTick() const { return eq_.now(); }
    EventQueue &eventq() { return eq_; }
    const EventQueue &eventq() const { return eq_; }

  private:
    std::string name_;
    EventQueue &eq_;
};

} // namespace xfm

#endif // XFM_SIM_SIM_OBJECT_HH
