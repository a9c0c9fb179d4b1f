// TickingComponent: base class for clocked components (memory controller,
// JAFAR engines) that self-schedule on their own clock domain and go fully
// quiescent when idle.
#pragma once

#include "sim/event_queue.h"
#include "sim/time.h"

namespace ndp::sim {

/// \brief A component clocked by a ClockDomain.
///
/// Subclasses implement Tick(), which runs once per local clock edge while the
/// component is "armed". Calling Wake() (e.g. on request arrival) arms the
/// component; Tick() returning false disarms it until the next Wake(). Each
/// edge is processed at most once even if Wake() is called repeatedly.
///
/// The component carries one persistent intrusive EventNode, so re-arming on
/// every clock edge costs no allocation and no std::function construction —
/// the queue dispatches straight into Tick(). The node doubles as the edge
/// bookkeeping: node.when() remembers the last processed edge, which is what
/// prevents a Wake() arriving later in the same tick from double-firing that
/// edge (the seed kernel tracked this with separate last_edge_/had_edge_
/// fields).
class TickingComponent {
 public:
  TickingComponent(EventQueue* eq, ClockDomain clock)
      : eq_(eq), clock_(clock), tick_node_(this) {}
  virtual ~TickingComponent() {
    if (tick_node_.scheduled()) eq_->Cancel(&tick_node_);
  }
  NDP_DISALLOW_COPY_AND_ASSIGN(TickingComponent);

  /// Arms the component: it will tick on the next edge of its clock.
  void Wake() {
    if (tick_node_.scheduled()) return;
    ::ndp::sim::Tick edge = clock_.NextEdgeAtOrAfter(eq_->Now());
    if (edge == tick_node_.when()) edge = clock_.NextEdgeAfter(eq_->Now());
    eq_->Schedule(edge, &tick_node_);
  }

  EventQueue* event_queue() const { return eq_; }
  const ClockDomain& clock() const { return clock_; }

  /// Local cycle index of the component's clock at current sim time.
  // ndp-lint: test-only-ok ticking tests read the local cycle
  uint64_t CurrentCycle() const { return clock_.TickToCycle(eq_->Now()); }

 protected:
  /// One local clock edge. Return true to keep ticking, false to go idle.
  virtual bool Tick() = 0;

 private:
  class TickNode final : public EventNode {
   public:
    explicit TickNode(TickingComponent* component) : component_(component) {}

   protected:
    void Fire() override { component_->OnEdge(); }

   private:
    TickingComponent* component_;
  };

  void OnEdge() {
    bool again = Tick();
    // Tick() may have re-armed the node itself (Wake() from inside); only
    // schedule the next edge if it did not.
    if (again && !tick_node_.scheduled()) {
      eq_->Schedule(clock_.NextEdgeAfter(eq_->Now()), &tick_node_);
    }
  }

  EventQueue* eq_;
  ClockDomain clock_;
  TickNode tick_node_;
};

/// \brief An EventNode that invokes a fixed member function of `T`.
///
/// A reusable, allocation-free alternative to ScheduleAt for components that
/// repeatedly schedule the same action (e.g. the memory controller's refresh
/// wake-up, the core's store-drain retry).
template <typename T, void (T::*Method)()>
class MemberEventNode final : public EventNode {
 public:
  explicit MemberEventNode(T* obj, bool background = false)
      : EventNode(background), obj_(obj) {}

 protected:
  void Fire() override { (obj_->*Method)(); }

 private:
  T* obj_;
};

}  // namespace ndp::sim
