// Deterministic fault injection for the slow path.
//
// The cache hierarchy is only as strong as its miss path (§6, §7.2): what
// keeps a switch alive under adversarial churn is how it behaves when
// upcalls are lost, flow installs fail, the revalidator misses its deadline,
// or cached state rots. This injector gives tests and benches a seedable,
// scriptable way to exercise exactly those failure modes.
//
// Each FaultPoint is an independent stream of *occurrences*: every time the
// instrumented code reaches the decision point it calls should_fire(), which
// consumes one occurrence and answers whether the fault happens. Three
// schedules compose per point (any of them firing fires the fault):
//
//   * probability p      — each occurrence fires i.i.d. with probability p,
//                          drawn from a per-point RNG so enabling one point
//                          never perturbs another point's stream;
//   * window [from, to)  — occurrences in the half-open index range fire
//                          deterministically (a scripted outage);
//   * script {i, j, ...} — exact occurrence indices fire (surgical tests).
//
// Thread-safe: decision points live on the Switch's slow path *and* on the
// datapath workers' upcall flushes, so all state is guarded by a mutex
// (the cost is irrelevant off the fast path).
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <mutex>
#include <vector>

#include "util/rng.h"

namespace ovs {

enum class FaultPoint : uint8_t {
  kUpcallDrop = 0,     // miss upcall vanishes before reaching userspace
  kUpcallDelay,        // upcall parked; delivered one handler round late
  kUpcallDuplicate,    // upcall delivered twice (netlink redelivery)
  kInstallTableFull,   // flow install fails: table full (ENOSPC-like)
  kInstallTransient,   // flow install fails: transient error (EAGAIN-like)
  kEntryCorrupt,       // an installed entry's actions are scrambled
  kEntryExpire,        // an installed entry's used time is zeroed
  kRevalidatorStall,   // a revalidation pass blocks past its deadline
  kUserspaceCrash,     // vswitchd dies; datapath keeps serving its cache
  kReconcileStall,     // restart reconciliation blocks for one round
  // Control-plane wire faults (DESIGN.md §12): consulted by the
  // controller<->switch transport (src/ctrl/) per message or per channel.
  kCtrlMsgDrop,        // control message vanishes on the wire
  kCtrlMsgDelay,       // control message delivered late
  kCtrlMsgDuplicate,   // control message delivered twice
  kCtrlConnReset,      // channel torn down; in-flight messages lost
  kControllerCrash,    // the active controller process dies
  kNumPoints
};

constexpr size_t kNumFaultPoints = static_cast<size_t>(FaultPoint::kNumPoints);

inline const char* fault_point_name(FaultPoint p) noexcept {
  switch (p) {
    case FaultPoint::kUpcallDrop: return "upcall_drop";
    case FaultPoint::kUpcallDelay: return "upcall_delay";
    case FaultPoint::kUpcallDuplicate: return "upcall_duplicate";
    case FaultPoint::kInstallTableFull: return "install_table_full";
    case FaultPoint::kInstallTransient: return "install_transient";
    case FaultPoint::kEntryCorrupt: return "entry_corrupt";
    case FaultPoint::kEntryExpire: return "entry_expire";
    case FaultPoint::kRevalidatorStall: return "revalidator_stall";
    case FaultPoint::kUserspaceCrash: return "userspace_crash";
    case FaultPoint::kReconcileStall: return "reconcile_stall";
    case FaultPoint::kCtrlMsgDrop: return "ctrl_msg_drop";
    case FaultPoint::kCtrlMsgDelay: return "ctrl_msg_delay";
    case FaultPoint::kCtrlMsgDuplicate: return "ctrl_msg_duplicate";
    case FaultPoint::kCtrlConnReset: return "ctrl_conn_reset";
    case FaultPoint::kControllerCrash: return "controller_crash";
    default: return "?";
  }
}

class FaultInjector {
 public:
  explicit FaultInjector(uint64_t seed = 0xFA117) noexcept : seed_(seed) {
    for (size_t i = 0; i < kNumFaultPoints; ++i)
      points_[i].rng = Rng(seed + 0x9E3779B97F4A7C15ULL * (i + 1));
    victim_rng_ = Rng(seed ^ 0xBADF00D);
  }

  void set_probability(FaultPoint p, double prob) {
    std::lock_guard<std::mutex> lk(mu_);
    at(p).probability = prob;
  }

  // Occurrences with index in [from, to) fire deterministically.
  void arm_window(FaultPoint p, uint64_t from, uint64_t to) {
    std::lock_guard<std::mutex> lk(mu_);
    at(p).window_from = from;
    at(p).window_to = to;
  }

  // Exact occurrence indices that fire. Indices already consumed are inert.
  void script(FaultPoint p, std::vector<uint64_t> fire_at) {
    std::lock_guard<std::mutex> lk(mu_);
    std::sort(fire_at.begin(), fire_at.end());
    at(p).script = std::move(fire_at);
    at(p).script_pos = 0;
  }

  // Clears every schedule for the point; occurrence/fired counters survive.
  void disarm(FaultPoint p) {
    std::lock_guard<std::mutex> lk(mu_);
    Point& pt = at(p);
    pt.probability = 0;
    pt.window_from = pt.window_to = 0;
    pt.script.clear();
    pt.script_pos = 0;
  }

  void disarm_all() {
    for (size_t i = 0; i < kNumFaultPoints; ++i)
      disarm(static_cast<FaultPoint>(i));
  }

  // Rewinds one point for replay: the occurrence/fired counters return to
  // zero, the script cursor to its start, and the probability stream to its
  // seed-derived origin. Schedules stay armed, so a reconnecting channel
  // re-runs the same deterministic fault script it saw the first time.
  void reset(FaultPoint p) {
    std::lock_guard<std::mutex> lk(mu_);
    Point& pt = at(p);
    pt.occurrences = 0;
    pt.fired = 0;
    pt.script_pos = 0;
    pt.rng = Rng(seed_ + 0x9E3779B97F4A7C15ULL *
                             (static_cast<size_t>(p) + 1));
  }

  // Rewinds every point and the victim stream (whole-injector replay).
  void reset() {
    for (size_t i = 0; i < kNumFaultPoints; ++i)
      reset(static_cast<FaultPoint>(i));
    std::lock_guard<std::mutex> lk(mu_);
    victim_rng_ = Rng(seed_ ^ 0xBADF00D);
  }

  // The instrumented decision point: consumes one occurrence.
  bool should_fire(FaultPoint p) {
    std::lock_guard<std::mutex> lk(mu_);
    Point& pt = at(p);
    const uint64_t occ = pt.occurrences++;
    bool fire = pt.window_from < pt.window_to && occ >= pt.window_from &&
                occ < pt.window_to;
    while (pt.script_pos < pt.script.size() &&
           pt.script[pt.script_pos] < occ)
      ++pt.script_pos;
    if (!fire && pt.script_pos < pt.script.size() &&
        pt.script[pt.script_pos] == occ) {
      fire = true;
      ++pt.script_pos;
    }
    if (!fire && pt.probability > 0) fire = pt.rng.chance(pt.probability);
    if (fire) ++pt.fired;
    return fire;
  }

  // Deterministic victim selection (e.g. which entry to corrupt).
  uint64_t pick(uint64_t bound) {
    std::lock_guard<std::mutex> lk(mu_);
    return victim_rng_.uniform(bound);
  }

  uint64_t fired(FaultPoint p) const {
    std::lock_guard<std::mutex> lk(mu_);
    return at(p).fired;
  }
  uint64_t occurrences(FaultPoint p) const {
    std::lock_guard<std::mutex> lk(mu_);
    return at(p).occurrences;
  }
  uint64_t total_fired() const {
    std::lock_guard<std::mutex> lk(mu_);
    uint64_t n = 0;
    for (const Point& pt : points_) n += pt.fired;
    return n;
  }

 private:
  struct Point {
    double probability = 0;
    uint64_t window_from = 0;
    uint64_t window_to = 0;
    std::vector<uint64_t> script;
    size_t script_pos = 0;
    uint64_t occurrences = 0;
    uint64_t fired = 0;
    Rng rng{0};
  };

  Point& at(FaultPoint p) noexcept {
    return points_[static_cast<size_t>(p)];
  }
  const Point& at(FaultPoint p) const noexcept {
    return points_[static_cast<size_t>(p)];
  }

  mutable std::mutex mu_;
  uint64_t seed_ = 0;  // construction seed, kept so reset() can rewind
  std::array<Point, kNumFaultPoints> points_;
  Rng victim_rng_{0};
};

}  // namespace ovs
