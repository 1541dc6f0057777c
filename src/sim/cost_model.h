// CPU cost model for the simulated switch.
//
// The paper's testbed was a 16-core 2.0 GHz Xeon server; we cannot reproduce
// its absolute packet rates on arbitrary hardware, so throughput-and-CPU%
// experiments (Tables 1-2, Figures 7-8) charge *virtual cycles* per
// operation instead. Calibration anchors, from the paper itself:
//
//   * §7.2: the userspace tuple-space classifier does ~6.8 M hash lookups/s
//     on one core -> ~294 cycles per tuple search at 2 GHz.
//   * Figure 8: ~10.6 Mpps with the microflow cache on -> ~190 cycles/packet
//     per core-pair-equivalent fast path; we charge 80 cycles for the EMC
//     probe plus fixed per-packet receive/execute overhead.
//   * Table 1: ~37 ktps TCP_CRR with every microflow missing -> tens of
//     microseconds per flow setup (upcall + 15-table translation + install).
//
// Cycles are split into kernel (datapath) and user (upcall/translate/
// revalidate) pools so CPU% columns can be reported like the paper's
// `user/kernel` pairs.
#pragma once

#include <cstdint>

namespace ovs {

struct CostModel {
  double ghz = 2.0;           // virtual core frequency
  double n_cores = 16;        // the paper's two 8-core Xeons

  // Kernel-side (datapath) costs, in cycles. The kernel's per-tuple search
  // is far cheaper than the userspace classifier's (no staging, no
  // priorities, no wildcard tracking): Figure 8's ~2 Mpps floor at 30+
  // masks on the paper's testbed implies roughly 65 cycles per mask probed.
  double per_packet = 250;       // rx, parse, action execution
  double microflow_probe = 80;   // exact-match cache probe
  double per_tuple = 65;         // one megaflow hash-table search
  double emc_insert = 300;       // EMC slot write + eviction bookkeeping
  double miss_kernel = 1200;     // enqueue upcall, context mgmt

  // Simulated NIC hardware-offload tier (DESIGN.md §13). A probe models the
  // on-NIC TCAM/exact-match lookup the host CPU never sees: the only
  // software cost is reading the match result out of the descriptor, an
  // order of magnitude under the EMC's hash-probe-and-compare. Install and
  // evict are slow-path control operations (descriptor write + doorbell over
  // PCIe), charged to the control thread at placement time, not per packet.
  double offload_probe = 15;     // descriptor match-result read
  double offload_install = 500;  // slot program: PCIe write + doorbell
  double offload_evict = 300;    // slot invalidate + counter readback

  // Batched (PMD-style) receive path. A burst pays one fixed cost plus a
  // reduced per-packet cost (amortized rx/prefetch/icache, as in OVS-DPDK);
  // cache probes are then charged per *deduplicated* probe from the
  // Datapath::BatchSummary, which is where batching actually wins.
  double batch_fixed = 300;          // per-burst poll/dispatch overhead
  double per_packet_batched = 150;   // rx+execute amortized within a burst

  // Userspace costs, in cycles.
  double upcall_fixed = 9000;      // per-miss handling + flow install
  double upcall_syscall = 4000;    // kernel/user crossing; *batching* (§4.1)
                                   // amortizes this over the whole batch
  double per_table_lookup = 800;   // one OpenFlow table classification
  double reval_per_flow = 6000;    // dump + re-translate + compare (§6)
  double reval_thread_sync = 15000;  // per revalidator thread per pass:
                                     // fan-out, join, cache handoff (§4.3);
                                     // charged only when threads > 1
  double install_fail = 600;       // failed netlink install (error return)
  double upcall_requeue = 400;     // park a miss on the retry queue

  // Crash/restart recovery (DESIGN.md §9). A daemon restart pays a fixed
  // re-exec cost (config re-read, socket setup) before the reconciliation
  // pass, whose per-flow work reuses reval_per_flow/per_table_lookup; the
  // invariant self-check is a hash-and-compare sweep per live flow.
  double restart_fixed = 2e6;      // daemon re-exec + durable config load
  double dp_check_per_flow = 120;  // invariant checker per-flow sweep cost

  double cycles_per_second_total() const noexcept {
    return ghz * 1e9 * n_cores;
  }
  double seconds(double cycles) const noexcept {
    return cycles / (ghz * 1e9);
  }
};

// Cycle accumulator, split like the paper's CPU% columns.
struct CpuAccounting {
  double kernel_cycles = 0;
  double user_cycles = 0;

  // CPU load as a percentage of ONE core over a (virtual) duration, the
  // paper's convention (values can exceed 100% via multithreading).
  double user_pct(double seconds, const CostModel& m) const noexcept {
    return 100.0 * m.seconds(user_cycles) / seconds;
  }
  double kernel_pct(double seconds, const CostModel& m) const noexcept {
    return 100.0 * m.seconds(kernel_cycles) / seconds;
  }

  void reset() noexcept { kernel_cycles = user_cycles = 0; }
};

}  // namespace ovs
