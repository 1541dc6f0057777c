// Bounded per-port upcall queues with fair round-robin dequeue.
//
// The datapath's miss queue used to be one global FIFO: a single hostile
// port generating a connection storm (or a tuple-space-explosion adversary)
// could fill it end to end, starving every other port of flow setups — the
// cascade §6's flow limits exist to prevent. This queue gives each ingress
// port its own bounded backlog (per-port quota) under a global cap, and
// dequeues round-robin across ports, so a port's slow-path service share is
// bounded below regardless of any other port's offered load.
//
// `fair = false` collapses the structure to the historical single FIFO
// (global cap only, arrival order) — the ablation the storm bench compares
// against. Per-port accounting is kept in both modes.
//
// Backlogs are ring buffers that keep their storage and take() fills a
// caller-owned batch, so a steady miss stream allocates nothing here.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "packet/packet.h"

namespace ovs {

struct UpcallQueueConfig {
  bool fair = true;           // false: one global FIFO (pre-hardening shape)
  size_t per_port_quota = 512;  // max queued upcalls per ingress port
  size_t global_cap = 4096;     // max queued upcalls across all ports
};

class FairUpcallQueue {
 public:
  explicit FairUpcallQueue(UpcallQueueConfig cfg = {}) : cfg_(cfg) {}

  // Queues one miss upcall (keyed by the packet's in_port). Returns false —
  // and counts the drop against the port — when the port's quota or the
  // global cap is exhausted.
  bool enqueue(Packet&& pkt);

  // Dequeues up to `max` upcalls into `*out` (cleared first; its storage is
  // reused) and returns how many. Fair mode: one packet per backlogged port
  // per round-robin pass, resuming after the last port served so no port is
  // systematically first. FIFO mode: arrival order.
  size_t take(size_t max, std::vector<Packet>* out);
  // The same, into a fresh vector.
  std::vector<Packet> take(size_t max) {
    std::vector<Packet> out;
    take(max, &out);
    return out;
  }

  size_t depth() const noexcept { return total_; }

  struct PortCounters {
    uint64_t enqueued = 0;
    uint64_t dequeued = 0;
    uint64_t dropped_quota = 0;  // port backlog at per_port_quota
    uint64_t dropped_cap = 0;    // queue at global_cap
    size_t depth = 0;
  };
  PortCounters port_counters(uint32_t port) const;
  std::vector<uint32_t> ports() const { return rr_order_; }

  uint64_t total_dropped() const noexcept { return dropped_; }
  uint64_t total_enqueued() const noexcept { return enqueued_; }
  const UpcallQueueConfig& config() const noexcept { return cfg_; }

 private:
  // FIFO over a ring buffer that grows to its deepest backlog and keeps
  // that storage.
  class Ring {
   public:
    bool empty() const noexcept { return size_ == 0; }
    void push(Packet&& pkt);
    Packet& front() noexcept { return buf_[head_]; }
    void pop() noexcept {
      head_ = head_ + 1 == buf_.size() ? 0 : head_ + 1;
      --size_;
    }

   private:
    std::vector<Packet> buf_;
    size_t head_ = 0;
    size_t size_ = 0;
  };

  struct PortState {
    Ring q;  // unused in FIFO mode (fifo_ holds the packets)
    PortCounters c;
  };

  PortState& state_for(uint32_t port);

  UpcallQueueConfig cfg_;
  std::unordered_map<uint32_t, PortState> per_port_;
  std::vector<uint32_t> rr_order_;  // ports in first-seen order
  size_t rr_cursor_ = 0;
  Ring fifo_;  // FIFO-mode storage
  size_t total_ = 0;
  uint64_t enqueued_ = 0;
  uint64_t dropped_ = 0;
};

}  // namespace ovs
