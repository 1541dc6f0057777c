#include "vswitchd/upcall_queue.h"

#include <algorithm>

namespace ovs {

void FairUpcallQueue::Ring::push(Packet&& pkt) {
  if (size_ == buf_.size()) {
    // Full: unroll into a buffer twice the size, oldest first.
    std::vector<Packet> grown(std::max<size_t>(8, buf_.size() * 2));
    for (size_t i = 0; i < size_; ++i)
      grown[i] = std::move(buf_[(head_ + i) % buf_.size()]);
    buf_ = std::move(grown);
    head_ = 0;
  }
  buf_[(head_ + size_) % buf_.size()] = std::move(pkt);
  ++size_;
}

FairUpcallQueue::PortState& FairUpcallQueue::state_for(uint32_t port) {
  auto it = per_port_.find(port);
  if (it == per_port_.end()) {
    it = per_port_.emplace(port, PortState{}).first;
    rr_order_.push_back(port);
  }
  return it->second;
}

bool FairUpcallQueue::enqueue(Packet&& pkt) {
  const uint32_t port = pkt.key.in_port();
  PortState& ps = state_for(port);
  if (cfg_.fair && ps.c.depth >= cfg_.per_port_quota) {
    ++ps.c.dropped_quota;
    ++dropped_;
    return false;
  }
  if (total_ >= cfg_.global_cap) {
    ++ps.c.dropped_cap;
    ++dropped_;
    return false;
  }
  if (cfg_.fair)
    ps.q.push(std::move(pkt));
  else
    fifo_.push(std::move(pkt));
  ++ps.c.enqueued;
  ++ps.c.depth;
  ++total_;
  ++enqueued_;
  return true;
}

size_t FairUpcallQueue::take(size_t max, std::vector<Packet>* out) {
  out->clear();
  if (!cfg_.fair) {
    while (out->size() < max && !fifo_.empty()) {
      PortState& ps = state_for(fifo_.front().key.in_port());
      ++ps.c.dequeued;
      --ps.c.depth;
      --total_;
      out->push_back(std::move(fifo_.front()));
      fifo_.pop();
    }
    return out->size();
  }
  while (out->size() < max && total_ > 0) {
    // total_ > 0 guarantees some port is backlogged, so this scan finds one
    // within a full cycle of rr_order_.
    PortState* ps = nullptr;
    do {
      ps = &per_port_[rr_order_[rr_cursor_]];
      rr_cursor_ = (rr_cursor_ + 1) % rr_order_.size();
    } while (ps->q.empty());
    out->push_back(std::move(ps->q.front()));
    ps->q.pop();
    ++ps->c.dequeued;
    --ps->c.depth;
    --total_;
  }
  return out->size();
}

FairUpcallQueue::PortCounters FairUpcallQueue::port_counters(
    uint32_t port) const {
  auto it = per_port_.find(port);
  return it == per_port_.end() ? PortCounters{} : it->second.c;
}

}  // namespace ovs
