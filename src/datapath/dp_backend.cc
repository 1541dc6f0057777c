#include "datapath/dp_backend.h"

#include "datapath/datapath.h"
#include "datapath/mt_datapath.h"

namespace ovs {

std::vector<DpBackend::OffloadSlot> DpBackend::offload_dump() const {
  std::vector<OffloadSlot> out;
  const OffloadTable* t = offload();
  if (t == nullptr) return out;
  out.reserve(t->size());
  t->for_each([&](const OffloadTable::Entry& e) {
    out.push_back({static_cast<FlowRef>(e.owner), &e.mask, &e.key, &e.actions,
                   e.counters->hits.load(std::memory_order_relaxed),
                   e.counters->bytes.load(std::memory_order_relaxed)});
  });
  return out;
}

std::unique_ptr<DpBackend> make_dp_backend(const DatapathConfig& cfg,
                                           size_t workers) {
  if (workers <= 1) return std::make_unique<Datapath>(cfg);
  ShardedDatapathConfig mt;
  mt.n_workers = workers;
  mt.emc_enabled = cfg.microflow_enabled;
  mt.emc_capacity_per_shard = cfg.microflow_ways * cfg.microflow_sets;
  mt.max_flows = cfg.max_flows;
  mt.emc_insert_inv_prob = cfg.emc_insert_inv_prob;
  mt.offload_slots = cfg.offload_slots;
  mt.seed = cfg.seed;
  return std::make_unique<ShardedDatapath>(mt);
}

}  // namespace ovs
