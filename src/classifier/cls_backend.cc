#include "classifier/cls_backend.h"

#include "classifier/chain_engine.h"
#include "classifier/staged_tss.h"
#include "classifier/tenant_engine.h"

namespace ovs {

void ClassifierBackend::lookup_batch(const FlowKey* keys, size_t n,
                                     const Rule** out,
                                     FlowWildcards* wcs) const noexcept {
  for (size_t i = 0; i < n; ++i)
    out[i] = lookup(keys[i], wcs != nullptr ? &wcs[i] : nullptr, nullptr);
}

std::unique_ptr<ClassifierBackend> make_classifier_backend(
    const ClassifierConfig& cfg) {
  // The tenant-partition wrapper composes with any engine: it builds its
  // inner backends through this same factory with the flag cleared.
  if (cfg.tenant_partition) return std::make_unique<TenantPartitionEngine>(cfg);
  switch (cfg.engine) {
    case ClassifierEngine::kChainedTuple:
      return std::make_unique<ChainedTupleEngine>(cfg);
    case ClassifierEngine::kStagedTss:
      break;
  }
  return std::make_unique<StagedTssEngine>(cfg);
}

}  // namespace ovs
