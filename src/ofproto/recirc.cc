#include "ofproto/recirc.h"

#include <algorithm>

namespace ovs {

uint32_t RecircTable::intern(const FrozenState& fs) {
  if (const uint32_t id = find(fs)) return id;
  // Skip ids still in use once the counter wraps.
  while (state(next_) != nullptr) next_ = next_ == kMaxId ? 1 : next_ + 1;
  const uint32_t id = next_;
  next_ = next_ == kMaxId ? 1 : next_ + 1;
  ids_.emplace_back(id, fs);
  return id;
}

uint32_t RecircTable::find(const FrozenState& fs) const noexcept {
  for (const auto& [id, s] : ids_)
    if (s == fs) return id;
  return 0;
}

const FrozenState* RecircTable::state(uint32_t id) const noexcept {
  for (const auto& [i, s] : ids_)
    if (i == id) return &s;
  return nullptr;
}

void RecircTable::retain(const std::vector<uint32_t>& live) {
  std::erase_if(ids_, [&](const std::pair<uint32_t, FrozenState>& e) {
    return !std::binary_search(live.begin(), live.end(), e.first);
  });
}

}  // namespace ovs
