// Recirculation ids and the frozen translation state they name (OVS's
// ofproto-dpif-rid; DESIGN.md §15). Translation stops at a ct action, and
// the datapath actions end in ct(...) + recirc(id), `id` naming where
// translation resumes once the datapath has run the tracker. A frozen
// state holds no bits of the packet's own headers (the recirculated key
// carries them), so there are as many ids as ct actions, not connections.
// Userspace state: it dies with the daemon, and the revalidator frees
// every id no installed flow names.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace ovs {

struct FrozenState {
  uint8_t table = 0;  // where translation resumes after recirculation
  bool operator==(const FrozenState&) const noexcept = default;
};

class RecircTable {
 public:
  // Ids live in recirc_id's 24 bits; 0 means "not recirculated".
  static constexpr uint32_t kMaxId = (uint32_t{1} << 24) - 1;

  // The id naming `fs`, allocating the next free one when none does.
  uint32_t intern(const FrozenState& fs);
  // The id naming `fs`, or 0. Read-only, like state(): revalidator plan
  // threads call both concurrently while nothing interns.
  uint32_t find(const FrozenState& fs) const noexcept;
  // The state `id` names, or null (freed, or minted before a restart).
  const FrozenState* state(uint32_t id) const noexcept;

  // Frees every id not in `live` (sorted).
  void retain(const std::vector<uint32_t>& live);

  size_t size() const noexcept { return ids_.size(); }
  // A rebuilt table resumes at its predecessor's next id: no id repeats.
  uint32_t next_id() const noexcept { return next_; }
  void resume_at(uint32_t next) noexcept { next_ = next; }

 private:
  // A few entries per pipeline: a linear scan beats any index.
  std::vector<std::pair<uint32_t, FrozenState>> ids_;
  uint32_t next_ = 1;
};

}  // namespace ovs
