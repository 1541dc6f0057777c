// Open-addressing hash containers keyed by a caller-supplied 64-bit hash.
//
// Tuple-space search probes one hash table per tuple on the packet fast
// path, so these tables are flat arrays with linear probing (no per-node
// allocation, one cache line per probe in the common case). The caller
// supplies the hash (already computed incrementally during staged lookup)
// and an equality predicate over the stored value, which lets the classifier
// store bare rule pointers and compare masked keys without materializing
// them.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace ovs {

// HashBuckets<V>: multiset of (hash, V) with caller-driven equality.
template <typename V>
class HashBuckets {
 public:
  HashBuckets() = default;

  size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }

  // Finds the first entry with this hash satisfying pred(value).
  template <typename Pred>
  V* find(uint64_t hash, Pred&& pred) noexcept {
    if (slots_.empty()) return nullptr;
    for (size_t i = probe_start(hash);; i = next(i)) {
      Slot& s = slots_[i];
      if (s.state == State::kEmpty) return nullptr;
      if (s.state == State::kFull && s.hash == hash && pred(s.value))
        return &s.value;
    }
  }
  template <typename Pred>
  const V* find(uint64_t hash, Pred&& pred) const noexcept {
    return const_cast<HashBuckets*>(this)->find(hash,
                                                std::forward<Pred>(pred));
  }

  // Inserts unconditionally (duplicates allowed; use find first to dedupe).
  void insert(uint64_t hash, V value) {
    maybe_grow();
    insert_no_grow(hash, std::move(value));
    ++size_;
  }

  // Erases the first entry with this hash satisfying pred. Returns success.
  template <typename Pred>
  bool erase(uint64_t hash, Pred&& pred) noexcept {
    if (slots_.empty()) return false;
    for (size_t i = probe_start(hash);; i = next(i)) {
      Slot& s = slots_[i];
      if (s.state == State::kEmpty) return false;
      if (s.state == State::kFull && s.hash == hash && pred(s.value)) {
        s.state = State::kTombstone;
        s.value = V{};
        --size_;
        ++tombstones_;
        return true;
      }
    }
  }

  template <typename F>
  void for_each(F&& f) const {
    for (const Slot& s : slots_)
      if (s.state == State::kFull) f(s.value);
  }

  void clear() noexcept {
    slots_.clear();
    size_ = tombstones_ = 0;
  }

 private:
  enum class State : uint8_t { kEmpty = 0, kFull = 1, kTombstone = 2 };
  struct Slot {
    uint64_t hash = 0;
    V value{};
    State state = State::kEmpty;
  };

  size_t probe_start(uint64_t hash) const noexcept {
    return hash & (slots_.size() - 1);
  }
  size_t next(size_t i) const noexcept { return (i + 1) & (slots_.size() - 1); }

  void insert_no_grow(uint64_t hash, V value) noexcept {
    for (size_t i = probe_start(hash);; i = next(i)) {
      Slot& s = slots_[i];
      if (s.state != State::kFull) {
        if (s.state == State::kTombstone) --tombstones_;
        s.hash = hash;
        s.value = std::move(value);
        s.state = State::kFull;
        return;
      }
    }
  }

  void maybe_grow() {
    if (slots_.empty()) {
      slots_.resize(16);
      return;
    }
    // Keep load (incl. tombstones) under 70%.
    if ((size_ + tombstones_ + 1) * 10 < slots_.size() * 7) return;
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(old.size() * (size_ + 1 > old.size() / 2 ? 2 : 1), Slot{});
    tombstones_ = 0;
    for (Slot& s : old)
      if (s.state == State::kFull) insert_no_grow(s.hash, std::move(s.value));
  }

  std::vector<Slot> slots_;
  size_t size_ = 0;
  size_t tombstones_ = 0;
};

// HashCounter: multiset of 64-bit hashes with per-hash counts. Used as the
// membership set for intermediate lookup stages (paper §5.3): a stage only
// has to answer "might any rule match through this stage?".
class HashCounter {
 public:
  bool contains(uint64_t hash) const noexcept {
    return counts_.find(hash, [&](const Entry& e) { return e.key == hash; }) !=
           nullptr;
  }

  void add(uint64_t hash) {
    if (Entry* e =
            counts_.find(hash, [&](const Entry& e2) { return e2.key == hash; }))
      ++e->count;
    else
      counts_.insert(hash, Entry{hash, 1});
  }

  void remove(uint64_t hash) noexcept {
    Entry* e =
        counts_.find(hash, [&](const Entry& e2) { return e2.key == hash; });
    assert(e != nullptr && e->count > 0);
    if (e && --e->count == 0)
      counts_.erase(hash, [&](const Entry& e2) { return e2.key == hash; });
  }

  size_t distinct() const noexcept { return counts_.size(); }

 private:
  struct Entry {
    uint64_t key = 0;
    uint32_t count = 0;
  };
  HashBuckets<Entry> counts_;
};

}  // namespace ovs
