// A vector of trivially copyable elements with inline capacity.
//
// Up to N elements live inside the object itself; past that the elements
// spill to one heap block. Translation results, datapath action lists and
// per-flow attribution lists all have a short common length (a handful of
// actions, one matched rule per table visited), so keeping those inline
// makes the slow path's translate → install → revalidate cycle free of heap
// traffic, and a flow's record needs no second block for its attribution.
//
// Copying allocates exactly the source's size when it does not fit inline
// (no spare capacity is copied into a long-lived owner); moving steals a
// spilled block and copies an inline one. clear() keeps a spilled block, so
// a reused scratch buffer stops allocating once it has seen its deepest
// translation.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>

namespace ovs {

template <typename T, size_t N>
class InlineVec {
  static_assert(std::is_trivially_copyable_v<T>);
  static_assert(N > 0);

 public:
  using value_type = T;
  using iterator = T*;
  using const_iterator = const T*;

  InlineVec() noexcept = default;
  InlineVec(const InlineVec& o) { append(o.data(), o.size_); }
  InlineVec(InlineVec&& o) noexcept { take(o); }
  InlineVec& operator=(const InlineVec& o) {
    if (this != &o) {
      size_ = 0;
      if (o.size_ > cap_) release();
      append(o.data(), o.size_);
    }
    return *this;
  }
  InlineVec& operator=(InlineVec&& o) noexcept {
    if (this != &o) {
      release();
      take(o);
    }
    return *this;
  }
  ~InlineVec() { release(); }

  T* data() noexcept { return spilled() ? heap_ : inline_data(); }
  const T* data() const noexcept {
    return spilled() ? heap_ : inline_data();
  }
  size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }
  // True while the elements are stored inside the object.
  bool is_inline() const noexcept { return !spilled(); }

  iterator begin() noexcept { return data(); }
  iterator end() noexcept { return data() + size_; }
  const_iterator begin() const noexcept { return data(); }
  const_iterator end() const noexcept { return data() + size_; }

  T& operator[](size_t i) noexcept { return data()[i]; }
  const T& operator[](size_t i) const noexcept { return data()[i]; }
  T& back() noexcept { return data()[size_ - 1]; }
  const T& back() const noexcept { return data()[size_ - 1]; }

  void push_back(const T& v) {
    const T copy = v;  // v may live in the block grow() frees
    if (size_ == cap_) grow(size_t{cap_} * 2);
    ::new (data() + size_) T(copy);
    ++size_;
  }
  void pop_back() noexcept { --size_; }
  void clear() noexcept { size_ = 0; }

  friend bool operator==(const InlineVec& a, const InlineVec& b) noexcept {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }

 private:
  bool spilled() const noexcept { return cap_ > N; }
  T* inline_data() noexcept {
    return std::launder(reinterpret_cast<T*>(buf_));
  }
  const T* inline_data() const noexcept {
    return std::launder(reinterpret_cast<const T*>(buf_));
  }

  // Moves the elements to a heap block of exactly `cap` slots.
  void grow(size_t cap) {
    T* block = std::allocator<T>().allocate(cap);
    std::uninitialized_copy_n(data(), size_, block);
    release_block();
    heap_ = block;
    cap_ = static_cast<uint32_t>(cap);
  }
  void append(const T* src, size_t n) {
    if (size_ + n > cap_) grow(size_ + n);
    std::uninitialized_copy_n(src, n, data() + size_);
    size_ += static_cast<uint32_t>(n);
  }
  void take(InlineVec& o) noexcept {
    if (o.spilled()) {
      heap_ = o.heap_;
      cap_ = o.cap_;
      o.cap_ = N;
    } else {
      std::uninitialized_copy_n(o.inline_data(), o.size_, inline_data());
    }
    size_ = o.size_;
    o.size_ = 0;
  }
  void release_block() noexcept {
    if (spilled()) std::allocator<T>().deallocate(heap_, cap_);
  }
  void release() noexcept {
    release_block();
    cap_ = N;
  }

  union {
    T* heap_ = nullptr;
    alignas(T) unsigned char buf_[N * sizeof(T)];
  };
  uint32_t size_ = 0;
  uint32_t cap_ = N;
};

}  // namespace ovs
