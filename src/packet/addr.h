// Address value types: Ethernet MAC, IPv4, IPv6.
//
// These are plain value types (C.10: prefer concrete types) with parsing and
// formatting helpers used by examples, tests, and the flow formatter.
#pragma once

#include <array>
#include <cstdint>
#include <cstdio>
#include <string>

namespace ovs {

// 48-bit Ethernet address stored in the low 48 bits of a uint64_t.
class EthAddr {
 public:
  constexpr EthAddr() noexcept = default;
  constexpr explicit EthAddr(uint64_t bits) noexcept
      : bits_(bits & 0xffffffffffffULL) {}
  constexpr EthAddr(uint8_t a, uint8_t b, uint8_t c, uint8_t d, uint8_t e,
                    uint8_t f) noexcept
      : bits_((uint64_t{a} << 40) | (uint64_t{b} << 32) | (uint64_t{c} << 24) |
              (uint64_t{d} << 16) | (uint64_t{e} << 8) | uint64_t{f}) {}

  // The I/G (group) bit: the least significant bit of the first octet.
  static constexpr uint64_t kGroupBit = 1ULL << 40;

  constexpr uint64_t bits() const noexcept { return bits_; }
  constexpr bool is_broadcast() const noexcept {
    return bits_ == 0xffffffffffffULL;
  }
  constexpr bool is_multicast() const noexcept {
    return (bits_ & kGroupBit) != 0;
  }

  std::string to_string() const {
    char buf[18];
    std::snprintf(buf, sizeof buf, "%02x:%02x:%02x:%02x:%02x:%02x",
                  unsigned(bits_ >> 40) & 0xff, unsigned(bits_ >> 32) & 0xff,
                  unsigned(bits_ >> 24) & 0xff, unsigned(bits_ >> 16) & 0xff,
                  unsigned(bits_ >> 8) & 0xff, unsigned(bits_) & 0xff);
    return buf;
  }

  constexpr bool operator==(const EthAddr&) const noexcept = default;

 private:
  uint64_t bits_ = 0;
};

inline constexpr EthAddr kEthBroadcast{0xffffffffffffULL};

// IPv4 address in host byte order.
class Ipv4 {
 public:
  constexpr Ipv4() noexcept = default;
  constexpr explicit Ipv4(uint32_t v) noexcept : v_(v) {}
  constexpr Ipv4(uint8_t a, uint8_t b, uint8_t c, uint8_t d) noexcept
      : v_((uint32_t{a} << 24) | (uint32_t{b} << 16) | (uint32_t{c} << 8) |
           uint32_t{d}) {}

  constexpr uint32_t value() const noexcept { return v_; }

  std::string to_string() const {
    char buf[16];
    std::snprintf(buf, sizeof buf, "%u.%u.%u.%u", (v_ >> 24) & 0xff,
                  (v_ >> 16) & 0xff, (v_ >> 8) & 0xff, v_ & 0xff);
    return buf;
  }

  constexpr bool operator==(const Ipv4&) const noexcept = default;

 private:
  uint32_t v_ = 0;
};

// /len CIDR mask over a 32-bit value.
constexpr uint32_t ipv4_prefix_mask(unsigned len) noexcept {
  return len == 0 ? 0u : ~uint32_t{0} << (32 - len);
}

// IPv6 address as two host-order 64-bit halves (hi = first 8 bytes).
class Ipv6 {
 public:
  constexpr Ipv6() noexcept = default;
  constexpr Ipv6(uint64_t hi, uint64_t lo) noexcept : hi_(hi), lo_(lo) {}

  constexpr uint64_t hi() const noexcept { return hi_; }
  constexpr uint64_t lo() const noexcept { return lo_; }

  std::string to_string() const {
    char buf[48];
    std::snprintf(buf, sizeof buf, "%llx:%llx:%llx:%llx:%llx:%llx:%llx:%llx",
                  (unsigned long long)(hi_ >> 48) & 0xffff,
                  (unsigned long long)(hi_ >> 32) & 0xffff,
                  (unsigned long long)(hi_ >> 16) & 0xffff,
                  (unsigned long long)hi_ & 0xffff,
                  (unsigned long long)(lo_ >> 48) & 0xffff,
                  (unsigned long long)(lo_ >> 32) & 0xffff,
                  (unsigned long long)(lo_ >> 16) & 0xffff,
                  (unsigned long long)lo_ & 0xffff);
    return buf;
  }

  constexpr bool operator==(const Ipv6&) const noexcept = default;

 private:
  uint64_t hi_ = 0;
  uint64_t lo_ = 0;
};

// Ethertypes and IP protocol numbers used across the library.
namespace ethertype {
inline constexpr uint16_t kIpv4 = 0x0800;
inline constexpr uint16_t kArp = 0x0806;
inline constexpr uint16_t kVlan = 0x8100;
inline constexpr uint16_t kIpv6 = 0x86dd;
}  // namespace ethertype

namespace ipproto {
inline constexpr uint8_t kIcmp = 1;
inline constexpr uint8_t kTcp = 6;
inline constexpr uint8_t kUdp = 17;
inline constexpr uint8_t kIcmpv6 = 58;
inline constexpr uint8_t kSctp = 132;
}  // namespace ipproto

}  // namespace ovs
