// Benchmark workloads: how each one configures the switch, installs its
// pipeline, and turns a seed into a deterministic stream of raw 64-byte
// frames grouped into receive bursts.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "vswitchd/switch.h"

namespace perfbench {

// Nothing in the switch reads payload, so every frame is minimum-size: a
// larger frame would only lengthen the copy into the parser.
inline constexpr size_t kFrameBytes = 64;
inline constexpr size_t kBurst = 32;

// Pre-generated input: frames back to back, each with its ingress port, cut
// into bursts. A burst is what one inject_batch call receives.
struct Input {
  std::vector<uint8_t> bytes;          // frames() * kFrameBytes
  std::vector<uint32_t> in_port;       // per frame
  std::vector<uint32_t> burst_end;     // exclusive end frame of each burst

  size_t frames() const noexcept { return in_port.size(); }
  size_t bursts() const noexcept { return burst_end.size(); }
  size_t burst_begin(size_t b) const noexcept {
    return b == 0 ? 0 : burst_end[b - 1];
  }
  std::span<const uint8_t> frame(size_t i) const noexcept {
    return {bytes.data() + i * kFrameBytes, kFrameBytes};
  }
};

enum class Kind : uint8_t { kZipfFwd, kCrrPaper, kCrrStateful };

struct Workload {
  Kind kind;
  const char* name;
  // Virtual time advanced per frame. Fixed, so idle expiry and
  // revalidation do the same work on every run of a seed.
  uint64_t vt_ns_per_frame;
  size_t frames_per_pass;
};

// The workload called `name`, or nullopt.
std::optional<Workload> find_workload(const std::string& name);
const std::vector<Workload>& all_workloads();

// A switch configured and programmed for the workload. Built the same way
// for the driven switch and for the never-driven reference.
std::unique_ptr<ovs::Switch> build_switch(const Workload& w);

// The workload's frames for `seed`, addressed to the ports and MACs the
// pipeline build_switch(w) installs.
Input generate_input(const Workload& w, uint64_t seed);

}  // namespace perfbench
