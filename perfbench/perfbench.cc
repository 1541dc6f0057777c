// Wall-clock benchmark: raw frames in -> executed actions out through a
// default-configured ovs::Switch, on one thread, timed by host clocks only.
//
//   perfbench --workload <zipf_fwd|crr_paper|crr_stateful> --seed <n>
//             --seconds <s> --trace <0|1> [--commit <id>]
//
// A run repeats identical *passes* until --seconds have elapsed; the first
// is a warm-up that is checked but not timed. A pass generates the seed's
// frames, builds a fresh switch (together: set-up), then drives every burst
// through a closed loop:
//
//   parse_to_packet (per frame) -> Switch::inject_batch (32-frame burst)
//     -> Switch::handle_upcalls, and Switch::run_maintenance whenever one
//     virtual second has passed.
//
// The next burst is parsed only after the previous burst's upcalls were
// served. Every pass does the same work, so its counts must repeat exactly;
// each pass's egress is checked against a never-driven reference pipeline.
//
// pkt_rate_mpps counts frames that met their reference fate (forwarded, or
// dropped where the reference drops them, as crr_paper's return traffic is
// by the 4-flow table) per second of the timed loop, maintenance included.
//
// --trace 0 reports the end-to-end metrics from untraced passes. --trace 1
// alternates untraced and traced passes: traced passes record spans around
// the calls into each module (from this file only; the library is not
// instrumented) and replay DpBackend::process_batch and Pipeline::evaluate on
// the pass's own bursts and miss keys to split datapath and ofproto time out
// of the vswitchd calls. Human-readable tables go to stdout first; the last
// line is one JSON object.
#include <malloc.h>
#include <time.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "packet/parser.h"
#include "util/stats.h"
#include "workloads.h"

namespace perfbench {
namespace {

using ovs::Packet;
using ovs::Switch;

uint64_t thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}

uint64_t now_ns() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Bytes the allocator has handed out and not yet had back (heap chunks plus
// mmapped ones). Unlike the RSS high-water mark, this does not hide the
// switch's growth inside heap pages that input generation touched and freed.
double heap_in_use_mb() {
  const struct mallinfo2 mi = mallinfo2();
  return static_cast<double>(mi.uordblks + mi.hblkhd) / (1024.0 * 1024.0);
}

// --- Output check -----------------------------------------------------------

// Order-independent digest of the (egress packet, port) pairs one burst
// produced. Every frame's fate is decided inside its own burst (hits in
// inject_batch, misses in the handle_upcalls that follows), so per-burst
// digests localise a mismatch to 32 frames.
struct BurstDigest {
  uint64_t sum = 0;
  uint64_t outputs = 0;
  bool operator==(const BurstDigest&) const = default;
};

uint64_t egress_hash(const ovs::FlowKey& k, uint32_t port) {
  // Cheap enough to run in the timed loop: independent multiplies, one mix.
  static constexpr uint64_t kMul[ovs::kFlowWords] = {
      0x9e3779b97f4a7c15, 0xbf58476d1ce4e5b9, 0x94d049bb133111eb,
      0xd6e8feb86659fd93, 0xa0761d6478bd642f, 0xe7037ed1a0b428db,
      0x8ebc6af09c88c6e3, 0x589965cc75374cc3, 0x1d8e4e27c47d124f,
      0xc2b2ae3d27d4eb4f, 0x165667b19e3779f9, 0x27d4eb2f165667c5,
      0xff51afd7ed558ccd, 0xc4ceb9fe1a85ec53, 0x2545f4914f6cdd1d};
  uint64_t h = (uint64_t{port} + 1) * 0x9fb21c651e98df25;
  for (size_t i = 0; i < ovs::kFlowWords; ++i) h += k.w[i] * kMul[i];
  h ^= h >> 31;
  h *= 0xd6e8feb86659fd93;
  h ^= h >> 32;
  return h;
}

// What Switch::execute_actions emits for `actions`, as egress hashes.
void expected_egress(const ovs::DpActions& actions, const Packet& pkt,
                     BurstDigest& d) {
  Packet out = pkt;
  for (const ovs::DpAction& a : actions.list) {
    if (const auto* o = std::get_if<ovs::OutputAction>(&a)) {
      d.sum += egress_hash(out.key, o->port);
      ++d.outputs;
    } else if (const auto* sf = std::get_if<ovs::SetFieldAction>(&a)) {
      out.key.set(sf->field, sf->value);
    } else if (const auto* t = std::get_if<ovs::TunnelAction>(&a)) {
      out.key.set_tun_id(t->tun_id);
      d.sum += egress_hash(out.key, t->port);
      ++d.outputs;
    }
  }
}

uint64_t burst_vt(const Workload& w, const Input& in, size_t b) {
  return in.burst_begin(b) * w.vt_ns_per_frame;
}

// Reference fates: Pipeline::evaluate on an identically built switch that
// never sees traffic. Exact for these workloads: no rule changes, and no
// workload's forwarding depends on MAC learning or ct_state.
std::vector<BurstDigest> reference_digests(const Workload& w,
                                           const Input& in) {
  std::unique_ptr<Switch> ref = build_switch(w);
  std::vector<BurstDigest> out(in.bursts());
  for (size_t b = 0; b < in.bursts(); ++b) {
    const uint64_t vt = burst_vt(w, in, b);
    for (size_t i = in.burst_begin(b); i < in.burst_end[b]; ++i) {
      const std::optional<Packet> p =
          ovs::parse_to_packet(in.frame(i), in.in_port[i]);
      if (!p) continue;  // counted as a failure on the driven side
      expected_egress(ref->pipeline().evaluate(p->key, vt).actions, *p,
                      out[b]);
    }
  }
  return out;
}

// --- Spans ------------------------------------------------------------------

enum Layer : uint8_t {
  kBurstSpan,       // bench: one closed-loop burst (the request)
  kParse,           // packet: parse_to_packet over the burst's frames
  kInjectBatch,     // vswitchd: Switch::inject_batch
  kHandleUpcalls,   // vswitchd: Switch::handle_upcalls
  kMaintenance,     // vswitchd: Switch::run_maintenance
  kNumLayers
};

constexpr const char* kLayerName[kNumLayers] = {
    "bench.burst", "packet.parse", "vswitchd.inject_batch",
    "vswitchd.handle_upcalls", "vswitchd.maintenance"};

struct Span {
  Layer layer;
  int32_t parent;  // index of the causing span, -1 for a root
  uint64_t start, end;
};

// In-memory span log of one traced pass; aggregated when the pass ends.
struct Tracer {
  std::vector<Span> spans;

  int32_t add(Layer l, int32_t parent, uint64_t s, uint64_t e) {
    spans.push_back({l, parent, s, e});
    return static_cast<int32_t>(spans.size() - 1);
  }
  // Self time per layer: span duration minus the part its children cover.
  std::array<double, kNumLayers> self_ns() const {
    std::vector<uint64_t> child(spans.size(), 0);
    for (const Span& s : spans)
      if (s.parent >= 0)
        child[static_cast<size_t>(s.parent)] += s.end - s.start;
    std::array<double, kNumLayers> out{};
    for (size_t i = 0; i < spans.size(); ++i)
      out[spans[i].layer] +=
          static_cast<double>(spans[i].end - spans[i].start - child[i]);
    return out;
  }
};

// --- One pass ---------------------------------------------------------------

// Counts that must repeat exactly for a seed: across passes of a run,
// between traced and untraced passes, and across runs.
struct Counts {
  uint64_t frames = 0, parse_failures = 0, outputs = 0;
  uint64_t flow_setups = 0, setup_dups = 0, upcalls_handled = 0,
           upcalls_dropped = 0;
  uint64_t maintenance_passes = 0, reval_examined = 0, reval_retranslated = 0,
           reval_deleted_idle = 0, reval_skipped_by_tags = 0,
           evicted_flow_limit = 0;
  uint64_t dp_packets = 0, emc_hits = 0, megaflow_hits = 0, misses = 0,
           emc_inserts = 0, tuples_searched = 0, dp_upcall_drops = 0;
  uint64_t flows = 0, masks = 0, ct_entries = 0, cls_subtables = 0,
           cls_max_probe_depth = 0;
  uint64_t egress_digest = 0;
  bool operator==(const Counts&) const = default;

  template <class F>
  void each(F&& f) const {
    f("frames", frames); f("parse_failures", parse_failures);
    f("outputs", outputs); f("flow_setups", flow_setups);
    f("setup_dups", setup_dups); f("upcalls_handled", upcalls_handled);
    f("upcalls_dropped", upcalls_dropped);
    f("maintenance_passes", maintenance_passes);
    f("reval_examined", reval_examined);
    f("reval_retranslated", reval_retranslated);
    f("reval_deleted_idle", reval_deleted_idle);
    f("reval_skipped_by_tags", reval_skipped_by_tags);
    f("evicted_flow_limit", evicted_flow_limit);
    f("dp_packets", dp_packets); f("emc_hits", emc_hits);
    f("megaflow_hits", megaflow_hits); f("misses", misses);
    f("emc_inserts", emc_inserts); f("tuples_searched", tuples_searched);
    f("dp_upcall_drops", dp_upcall_drops); f("flows", flows);
    f("masks", masks); f("ct_entries", ct_entries);
    f("cls_subtables", cls_subtables);
    f("cls_max_probe_depth", cls_max_probe_depth);
    f("egress_digest", egress_digest);
  }
  uint64_t fingerprint() const {
    uint64_t h = 0xcbf29ce484222325ULL;
    each([&](const char*, uint64_t v) { h = (h ^ v) * 0x100000001b3ULL; });
    return h;
  }
};

// Layer figures of one traced pass.
struct LayerStats {
  std::array<double, kNumLayers> self_ns{};
  double wall_ns = 0;
  // Modelled CostModel cycles the switch charged inside each call.
  double inject_model_cycles = 0, upcalls_model_cycles = 0,
         maint_model_cycles = 0;
  uint64_t queue_depth_max = 0;
  // Replays after the pass.
  double rx_ns = 0, rx_model_cycles = 0;
  uint64_t rx_pkts = 0;
  double xlate_ns = 0;
  uint64_t xlates = 0, xlate_lookups = 0;
};

struct PassResult {
  double setup_s = 0;
  double wall_s = 0;
  double cpu_s = 0;  // thread CPU time over the timed region
  double p50_us = 0, p99_us = 0;  // of this pass alone, for the pass table
  std::vector<uint32_t> burst_ns;  // per burst; untraced passes only
  double mem_mb = 0;  // peak heap growth while the switch ran
  Counts counts;
  std::vector<BurstDigest> digests;  // dropped once checked
  uint64_t failed_frames = 0, mismatched_bursts = 0;
  bool traced = false;
  LayerStats layers;
};

// Linear interpolation between closest ranks (q in [0, 1]).
double quantile(const std::vector<double>& v, double q) {
  ovs::Distribution d;
  for (double x : v) d.add(x);
  return d.percentile(q * 100.0);
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

// Each burst's service time over a run: its quantile q across the passes'
// latencies of that burst. Every pass replays the same bursts against the
// same switch states, so one burst's latencies differ only by what the host
// did meanwhile: an interrupt or stall that hits it in a few passes drops
// out.
std::vector<double> burst_service_ns(
    const std::vector<const std::vector<uint32_t>*>& passes, double q) {
  std::vector<double> out(passes.empty() ? 0 : passes[0]->size());
  std::vector<double> across(passes.size());
  for (size_t b = 0; b < out.size(); ++b) {
    for (size_t p = 0; p < passes.size(); ++p) across[p] = (*passes[p])[b];
    out[b] = quantile(across, q);
  }
  return out;
}

// The most miss keys a traced pass keeps for the xlate replay.
constexpr size_t kMaxMissKeys = 1u << 15;

// Replays DpBackend::process_batch on the pass's bursts against the
// switch's end state; misses go to a discarding sink.
void replay_datapath(Switch& sw, const Workload& w, const Input& in,
                     LayerStats& ls) {
  sw.backend().set_upcall_sink([](Packet&&) { return true; });
  const ovs::CostModel& m = sw.config().cost;
  std::vector<Packet> burst;
  std::vector<ovs::Datapath::RxResult> rx(kBurst);
  const uint64_t vt = in.frames() * w.vt_ns_per_frame;
  for (size_t b = 0; b < in.bursts(); ++b) {
    burst.clear();
    for (size_t i = in.burst_begin(b); i < in.burst_end[b]; ++i)
      if (auto p = ovs::parse_to_packet(in.frame(i), in.in_port[i]))
        burst.push_back(*p);
    ovs::Datapath::BatchSummary sum;
    const uint64_t t0 = now_ns();
    sw.backend().process_batch(burst, vt, rx.data(), &sum);
    ls.rx_ns += static_cast<double>(now_ns() - t0);
    ls.rx_pkts += burst.size();
    // The datapath's share of the burst cost model (the rest,
    // per_packet_batched, prices rx + execute outside the caches).
    ls.rx_model_cycles += m.batch_fixed + m.offload_probe * sum.offload_probes +
                          m.microflow_probe * sum.emc_probes +
                          m.per_tuple * sum.tuples_searched +
                          m.miss_kernel * sum.misses;
  }
}

void replay_xlate(Switch& sw, const Workload& w, const Input& in,
                  const std::vector<ovs::FlowKey>& keys, LayerStats& ls) {
  const uint64_t vt = in.frames() * w.vt_ns_per_frame;
  const uint64_t t0 = now_ns();
  for (const ovs::FlowKey& k : keys)
    ls.xlate_lookups += sw.pipeline().evaluate(k, vt).table_lookups;
  ls.xlate_ns = static_cast<double>(now_ns() - t0);
  ls.xlates = keys.size();
}

template <bool kTraced>
PassResult run_pass(const Workload& w, uint64_t seed, Input* keep_input) {
  PassResult r;
  r.traced = kTraced;

  // Set-up: pre-generate the frames, then build the switch and pipeline.
  const uint64_t s0 = now_ns();
  Input in = generate_input(w, seed);
  std::vector<uint32_t> burst_ns(in.bursts());
  std::vector<BurstDigest> digests(in.bursts());
  std::vector<Packet> burst;
  burst.reserve(kBurst);
  Tracer tracer;
  std::vector<ovs::FlowKey> miss_keys;
  if constexpr (kTraced) {
    tracer.spans.reserve(in.bursts() * 4 + 4096);
    miss_keys.reserve(kMaxMissKeys);
  }
  // The heap sample is instrumentation: its time is kept out of setup_s.
  const uint64_t hb0 = now_ns();
  const double heap_base = heap_in_use_mb();
  const uint64_t heap_sample_ns = now_ns() - hb0;
  std::unique_ptr<Switch> sw = build_switch(w);
  r.setup_s = static_cast<double>(now_ns() - s0 - heap_sample_ns) * 1e-9;

  Switch& s = *sw;
  BurstDigest* cur = nullptr;
  s.set_output_handler([&cur](uint32_t port, const Packet& p) {
    cur->sum += egress_hash(p.key, port);
    ++cur->outputs;
  });
  if constexpr (kTraced) {
    s.set_trace_hook([&miss_keys](const Packet& p, const ovs::DpActions&,
                                  ovs::Datapath::Path path) {
      if (path == ovs::Datapath::Path::kMiss && miss_keys.size() < kMaxMissKeys)
        miss_keys.push_back(p.key);
    });
  }

  LayerStats& ls = r.layers;
  uint64_t parse_failures = 0, retranslated = 0, maint_passes = 0;
  uint64_t vt = 0, next_maint = ovs::kSecond;
  double heap_peak = heap_base;
  uint64_t untimed_ns = 0;
  const uint64_t t_begin = now_ns();
  const uint64_t cpu_begin = thread_cpu_ns();
  for (size_t b = 0; b < in.bursts(); ++b) {
    cur = &digests[b];
    const size_t lo = in.burst_begin(b), hi = in.burst_end[b];
    const uint64_t b0 = now_ns();
    burst.clear();
    for (size_t i = lo; i < hi; ++i) {
      if (auto p = ovs::parse_to_packet(in.frame(i), in.in_port[i]))
        burst.push_back(*p);
      else
        ++parse_failures;
    }
    if constexpr (kTraced) {
      const uint64_t b1 = now_ns();
      const double k0 = s.cpu().kernel_cycles;
      s.inject_batch(burst, vt);
      const uint64_t b2 = now_ns();
      ls.inject_model_cycles += s.cpu().kernel_cycles - k0;
      ls.queue_depth_max =
          std::max<uint64_t>(ls.queue_depth_max, s.upcall_queue_depth());
      const double u0 = s.cpu().user_cycles;
      s.handle_upcalls(vt);
      const uint64_t b3 = now_ns();
      ls.upcalls_model_cycles += s.cpu().user_cycles - u0;
      burst_ns[b] = static_cast<uint32_t>(b3 - b0);
      const int32_t root = tracer.add(kBurstSpan, -1, b0, b3);
      tracer.add(kParse, root, b0, b1);
      tracer.add(kInjectBatch, root, b1, b2);
      tracer.add(kHandleUpcalls, root, b2, b3);
    } else {
      s.inject_batch(burst, vt);
      s.handle_upcalls(vt);
      burst_ns[b] = static_cast<uint32_t>(now_ns() - b0);
    }
    vt += (hi - lo) * w.vt_ns_per_frame;
    while (vt >= next_maint) {
      // The switch is largest just before maintenance evicts; the sample
      // itself is kept out of the timed region.
      const uint64_t h0 = now_ns();
      heap_peak = std::max(heap_peak, heap_in_use_mb());
      untimed_ns += now_ns() - h0;
      if constexpr (kTraced) {
        const double u0 = s.cpu().user_cycles;
        const uint64_t m0 = now_ns();
        s.run_maintenance(vt);
        tracer.add(kMaintenance, -1, m0, now_ns());
        ls.maint_model_cycles += s.cpu().user_cycles - u0;
      } else {
        s.run_maintenance(vt);
      }
      retranslated += s.last_reval_pass().retranslated;
      ++maint_passes;
      next_maint += ovs::kSecond;
    }
  }
  const uint64_t t_end = now_ns() - untimed_ns;
  r.cpu_s = static_cast<double>(thread_cpu_ns() - cpu_begin) * 1e-9;
  r.wall_s = static_cast<double>(t_end - t_begin) * 1e-9;
  r.mem_mb = std::max(heap_peak, heap_in_use_mb()) - heap_base;

  std::vector<double> lat(burst_ns.begin(), burst_ns.end());
  r.p50_us = quantile(lat, 0.50) * 1e-3;
  r.p99_us = quantile(lat, 0.99) * 1e-3;
  if constexpr (!kTraced) r.burst_ns = std::move(burst_ns);

  // Counts, read before any replay touches the switch.
  Counts& c = r.counts;
  const Switch::Counters& sc = s.counters();
  const ovs::Datapath::Stats ds = s.backend().stats();
  c.frames = in.frames();
  c.parse_failures = parse_failures;
  for (const BurstDigest& d : digests) {
    c.outputs += d.outputs;
    c.egress_digest += d.sum;
  }
  c.flow_setups = sc.flow_setups;
  c.setup_dups = sc.setup_dups;
  c.upcalls_handled = sc.upcalls_handled;
  c.upcalls_dropped = sc.upcalls_dropped;
  c.maintenance_passes = maint_passes;
  c.reval_examined = sc.reval_flows_examined;
  c.reval_retranslated = retranslated;
  c.reval_deleted_idle = sc.reval_deleted_idle;
  c.reval_skipped_by_tags = sc.reval_skipped_by_tags;
  c.evicted_flow_limit = sc.evicted_flow_limit;
  c.dp_packets = ds.packets;
  c.emc_hits = ds.microflow_hits;
  c.megaflow_hits = ds.megaflow_hits;
  c.misses = ds.misses;
  c.emc_inserts = ds.emc_inserts;
  c.tuples_searched = ds.tuples_searched;
  c.dp_upcall_drops = ds.upcall_drops;
  c.flows = s.backend().flow_count();
  c.masks = s.backend().mask_count();
  c.ct_entries = s.conntrack().size();
  c.cls_subtables = s.cls_subtables();
  c.cls_max_probe_depth = s.cls_max_probe_depth();

  r.digests = std::move(digests);

  if constexpr (kTraced) {
    ls.self_ns = tracer.self_ns();
    ls.wall_ns = static_cast<double>(t_end - t_begin);
    replay_xlate(s, w, in, miss_keys, ls);
    replay_datapath(s, w, in, ls);
  }
  if (keep_input != nullptr) *keep_input = std::move(in);
  return r;
}

// --- Reporting --------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

double safe_div(double a, double b) { return b != 0 ? a / b : 0.0; }

std::string json_number(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print_json(bool correct, uint64_t attempted, uint64_t failed,
                const std::vector<Metric>& ms) {
  std::string s = "{\"correct\": ";
  s += correct ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(attempted);
  s += ", \"failed\": " + std::to_string(failed);
  s += ", \"metrics\": {";
  for (size_t i = 0; i < ms.size(); ++i) {
    if (i) s += ", ";
    s += "\"" + ms[i].name + "\": {\"value\": " + json_number(ms[i].value) +
         ", \"unit\": \"" + ms[i].unit + "\"}";
  }
  s += "}}";
  std::printf("%s\n", s.c_str());
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string commit = "unknown";
};

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--commit <id>]\nworkloads:",
               msg);
  for (const Workload& w : all_workloads()) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + k).c_str());
    const char* v = argv[++i];
    char* end = nullptr;
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v, &end, 10);
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v, &end);
    } else if (k == "--trace") {
      a.trace = static_cast<int>(std::strtol(v, &end, 10));
    } else if (k == "--commit") {
      a.commit = v;
    } else {
      usage(("unknown flag " + k).c_str());
    }
    if (end != nullptr && *end != '\0') usage(("bad value for " + k).c_str());
  }
  if (a.workload.empty()) usage("--workload is required");
  if (!(a.seconds > 0)) usage("--seconds must be positive");
  if (a.trace != 0 && a.trace != 1) usage("--trace must be 0 or 1");
  return a;
}

void print_metadata(const Args& a, const Workload& w) {
#ifdef NDEBUG
  const bool ndebug = true;
#else
  const bool ndebug = false;
#endif
  std::printf("# perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              w.name, static_cast<unsigned long long>(a.seed), a.seconds,
              a.trace);
  std::printf("# nproc=%u build=%s compiler=\"%s\" commit=%s NDEBUG=%d "
              "frames/pass=%zu vt_ns/frame=%llu burst=%zu frame_bytes=%zu\n",
              std::thread::hardware_concurrency(), PERFBENCH_BUILD_TYPE,
              PERFBENCH_COMPILER, a.commit.c_str(), ndebug ? 1 : 0,
              w.frames_per_pass,
              static_cast<unsigned long long>(w.vt_ns_per_frame), kBurst,
              kFrameBytes);
  if (!ndebug) {
    const char* warn =
        "# WARNING: assertions are compiled in (NDEBUG unset); this times a "
        "different program than the optimized build\n";
    std::printf("%s", warn);
    std::fprintf(stderr, "%s", warn);
  }
}

void print_counts(const Counts& c) {
  std::printf("# counts:");
  c.each([](const char* n, uint64_t v) {
    std::printf(" %s=%llu", n, static_cast<unsigned long long>(v));
  });
  std::printf("\n# counts fingerprint: %016llx\n",
              static_cast<unsigned long long>(c.fingerprint()));
}

// Per-operation layer times: the median over traced passes of each
// pass's ratio. Model figures are the CostModel cycles the switch charged
// for the same work, in ns at cost.ghz.
struct LayerSummary {
  double parse_ns = 0;        // per frame
  double inject_ns = 0, inject_model_ns = 0;    // per packet
  double rx_ns = 0, rx_model_ns = 0;            // per packet (replay)
  double upcall_ns = 0, upcall_model_ns = 0;    // per upcall handled
  double xlate_ns = 0, xlate_lookups = 0;       // per xlate (replay)
  double maint_ns = 0, maint_model_ns = 0;      // per maintenance pass
  double queue_depth_max = 0;
};

LayerSummary summarize(const std::vector<PassResult>& passes, const Counts& c,
                       const ovs::CostModel& m) {
  auto med = [&](auto f) {
    std::vector<double> v;
    for (const PassResult& p : passes)
      if (p.traced) v.push_back(f(p.layers));
    return median(v);
  };
  const double ns_per_cycle = 1.0 / m.ghz;
  const double frames = static_cast<double>(c.frames);
  const double pkts = static_cast<double>(c.dp_packets);
  const double ups = static_cast<double>(c.upcalls_handled);
  const double maint = static_cast<double>(c.maintenance_passes);
  LayerSummary s;
  s.parse_ns = med([&](const LayerStats& l) {
    return safe_div(l.self_ns[kParse], frames);
  });
  s.inject_ns = med([&](const LayerStats& l) {
    return safe_div(l.self_ns[kInjectBatch], pkts);
  });
  s.inject_model_ns = med([&](const LayerStats& l) {
    return safe_div(l.inject_model_cycles, pkts) * ns_per_cycle;
  });
  s.rx_ns = med([](const LayerStats& l) {
    return safe_div(l.rx_ns, static_cast<double>(l.rx_pkts));
  });
  s.rx_model_ns = med([&](const LayerStats& l) {
    return safe_div(l.rx_model_cycles, static_cast<double>(l.rx_pkts)) *
           ns_per_cycle;
  });
  s.upcall_ns = med([&](const LayerStats& l) {
    return safe_div(l.self_ns[kHandleUpcalls], ups);
  });
  s.upcall_model_ns = med([&](const LayerStats& l) {
    return safe_div(l.upcalls_model_cycles, ups) * ns_per_cycle;
  });
  s.xlate_ns = med([](const LayerStats& l) {
    return safe_div(l.xlate_ns, static_cast<double>(l.xlates));
  });
  s.xlate_lookups = med([](const LayerStats& l) {
    return safe_div(static_cast<double>(l.xlate_lookups),
                    static_cast<double>(l.xlates));
  });
  s.maint_ns = med([&](const LayerStats& l) {
    return safe_div(l.self_ns[kMaintenance], maint);
  });
  s.maint_model_ns = med([&](const LayerStats& l) {
    return safe_div(l.maint_model_cycles, maint) * ns_per_cycle;
  });
  s.queue_depth_max = med([](const LayerStats& l) {
    return static_cast<double>(l.queue_depth_max);
  });
  return s;
}

std::vector<Metric> layer_metrics(const LayerSummary& s, const Counts& c,
                                  double overhead_pct, double coverage_pct,
                                  double fail_ratio) {
  const double pkts = static_cast<double>(c.dp_packets);
  const double maint = static_cast<double>(c.maintenance_passes);
  auto count = [](uint64_t v) { return static_cast<double>(v); };
  return {
      {"packet.parse.ns_per_frame", s.parse_ns, "ns"},
      {"datapath.rx.ns_per_pkt", s.rx_ns, "ns"},
      {"datapath.emc.hit_ratio", safe_div(count(c.emc_hits), pkts), "ratio"},
      {"datapath.emc.inserts_per_pkt", safe_div(count(c.emc_inserts), pkts),
       "1/pkt"},
      {"datapath.megaflow.hit_ratio", safe_div(count(c.megaflow_hits), pkts),
       "ratio"},
      {"datapath.megaflow.tuples_per_pkt",
       safe_div(count(c.tuples_searched), pkts), "1/pkt"},
      {"datapath.miss_ratio", safe_div(count(c.misses), pkts), "ratio"},
      {"datapath.flows", count(c.flows), "count"},
      {"datapath.masks", count(c.masks), "count"},
      {"vswitchd.inject_batch.ns_per_pkt", s.inject_ns, "ns"},
      // Action execution and accounting: inject_batch minus the datapath.
      {"vswitchd.actions.ns_per_pkt", s.inject_ns - s.rx_ns, "ns"},
      {"vswitchd.handle_upcalls.ns_per_upcall", s.upcall_ns, "ns"},
      {"vswitchd.upcalls.handled", count(c.upcalls_handled), "count"},
      {"vswitchd.upcalls.dropped", count(c.upcalls_dropped), "count"},
      {"vswitchd.upcall_queue.depth_max", s.queue_depth_max, "count"},
      {"vswitchd.flow_setups", count(c.flow_setups), "count"},
      {"vswitchd.setup_dups", count(c.setup_dups), "count"},
      {"vswitchd.maintenance.ms_per_pass", s.maint_ns * 1e-6, "ms"},
      {"vswitchd.reval.examined_per_pass",
       safe_div(count(c.reval_examined), maint), "count"},
      {"vswitchd.reval.retranslated_per_pass",
       safe_div(count(c.reval_retranslated), maint), "count"},
      {"vswitchd.reval.deleted_idle", count(c.reval_deleted_idle), "count"},
      {"vswitchd.reval.skipped_by_tags", count(c.reval_skipped_by_tags),
       "count"},
      {"ofproto.xlate.ns_per_xlate", s.xlate_ns, "ns"},
      {"ofproto.xlate.table_lookups_per_xlate", s.xlate_lookups, "count"},
      {"ofproto.conntrack.entries", count(c.ct_entries), "count"},
      {"classifier.subtables", count(c.cls_subtables), "count"},
      {"classifier.max_probe_depth", count(c.cls_max_probe_depth), "count"},
      {"bench.trace.overhead_pct", overhead_pct, "%"},
      {"bench.trace.coverage_pct", coverage_pct, "%"},
      {"bench.fail_ratio", fail_ratio, "ratio"},
  };
}

// Measured ns per operation beside the CostModel price of the same work,
// plus the residual. A report only: the constants are not changed here.
void print_calibration(const LayerSummary& s, const ovs::CostModel& m) {
  const double ns_per_cycle = 1.0 / m.ghz;
  struct Row {
    const char* layer;
    const char* per;
    double measured, model;
    const char* constants;
  };
  const Row rows[] = {
      {"packet.parse+vswitchd.actions", "pkt",
       s.parse_ns + s.inject_ns - s.rx_ns, m.per_packet_batched * ns_per_cycle,
       "per_packet_batched"},
      {"datapath.rx", "pkt", s.rx_ns, s.rx_model_ns,
       "batch_fixed/burst+microflow_probe*emc_probes+per_tuple*tuples+"
       "miss_kernel*misses"},
      {"vswitchd.inject_batch", "pkt", s.inject_ns, s.inject_model_ns,
       "datapath.rx terms+per_packet_batched"},
      {"vswitchd.handle_upcalls", "upcall", s.upcall_ns, s.upcall_model_ns,
       "upcall_syscall/batch+upcall_fixed+per_table_lookup*lookups"},
      {"ofproto.xlate", "xlate", s.xlate_ns,
       m.per_table_lookup * s.xlate_lookups * ns_per_cycle,
       "per_table_lookup*lookups"},
      {"vswitchd.maintenance", "pass", s.maint_ns, s.maint_model_ns,
       "reval_per_flow*examined+per_table_lookup*lookups"},
  };
  std::printf("# cost-model calibration (CostModel at %.2f GHz; report only)\n",
              m.ghz);
  std::printf("#   %-30s %-7s %14s %14s %14s  %s\n", "layer", "per",
              "measured_ns", "model_ns", "residual_ns", "constants");
  for (const Row& r : rows)
    std::printf("#   %-30s %-7s %14.1f %14.1f %14.1f  %s\n", r.layer, r.per,
                r.measured, r.model, r.measured - r.model, r.constants);
  std::printf("#   constants (ns): per_packet_batched=%.1f batch_fixed=%.1f "
              "microflow_probe=%.1f per_tuple=%.1f emc_insert=%.1f "
              "miss_kernel=%.1f upcall_fixed=%.1f upcall_syscall=%.1f "
              "per_table_lookup=%.1f reval_per_flow=%.1f\n",
              m.per_packet_batched * ns_per_cycle,
              m.batch_fixed * ns_per_cycle, m.microflow_probe * ns_per_cycle,
              m.per_tuple * ns_per_cycle, m.emc_insert * ns_per_cycle,
              m.miss_kernel * ns_per_cycle, m.upcall_fixed * ns_per_cycle,
              m.upcall_syscall * ns_per_cycle,
              m.per_table_lookup * ns_per_cycle,
              m.reval_per_flow * ns_per_cycle);
}

int run(const Args& a) {
  const std::optional<Workload> found = find_workload(a.workload);
  if (!found) usage(("unknown workload " + a.workload).c_str());
  const Workload& w = *found;
  print_metadata(a, w);

  // Pass 0 is an untraced warm-up: it is checked like every pass, and its
  // input yields the reference fates all passes are checked against
  // (outside the timed region and outside set-up), but it pays the page
  // faults of a fresh heap that later passes reuse, so no timing is taken
  // from it. Traced runs then alternate untraced and traced passes.
  std::vector<PassResult> passes;
  Input ref_input;
  const uint64_t t0 = now_ns();
  passes.push_back(run_pass<false>(w, a.seed, &ref_input));
  const std::vector<BurstDigest> reference = reference_digests(w, ref_input);
  auto check = [&](PassResult& p) {
    p.failed_frames = p.counts.parse_failures;
    for (size_t b = 0; b < ref_input.bursts(); ++b) {
      if (b < p.digests.size() && p.digests[b] == reference[b]) continue;
      ++p.mismatched_bursts;
      p.failed_frames += ref_input.burst_end[b] - ref_input.burst_begin(b);
    }
    if (p.digests.size() != reference.size()) ++p.mismatched_bursts;
    p.failed_frames = std::min<uint64_t>(p.failed_frames, p.counts.frames);
    p.digests = {};
  };
  check(passes[0]);
  auto elapsed = [&] { return static_cast<double>(now_ns() - t0) * 1e-9; };
  const size_t min_passes = a.trace == 1 ? 3 : 2;
  bool next_traced = false;
  while (elapsed() < a.seconds || passes.size() < min_passes) {
    passes.push_back(next_traced ? run_pass<true>(w, a.seed, nullptr)
                                 : run_pass<false>(w, a.seed, nullptr));
    check(passes.back());
    if (a.trace == 1) next_traced = !next_traced;
  }

  std::printf("# %4s %7s %9s %9s %9s %10s %10s %8s %6s\n", "pass", "traced",
              "setup_s", "wall_s", "cpu_s", "mpps", "p50_us", "p99_us",
              "failed");
  bool deterministic = true;
  uint64_t failed = 0, mismatched = 0;
  std::vector<double> setup, mpps, mem, traced_mpps;
  std::vector<const std::vector<uint32_t>*> burst_runs;
  for (size_t i = 0; i < passes.size(); ++i) {
    const PassResult& p = passes[i];
    const double frames = static_cast<double>(p.counts.frames);
    const double rate =
        (frames - static_cast<double>(p.failed_frames)) / p.wall_s * 1e-6;
    std::printf("# %4zu %7d %9.4f %9.4f %9.4f %10.4f %10.3f %8.3f %6llu\n",
                i, p.traced ? 1 : 0, p.setup_s, p.wall_s, p.cpu_s, rate,
                p.p50_us, p.p99_us,
                static_cast<unsigned long long>(p.failed_frames));
    deterministic = deterministic && p.counts == passes[0].counts;
    failed += p.failed_frames;
    mismatched += p.mismatched_bursts;
    if (i == 0) continue;  // warm-up
    setup.push_back(p.setup_s);
    if (p.traced) {
      traced_mpps.push_back(rate);
    } else {
      mpps.push_back(rate);
      burst_runs.push_back(&p.burst_ns);
      mem.push_back(p.mem_mb);
    }
  }
  const Counts& c = passes[0].counts;
  print_counts(c);
  uint64_t attempted = 0;
  for (const PassResult& p : passes) attempted += p.counts.frames;
  std::printf("# output check: %s (%llu of %zu bursts mismatched the "
              "reference; %llu of %llu frames failed)\n",
              mismatched == 0 && failed == 0 ? "ok" : "FAILED",
              static_cast<unsigned long long>(mismatched),
              passes.size() * ref_input.bursts(),
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted));
  std::printf("# determinism: %s across %zu passes%s\n",
              deterministic ? "ok" : "FAILED (counts differ between passes)",
              passes.size(), a.trace == 1 ? " (traced and untraced)" : "");
  if (!deterministic) {
    for (const PassResult& p : passes)
      if (!(p.counts == c)) print_counts(p.counts);
  }
  bool correct = failed == 0 && deterministic && c.upcalls_dropped == 0;
  const double fail_ratio = safe_div(static_cast<double>(failed),
                                     static_cast<double>(attempted));

  std::vector<Metric> metrics;
  if (a.trace == 0) {
    // Shared hosts run this loop in spells of speeds up to ~2x apart, and
    // a run's median pass lands in whichever spell dominated it. The slow
    // quartile pass (rate met or beaten by 3 passes in 4) repeats better
    // from run to run, and unlike the slowest passes it is not set by the
    // odd pass a host stall hit. The latency percentiles are taken over
    // bursts, each burst timed by its slow quartile across the passes: one
    // pass's p99 falls among the few hundred bursts that host interrupts
    // happened to hit, and it spread too far from run to run.
    constexpr double kSlowPass = 0.75;
    const std::vector<double> service = burst_service_ns(burst_runs, kSlowPass);
    metrics = {
        {"pkt_rate_mpps", quantile(mpps, 1.0 - kSlowPass), "Mpps"},
        {"burst_latency_p50_us", quantile(service, 0.50) * 1e-3, "us"},
        {"burst_latency_p99_us", quantile(service, 0.99) * 1e-3, "us"},
        {"setup_s", median(setup), "s"},
        {"switch_mem_mb", median(mem), "MB"},
    };
    std::printf("# fail_ratio=%.17g (%zu timed passes after the warm-up, "
                "%zu bursts each)\n",
                fail_ratio, mpps.size(), ref_input.bursts());
  } else {
    std::vector<double> coverage;
    for (const PassResult& p : passes) {
      if (!p.traced) continue;
      const auto& sn = p.layers.self_ns;
      coverage.push_back(100.0 *
                         (sn[kParse] + sn[kInjectBatch] + sn[kHandleUpcalls] +
                          sn[kMaintenance]) /
                         p.layers.wall_ns);
    }
    const double cov = median(coverage);
    const double cov_min = *std::min_element(coverage.begin(), coverage.end());
    const double cov_max = *std::max_element(coverage.begin(), coverage.end());
    // Tracing overhead from adjacent untraced/traced pass pairs, so a slow
    // spell of the host shifts both sides of a pair alike.
    std::vector<double> overhead;
    for (size_t i = 1; i + 1 < passes.size(); i += 2)
      overhead.push_back(
          (passes[i + 1].wall_s / passes[i].wall_s - 1.0) * 100.0);
    const double overhead_pct = median(overhead);
    const ovs::CostModel cost = ovs::SwitchConfig{}.cost;
    const LayerSummary summary = summarize(passes, c, cost);
    metrics = layer_metrics(summary, c, overhead_pct, cov, fail_ratio);
    std::printf("# per-layer (traced passes: %zu, untraced: %zu)\n",
                traced_mpps.size(), mpps.size());
    for (const Metric& m : metrics)
      std::printf("#   %-40s %16.4f %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    std::printf("# span self-time, share of traced wall (median pass):");
    for (size_t l = 0; l < kNumLayers; ++l) {
      std::vector<double> share;
      for (const PassResult& p : passes)
        if (p.traced)
          share.push_back(100.0 * p.layers.self_ns[l] / p.layers.wall_ns);
      std::printf(" %s=%.2f%%", kLayerName[l], median(share));
    }
    std::printf("\n");
    const bool cov_ok = cov_min >= 90.0 && cov_max <= 110.0;
    std::printf("# trace: overhead_pct=%.2f (median of %zu adjacent pass "
                "pairs; untraced %.4f vs traced %.4f Mpps) coverage_pct=%.2f "
                "[min %.2f, max %.2f] %s\n",
                overhead_pct, overhead.size(), median(mpps),
                median(traced_mpps), cov, cov_min, cov_max,
                cov_ok ? "ok" : "FAILED (layer self-times must sum to the "
                                "traced wall time within 10%)");
    correct = correct && cov_ok;
    print_calibration(summary, cost);
  }
  print_json(correct, attempted, failed, metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  return perfbench::run(perfbench::parse_args(argc, argv));
}
