// Real (wall-clock) microbenchmarks of the classifier and caches. The
// headline reference point is §7.2: "with a randomly generated table of
// half a million flow entries, the implementation is able to do roughly
// 6.8M hash lookups/s, on a single core — which translates to 680,000
// classifications per second with 10 tuples".
//
// The tuple_space_lookup rows with flows=500000 tuples=10 report exactly
// that experiment: divide classifications/s by 10 tuples for the
// per-hash-lookup rate.
//
// Results land in BENCH_raw_lookup.json via BenchReport (schema shared
// with every other bench in this directory):
//   --iters_mult=N   scales every iteration count (default 1)
#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "classifier/classifier.h"
#include "datapath/datapath.h"
#include "util/miniflow.h"
#include "util/prefix_trie.h"
#include "workload/table_gen.h"

using namespace ovs;
using namespace ovs::benchutil;

namespace {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Keeps `v` alive without letting the optimizer see through it.
template <typename T>
inline void keep(const T& v) {
  asm volatile("" : : "g"(&v) : "memory");
}

// Runs `body(i)` `iters` times and returns the measured ops/s.
template <typename F>
double measure(size_t iters, F&& body) {
  const double t0 = now_s();
  for (size_t i = 0; i < iters; ++i) body(i);
  const double t1 = now_s();
  return static_cast<double>(iters) / (t1 - t0);
}

struct LookupFixture {
  Classifier cls;
  std::vector<std::unique_ptr<OwnedRule>> rules;
  std::vector<FlowKey> packets;

  LookupFixture(size_t n_flows, size_t n_tuples, ClassifierConfig cfg)
      : cls(cfg) {
    Rng rng(99);
    rules = build_random_classifier(cls, n_flows, n_tuples, rng);
    for (int i = 0; i < 4096; ++i)
      packets.push_back(random_classifier_packet(rng));
  }
};

void report_row(BenchReport& report, const std::string& metric, double value,
                const std::map<std::string, std::string>& params,
                uint64_t iters) {
  report.add(metric, value, params, iters);
  std::string ptxt;
  for (const auto& [k, v] : params) ptxt += " " + k + "=" + v;
  std::printf("%-34s %14.0f /s%s\n", metric.c_str(), value, ptxt.c_str());
}

int bench_main(int argc, char** argv) {
  const Flags flags(argc, argv);
  const size_t mult = std::max<uint64_t>(1, flags.u64("iters_mult", 1));
  BenchReport report("raw_lookup");

  // --- §7.2 tuple-space lookup scaling (flat TSS, no optimizations) ----------
  for (auto [n_flows, n_tuples] :
       {std::pair<size_t, size_t>{10000, 10},
        {100000, 10},
        {500000, 10},  // the paper's §7.2 data point
        {500000, 30}}) {
    LookupFixture fx(n_flows, n_tuples, ClassifierConfig::all_disabled());
    const size_t iters = 50000 * mult;
    const double rate = measure(iters, [&](size_t i) {
      keep(fx.cls.lookup(fx.packets[i & 4095], nullptr));
    });
    report_row(report, "tuple_space_classifications", rate,
               {{"flows", std::to_string(n_flows)},
                {"tuples", std::to_string(n_tuples)}},
               iters);
    report.add("tuple_space_hash_lookups",
               rate * static_cast<double>(n_tuples),
               {{"flows", std::to_string(n_flows)},
                {"tuples", std::to_string(n_tuples)}},
               iters);
  }

  // --- §5.3 flat vs staged on the same table ---------------------------------
  for (bool staged : {false, true}) {
    ClassifierConfig cfg = ClassifierConfig::all_disabled();
    cfg.staged_lookup = staged;
    LookupFixture fx(100000, 12, cfg);
    const size_t iters = 50000 * mult;
    const double rate = measure(iters, [&](size_t i) {
      keep(fx.cls.lookup(fx.packets[i & 4095], nullptr));
    });
    report_row(report, "flat_vs_staged_classifications", rate,
               {{"staged", staged ? "1" : "0"}}, iters);
  }

  // --- Caching-aware lookup (wildcard accumulation on) -----------------------
  {
    LookupFixture fx(50000, 12, ClassifierConfig{});
    const size_t iters = 100000 * mult;
    const double rate = measure(iters, [&](size_t i) {
      FlowWildcards wc;
      keep(fx.cls.lookup(fx.packets[i & 4095], &wc));
    });
    report_row(report, "lookup_with_wildcards", rate, {}, iters);
  }

  // --- §3.2 update cost: insert+remove round trip ----------------------------
  {
    Classifier cls;
    Rng rng(7);
    std::vector<std::unique_ptr<OwnedRule>> warm =
        build_random_classifier(cls, 100000, 10, rng);
    Match m = MatchBuilder().tcp().nw_dst(Ipv4(1, 2, 3, 4)).tp_dst(80);
    OwnedRule rule(m, 555);
    const size_t iters = 200000 * mult;
    const double rate = measure(iters, [&](size_t) {
      cls.insert(&rule);
      cls.remove(&rule);
    });
    report_row(report, "insert_remove_roundtrips", rate, {}, iters);
  }

  // --- Datapath cache hits ---------------------------------------------------
  {
    Datapath dp;
    dp.install(MatchBuilder().ip(), DpActions().output(1), 0);
    Packet p;
    p.key.set_eth_type(ethertype::kIpv4);
    p.key.set_nw_proto(ipproto::kTcp);
    p.key.set_nw_dst(Ipv4(1, 1, 1, 1));
    p.key.set_tp_dst(80);
    dp.receive(p, 0);  // warm: next receive is an EMC hit
    const size_t iters = 500000 * mult;
    const double rate =
        measure(iters, [&](size_t i) { keep(dp.receive(p, i + 1)); });
    report_row(report, "microflow_cache_hits", rate, {}, iters);
  }
  {
    DatapathConfig cfg;
    cfg.microflow_enabled = false;
    Datapath dp(cfg);
    for (uint32_t i = 0; i < 8; ++i)
      dp.install(MatchBuilder().ip().nw_dst_prefix(
                     Ipv4(static_cast<uint8_t>(20 + i), 0, 0, 0), 8 + i),
                 DpActions().output(1), 0);
    Packet p;
    p.key.set_eth_type(ethertype::kIpv4);
    p.key.set_nw_proto(ipproto::kTcp);
    p.key.set_nw_dst(Ipv4(24, 0, 0, 1));
    p.key.set_tp_dst(80);
    const size_t iters = 500000 * mult;
    const double rate =
        measure(iters, [&](size_t i) { keep(dp.receive(p, i + 1)); });
    report_row(report, "megaflow_cache_hits", rate, {}, iters);
  }

  // --- Prefix trie -----------------------------------------------------------
  {
    PrefixTrie trie;
    Rng rng(3);
    for (int i = 0; i < 10000; ++i) {
      unsigned len = static_cast<unsigned>(rng.range(8, 32));
      uint32_t v = static_cast<uint32_t>(rng.next()) & ipv4_prefix_mask(len);
      trie.insert(PrefixBits::from_u32(v, len));
    }
    std::vector<PrefixBits> queries;
    for (int i = 0; i < 1024; ++i)
      queries.push_back(
          PrefixBits::from_u32(static_cast<uint32_t>(rng.next()), 32));
    const size_t iters = 500000 * mult;
    const double rate = measure(
        iters, [&](size_t i) { keep(trie.lookup(queries[i & 1023])); });
    report_row(report, "trie_lookups", rate, {}, iters);
  }

  // --- Full-key hash ---------------------------------------------------------
  {
    Rng rng(5);
    FlowKey k;
    for (auto& w : k.w) w = rng.next();
    const size_t iters = 2000000 * mult;
    const double rate = measure(iters, [&](size_t) { keep(k.hash()); });
    report_row(report, "full_key_hashes", rate, {}, iters);
  }

  // --- Subtable probe hash (a 4-active-word mask, like an L3/L4 megaflow) ----
  {
    Rng rng(6);
    FlowKey k;
    for (auto& w : k.w) w = rng.next();
    FlowMask mask;
    mask.set_exact(FieldId::kInPort);
    mask.set_exact(FieldId::kEthType);
    mask.set_prefix(FieldId::kNwDst, 24);
    mask.set_exact(FieldId::kTpDst);
    const MiniflowSchema schema(mask);
    const size_t iters = 2000000 * mult;
    const double rate =
        measure(iters, [&](size_t) { keep(schema.full_hash(k)); });
    report_row(report, "miniflow_full_hashes", rate,
               {{"active_words", "4"}}, iters);
  }

  // --- Full NVP-style translation (userspace miss cost) ----------------------
  {
    Switch sw;
    NvpConfig cfg;
    cfg.stateful_acl_tenants = false;
    NvpTopology topo = install_nvp_pipeline(sw, cfg);
    auto t1 = topo.tenant_vms(1);
    Packet p = nvp_packet(*t1[0], *t1[1], 50000, 80);
    const size_t iters = 50000 * mult;
    const double rate = measure(iters, [&](size_t) {
      keep(sw.pipeline().translate(p.key, 0, /*side_effects=*/false));
    });
    report_row(report, "pipeline_translations", rate, {}, iters);
  }

  report.write();
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return bench_main(argc, argv); }
