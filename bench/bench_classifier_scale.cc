// Classifier engine shoot-out at production scale: 10^5..10^6 rules spread
// over hundreds-to-thousands of masks structured as nested-prefix families
// (workload/table_gen.h), driven by Zipf-skewed traffic plus a rule-churn
// phase. Every engine behind the ClassifierBackend seam runs the identical
// table and packet sequence; the bench gates BY EXIT CODE on
//
//   1. zero result divergence: the (winner priority, wildcards) digest over
//      the whole packet stream is identical for every engine, before AND
//      after churn, and each engine's lookup_batch digest equals its scalar
//      digest;
//   2. the chained-tuple engine beating staged TSS by >= 1.5x in MODEL
//      cycles per lookup at >= 512 masks (CostModel cls_* costs priced from
//      each engine's own stats delta — deterministic, host-independent);
//
// wall-clock rates are reported (and written to BENCH_classifier_scale.json)
// but never gate: the model mode is authoritative, real-mode divergence
// from it only warns.
//
// --quick=1 shrinks the grid for CI smoke (two cells, 60k rules).
#include <chrono>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "bench_common.h"
#include "classifier/classifier.h"
#include "sim/cost_model.h"
#include "workload/table_gen.h"

using namespace ovs;
using namespace ovs::benchutil;

namespace {

constexpr ClassifierEngine kEngines[] = {ClassifierEngine::kStagedTss,
                                         ClassifierEngine::kChainedTuple};

uint64_t mix64(uint64_t h, uint64_t v) {
  h ^= v;
  h *= 1099511628211ull;
  return h;
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Prices one engine's stats delta with the CostModel cls_* costs.
double model_cycles(const ClassifierStats& st, const CostModel& m) {
  return m.cls_lookup_fixed * static_cast<double>(st.lookups) +
         m.cls_tuple_probe *
             static_cast<double>(st.tuples_searched - st.stage_terminations) +
         m.cls_stage_term * static_cast<double>(st.stage_terminations) +
         m.cls_tuple_skip * static_cast<double>(st.tuples_skipped) +
         m.cls_guide_probe * static_cast<double>(st.guide_probes);
}

// Two digests per pass. `result` covers winner priorities only — the
// cross-engine equivalence gate, since engines legitimately generate
// DIFFERENT (each individually sound) wildcard masks. `full` additionally
// folds in the wildcards — the within-engine batch-vs-scalar gate, where
// byte-identical megaflows are required.
struct Digests {
  uint64_t result = 0xcbf29ce484222325ull;
  uint64_t full = 0xcbf29ce484222325ull;

  void fold(const Rule* r, const FlowWildcards& wc) {
    result = mix64(
        result, r != nullptr ? static_cast<uint64_t>(r->priority()) : 0);
    full = mix64(full, result);
    for (size_t w = 0; w < kFlowWords; ++w) full = mix64(full, wc.w[w]);
  }
};

struct EngineRun {
  Digests scalar;          // Zipf stream through lookup()
  Digests batch;           // same stream through lookup_batch()
  Digests churned;         // scalar digest after the churn phase
  double model_cyc_per_lookup = 0;
  double wall_klookups_s = 0;
  double wall_batch_klookups_s = 0;
  double churn_updates_s = 0;
  size_t masks_built = 0;
  size_t subtables = 0;     // per-mask hash tables maintained
  size_t probe_depth = 0;   // structural per-lookup probe bound
};

Digests digest_scalar(const Classifier& cls,
                      const std::vector<FlowKey>& pkts) {
  Digests d;
  for (const FlowKey& k : pkts) {
    FlowWildcards wc;
    d.fold(cls.lookup(k, &wc), wc);
  }
  return d;
}

Digests digest_batch(const Classifier& cls,
                     const std::vector<FlowKey>& pkts) {
  constexpr size_t kBlock = 128;
  Digests d;
  std::vector<const Rule*> out(kBlock);
  std::vector<FlowWildcards> wcs(kBlock);
  for (size_t i = 0; i < pkts.size(); i += kBlock) {
    const size_t n = std::min(kBlock, pkts.size() - i);
    for (size_t j = 0; j < n; ++j) wcs[j] = FlowWildcards{};
    cls.lookup_batch(&pkts[i], n, out.data(), wcs.data());
    for (size_t j = 0; j < n; ++j) d.fold(out[j], wcs[j]);
  }
  return d;
}

EngineRun run_engine(ClassifierEngine engine, size_t n_rules, size_t n_masks,
                     uint64_t cell_seed, const std::vector<FlowKey>& pkts,
                     size_t churn_ops, const CostModel& cost) {
  ClassifierConfig cfg;
  cfg.engine = engine;
  Classifier cls(cfg);
  Rng rng(cell_seed);  // same seed per engine -> identical rule set
  std::vector<std::unique_ptr<OwnedRule>> rules =
      build_scale_classifier(cls, n_rules, n_masks, rng);

  EngineRun out;
  out.masks_built = cls.tuple_count();
  out.subtables = cls.n_subtables();
  out.probe_depth = cls.max_probe_depth();

  // Scalar pass: one timed loop yields the digest, the wall rate, and (via
  // the stats delta) the model cycle count.
  cls.reset_stats();
  double t0 = now_s();
  out.scalar = digest_scalar(cls, pkts);
  double t1 = now_s();
  const ClassifierStats st = cls.stats();
  out.model_cyc_per_lookup =
      model_cycles(st, cost) / static_cast<double>(pkts.size());
  out.wall_klookups_s =
      static_cast<double>(pkts.size()) / (t1 - t0) / 1e3;

  // Batch pass (staged exercises the scalar fallback, chained its SoA
  // pipeline).
  t0 = now_s();
  out.batch = digest_batch(cls, pkts);
  t1 = now_s();
  out.wall_batch_klookups_s =
      static_cast<double>(pkts.size()) / (t1 - t0) / 1e3;

  // Churn phase: deterministic remove/re-insert ops. The decision sequence
  // depends only on sizes, which evolve identically across engines, so the
  // same seed replays the same ops everywhere.
  Rng crng(cell_seed ^ 0xC0FFEEull);
  std::vector<Rule*> live;
  live.reserve(rules.size());
  for (const auto& r : rules) live.push_back(r.get());
  std::vector<Rule*> parked;
  t0 = now_s();
  for (size_t u = 0; u < churn_ops; ++u) {
    if (!parked.empty() && crng.chance(0.5)) {
      cls.insert(parked.back());
      live.push_back(parked.back());
      parked.pop_back();
    } else if (!live.empty()) {
      const size_t idx = crng.uniform(live.size());
      cls.remove(live[idx]);
      parked.push_back(live[idx]);
      live[idx] = live.back();
      live.pop_back();
    }
  }
  t1 = now_s();
  out.churn_updates_s = static_cast<double>(churn_ops) / (t1 - t0);
  out.churned = digest_scalar(cls, pkts);
  return out;
}

int bench_main(int argc, char** argv) {
  const Flags flags(argc, argv);
  const bool quick = flags.boolean("quick", false);
  const size_t n_rules = flags.u64("rules", quick ? 60000 : 200000);
  const size_t n_pkts = flags.u64("packets", quick ? 20000 : 50000);
  const size_t churn_ops = flags.u64("churn_ops", quick ? 3000 : 10000);
  const bool big = flags.boolean("big", !quick);
  const double miss_frac = flags.f64("miss_fraction", 0.1);
  const CostModel cost;

  struct Cell {
    size_t masks;
    size_t rules;
  };
  std::vector<Cell> cells;
  if (quick) {
    cells = {{128, n_rules}, {512, n_rules}};
  } else {
    cells = {{64, n_rules}, {256, n_rules}, {512, n_rules}, {1024, n_rules}};
    if (big) cells.push_back({1024, 1000000});
  }

  BenchReport report("classifier_scale");
  int rc = 0;
  std::printf("%-7s %-9s %-8s %8s %9s %14s %14s %14s %12s\n", "masks",
              "rules", "engine", "subtbl", "maxprobe", "model cyc/lkp",
              "klookups/s", "batch klkp/s", "churn/s");
  print_rule();

  for (const Cell& cell : cells) {
    const uint64_t cell_seed = cell.masks * 1000003ull + cell.rules;
    // The packet stream comes from a throwaway build of the same table so
    // it is identical for every engine.
    std::vector<FlowKey> pkts;
    {
      ClassifierConfig cfg;
      Classifier scratch(cfg);
      Rng rng(cell_seed);
      std::vector<std::unique_ptr<OwnedRule>> rules =
          build_scale_classifier(scratch, cell.rules, cell.masks, rng);
      Rng prng(cell_seed * 31 + 7);
      pkts.reserve(n_pkts);
      for (size_t i = 0; i < n_pkts; ++i)
        pkts.push_back(zipf_scale_packet(rules, prng, miss_frac));
    }

    std::map<ClassifierEngine, EngineRun> runs;
    for (ClassifierEngine e : kEngines) {
      runs[e] = run_engine(e, cell.rules, cell.masks, cell_seed, pkts,
                           churn_ops, cost);
      const EngineRun& r = runs[e];
      const std::map<std::string, std::string> params = {
          {"masks", std::to_string(cell.masks)},
          {"rules", std::to_string(cell.rules)},
          {"engine", classifier_engine_name(e)}};
      report.add("model_cycles_per_lookup", r.model_cyc_per_lookup, params,
                 n_pkts);
      report.add("wall_klookups_per_s", r.wall_klookups_s, params, n_pkts);
      report.add("wall_batch_klookups_per_s", r.wall_batch_klookups_s,
                 params, n_pkts);
      report.add("churn_updates_per_s", r.churn_updates_s, params,
                 churn_ops);
      report.add("subtables", static_cast<double>(r.subtables), params, 1);
      report.add("max_probe_depth", static_cast<double>(r.probe_depth),
                 params, 1);
      std::printf("%-7zu %-9zu %-8s %8zu %9zu %14.0f %14.1f %14.1f %12.0f\n",
                  cell.masks, cell.rules, classifier_engine_name(e),
                  r.subtables, r.probe_depth, r.model_cyc_per_lookup,
                  r.wall_klookups_s, r.wall_batch_klookups_s,
                  r.churn_updates_s);
    }

    // Gate 1: zero result divergence across engines, pre- and post-churn,
    // and each batch path against its own scalar path.
    const EngineRun& ref = runs[ClassifierEngine::kStagedTss];
    for (ClassifierEngine e : kEngines) {
      const EngineRun& r = runs[e];
      if (r.scalar.result != ref.scalar.result ||
          r.churned.result != ref.churned.result) {
        std::printf("FAIL: %s winners diverge from staged at %zu masks "
                    "(digest %016llx/%016llx vs %016llx/%016llx)\n",
                    classifier_engine_name(e), cell.masks,
                    static_cast<unsigned long long>(r.scalar.result),
                    static_cast<unsigned long long>(r.churned.result),
                    static_cast<unsigned long long>(ref.scalar.result),
                    static_cast<unsigned long long>(ref.churned.result));
        rc = 1;
      }
      // Within an engine the batch path must be byte-identical to its
      // scalar path, wildcards included.
      if (r.batch.full != r.scalar.full) {
        std::printf("FAIL: %s lookup_batch diverges from its scalar path "
                    "at %zu masks\n",
                    classifier_engine_name(e), cell.masks);
        rc = 1;
      }
    }

    // Gate 2 (model mode, authoritative): the chained engine must beat
    // staged TSS by >= 1.5x in model cycles once masks reach 512.
    const double ratio =
        ref.model_cyc_per_lookup /
        runs[ClassifierEngine::kChainedTuple].model_cyc_per_lookup;
    report.add("chained_vs_staged_model_speedup", ratio,
               {{"masks", std::to_string(cell.masks)},
                {"rules", std::to_string(cell.rules)}},
               n_pkts);
    std::printf("chained vs staged (model): %.2fx at %zu masks\n", ratio,
                cell.masks);
    if (cell.masks >= 512) {
      constexpr double kMinSpeedup = 1.5;
      if (ratio < kMinSpeedup) {
        std::printf("FAIL: chained/staged model speedup %.2fx < %.2fx at "
                    "%zu masks\n",
                    ratio, kMinSpeedup, cell.masks);
        rc = 1;
      } else {
        std::printf("PASS: chained/staged model speedup %.2fx >= %.2fx at "
                    "%zu masks\n",
                    ratio, kMinSpeedup, cell.masks);
      }
      // Real mode only warns: wall clocks on shared CI hosts are noise.
      const double wall_ratio =
          runs[ClassifierEngine::kChainedTuple].wall_klookups_s /
          ref.wall_klookups_s;
      if (wall_ratio < 1.0)
        std::printf("WARN: wall-clock chained/staged %.2fx disagrees with "
                    "the model at %zu masks (model is authoritative)\n",
                    wall_ratio, cell.masks);
    }
    print_rule();
  }

  report.write();
  if (rc == 0) std::printf("PASS: all engine digests identical, gates met\n");
  return rc;
}

}  // namespace

int main(int argc, char** argv) { return bench_main(argc, argv); }
