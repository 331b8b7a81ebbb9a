// The sharded engine's determinism contract (DESIGN.md §11): every
// observable output — harvested tables, aggregates, and the full RunStats
// line (messages, bits, per-edge/node maxima, fault counters) — is
// byte-identical at every EngineConfig::threads value, on fault-free and
// faulty runs alike, with and without the reliable layer and a trace.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include <filesystem>

#include "congest/engine.h"
#include "congest/faults.h"
#include "congest/reliable.h"
#include "core/durable.h"
#include "core/pebble_apsp.h"
#include "core/repair.h"
#include "core/ssp.h"
#include "graph/delta.h"
#include "graph/generators.h"
#include "testing/suite.h"

namespace dapsp::congest {
namespace {

const std::uint32_t kThreadCounts[] = {1, 2, 8};

// A BFS flood from node 0 that keeps correcting itself: re-floods whenever a
// better distance arrives, so faulty transports produce long, fault-shaped
// traces — a good determinism probe.
class Flood final : public Process {
 public:
  explicit Flood(NodeId id) : dist_(id == 0 ? 0 : kInfDist) {}

  void on_round(RoundCtx& ctx) override {
    bool improved = dist_ == 0 && ctx.round() == 0;
    for (const Received& r : ctx.inbox()) {
      if (r.msg.f[0] + 1 < dist_) {
        dist_ = r.msg.f[0] + 1;
        improved = true;
      }
    }
    if (improved) ctx.send_all(Message::make(1, dist_));
    ran_ = true;  // quiescent once no corrections are in flight
  }
  bool done() const override { return ran_; }

  std::uint32_t dist() const { return dist_; }

 private:
  std::uint32_t dist_;
  bool ran_ = false;
};

struct FloodRun {
  std::string stats;
  std::string status;
  std::vector<std::uint32_t> dist;
};

FloodRun run_flood(const Graph& g, EngineConfig cfg, std::uint32_t threads) {
  cfg.threads = threads;
  cfg.max_rounds = 200000;
  Engine e(g, cfg);
  e.init([](NodeId v) { return std::make_unique<Flood>(v); });
  const Outcome out = e.run_bounded();
  FloodRun run;
  run.stats = out.stats.debug_string();
  run.status = std::string(to_string(out.status)) + " " + out.message;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    run.dist.push_back(
        dynamic_cast<const Flood&>(e.process(v).underlying()).dist());
  }
  return run;
}

// --- Fault-free algorithm runs over the whole small suite ---------------

TEST(Determinism, PebbleApspAcrossThreadCounts) {
  for (const auto& [name, g] : testing::small_suite()) {
    core::ApspOptions opt;
    opt.engine.threads = 1;
    const core::ApspResult ref = core::run_pebble_apsp(g, opt);
    for (const std::uint32_t t : {2u, 8u}) {
      opt.engine.threads = t;
      const core::ApspResult r = core::run_pebble_apsp(g, opt);
      ASSERT_EQ(r.stats.debug_string(), ref.stats.debug_string())
          << name << " threads=" << t;
      ASSERT_EQ(r.dist, ref.dist) << name << " threads=" << t;
      ASSERT_EQ(r.ecc, ref.ecc) << name << " threads=" << t;
      ASSERT_EQ(r.girth, ref.girth) << name << " threads=" << t;
      ASSERT_EQ(r.next_hop, ref.next_hop) << name << " threads=" << t;
    }
  }
}

TEST(Determinism, SspAcrossThreadCounts) {
  for (const auto& [name, g] : testing::small_suite()) {
    // Every third node a source (at least one).
    std::vector<NodeId> sources;
    for (NodeId v = 0; v < g.num_nodes(); v += 3) sources.push_back(v);
    core::SspOptions opt;
    opt.engine.threads = 1;
    const core::SspResult ref = core::run_ssp(g, sources, opt);
    for (const std::uint32_t t : {2u, 8u}) {
      opt.engine.threads = t;
      const core::SspResult r = core::run_ssp(g, sources, opt);
      ASSERT_EQ(r.stats.debug_string(), ref.stats.debug_string())
          << name << " threads=" << t;
      ASSERT_EQ(r.delta, ref.delta) << name << " threads=" << t;
    }
  }
}

// --- Faulty transports --------------------------------------------------

// Three fault plans spanning the injector's feature space. Every plan keeps
// node 0 alive (it is the flood root).
EngineConfig lossy_config() {
  FaultPlan plan;
  plan.seed = 9001;
  plan.drop_prob = 0.25;
  plan.duplicate_prob = 0.15;
  plan.delay_prob = 0.2;
  plan.max_extra_delay = 4;
  EngineConfig cfg;
  cfg.faults = plan;
  return cfg;
}

EngineConfig structural_config(const Graph& g) {
  FaultPlan plan;
  plan.seed = 4242;
  plan.drop_prob = 0.05;
  // Fail the lexicographically first edge at round 3; crash the last node at
  // round 5.
  plan.link_failures.push_back({g.edges()[0].u, g.edges()[0].v, 3});
  plan.crashes.push_back({g.num_nodes() - 1, 5});
  EngineConfig cfg;
  cfg.faults = plan;
  return cfg;
}

EngineConfig reliable_lossy_config() {
  EngineConfig cfg = lossy_config();
  apply_reliable(cfg);
  return cfg;
}

// Exercises the PR-5 fault classes: payload corruption (base + per-edge
// override) and a transient stall, on top of loss.
EngineConfig chaos_config(const Graph& g) {
  FaultPlan plan;
  plan.seed = 777;
  plan.drop_prob = 0.1;
  plan.duplicate_prob = 0.1;
  plan.corrupt_prob = 0.3;
  plan.edge_corrupt_overrides.push_back({g.edges()[0].u, g.edges()[0].v, 0.9});
  plan.stalls.push_back({g.num_nodes() / 2, 2, 3});
  EngineConfig cfg;
  cfg.faults = plan;
  return cfg;
}

EngineConfig reliable_chaos_config(const Graph& g) {
  EngineConfig cfg = chaos_config(g);
  apply_reliable(cfg);
  return cfg;
}

std::vector<Graph> fault_graphs() {
  std::vector<Graph> out;
  out.push_back(gen::grid(4, 5));
  out.push_back(gen::petersen());
  out.push_back(gen::random_connected(24, 20, 33));
  return out;
}

TEST(Determinism, FaultyRunsAcrossThreadCounts) {
  for (const Graph& g : fault_graphs()) {
    const EngineConfig plans[] = {lossy_config(), structural_config(g),
                                  reliable_lossy_config(), chaos_config(g),
                                  reliable_chaos_config(g)};
    int plan_no = 0;
    for (const EngineConfig& cfg : plans) {
      ++plan_no;
      const FloodRun ref = run_flood(g, cfg, 1);
      for (const std::uint32_t t : {2u, 8u}) {
        const FloodRun r = run_flood(g, cfg, t);
        ASSERT_EQ(r.stats, ref.stats)
            << g.summary() << " plan=" << plan_no << " threads=" << t;
        ASSERT_EQ(r.status, ref.status)
            << g.summary() << " plan=" << plan_no << " threads=" << t;
        ASSERT_EQ(r.dist, ref.dist)
            << g.summary() << " plan=" << plan_no << " threads=" << t;
      }
    }
  }
}

// Faulty runs must also be repeatable at a fixed thread count (the injector
// holds no mutable state; two runs share nothing).
TEST(Determinism, FaultyRunsAreRepeatable) {
  const Graph g = gen::random_connected(20, 15, 7);
  for (const std::uint32_t t : kThreadCounts) {
    const FloodRun a = run_flood(g, lossy_config(), t);
    const FloodRun b = run_flood(g, lossy_config(), t);
    ASSERT_EQ(a.stats, b.stats) << "threads=" << t;
    ASSERT_EQ(a.dist, b.dist) << "threads=" << t;
  }
}

// --- Degraded runs and their repair -------------------------------------

// A full chaos campaign — crash + drops + corruption, wrapped, degraded,
// then repaired — must be byte-identical at every thread count, both in the
// degraded harvest and in every repair output (suspects, rounds, coverage
// histograms, certificate).
TEST(Determinism, RepairCampaignAcrossThreadCounts) {
  const Graph g = gen::grid(4, 5);
  auto campaign = [&](std::uint32_t threads) {
    core::ApspOptions opt;
    opt.engine.threads = threads;
    opt.engine.max_rounds = 1000000;
    FaultPlan plan;
    plan.seed = 31415;
    plan.drop_prob = 0.1;
    plan.corrupt_prob = 0.25;
    plan.crashes.push_back({g.num_nodes() / 2, 60});
    opt.engine.faults = plan;
    apply_reliable(opt.engine);
    core::ApspResult r = core::run_pebble_apsp(g, opt);
    core::RepairOptions ropt;
    ropt.engine.threads = threads;
    const core::RepairReport report = core::repair_apsp(g, r, ropt);
    std::string digest = r.stats.debug_string();
    digest += "|" + report.debug_string();
    digest += "|suspects:";
    for (const NodeId s : report.suspect_sources) {
      digest += std::to_string(s) + ",";
    }
    digest += "|" + report.stats.debug_string();
    return std::make_tuple(std::move(digest), r.dist, r.next_hop);
  };
  const auto ref = campaign(1);
  ASSERT_EQ(std::get<1>(ref), std::get<1>(ref));  // sanity: comparable
  for (const std::uint32_t t : {2u, 8u}) {
    const auto run = campaign(t);
    ASSERT_EQ(std::get<0>(run), std::get<0>(ref)) << "threads=" << t;
    ASSERT_EQ(std::get<1>(run), std::get<1>(ref)) << "threads=" << t;
    ASSERT_EQ(std::get<2>(run), std::get<2>(ref)) << "threads=" << t;
  }
}

// Errors must not depend on the shard partition: the congestion violation of
// the smallest offending node is the one reported, at every thread count.
TEST(Determinism, CongestionErrorIsPartitionIndependent) {
  // Every node spams its neighbors far past the budget in round 0.
  class Spammer final : public Process {
   public:
    void on_round(RoundCtx& ctx) override {
      if (ctx.round() == 0) {
        for (int k = 0; k < 64; ++k) {
          ctx.send_all(Message::make(2, 1, 2));
        }
      }
      ran_ = true;
    }
    bool done() const override { return ran_; }

   private:
    bool ran_ = false;
  };

  const Graph g = gen::complete(12);
  std::vector<std::string> errors;
  for (const std::uint32_t t : kThreadCounts) {
    EngineConfig cfg;
    cfg.threads = t;
    Engine e(g, cfg);
    e.init([](NodeId) { return std::make_unique<Spammer>(); });
    try {
      e.run();
      FAIL() << "expected CongestionError at threads=" << t;
    } catch (const CongestionError& err) {
      errors.emplace_back(err.what());
    }
  }
  ASSERT_EQ(errors[0], errors[1]);
  ASSERT_EQ(errors[0], errors[2]);
}

TEST(Determinism, DurableRecoveryReplayAcrossThreadCounts) {
  namespace fs = std::filesystem;
  const Graph g = gen::random_connected(12, 6, 7);
  DeltaPlanConfig pc;
  pc.seed = 3;
  pc.max_batch = 3;
  pc.crash_prob = 0.1;
  pc.corrupt_prob = 0.1;

  // Build a durable state: checkpoint rotation lands at epoch 6, then four
  // more acknowledged epochs stay journal-only — a real suffix to replay.
  const std::string dir = ::testing::TempDir() + "det_durable";
  fs::remove_all(dir);
  {
    core::DurableConfig dc;
    dc.dir = dir;
    dc.checkpoint_every = 6;
    core::DurableDapspService d(g, dc);
    DeltaPlan plan(pc);
    for (int u = 0; u < 10; ++u) {
      const ChurnBatch b = plan.next(d.service().dynamic_graph());
      const std::uint64_t words[3] = {plan.rng_state(),
                                      plan.batches_generated(),
                                      static_cast<std::uint64_t>(u + 1)};
      d.ack_and_step(b, words);
    }
  }  // dropped without a final rotation, like a crash after epoch 10's ack

  // Recovery replays the journal suffix through the repair ladder; the
  // recovered checkpoint must be bit-identical at every thread count.
  std::vector<std::vector<std::uint8_t>> blobs;
  for (const std::uint32_t t : kThreadCounts) {
    const std::string copy = dir + "_t" + std::to_string(t);
    fs::remove_all(copy);
    fs::copy(dir, copy, fs::copy_options::recursive);
    core::DurableConfig dc;
    dc.dir = copy;
    dc.service.engine.threads = t;
    core::RecoveryReport rr;
    core::DurableDapspService d =
        core::DurableDapspService::recover(dc, &g, &rr);
    EXPECT_EQ(rr.checkpoint_epoch, 6u) << "threads " << t;
    EXPECT_EQ(rr.recovered_epoch, 10u) << "threads " << t;
    EXPECT_EQ(rr.batches_replayed, 4u) << "threads " << t;
    blobs.push_back(d.service().checkpoint_blob(d.plan_words()));
  }
  ASSERT_EQ(blobs.size(), 3u);
  EXPECT_EQ(blobs[0], blobs[1]);
  EXPECT_EQ(blobs[0], blobs[2]);
}

// --- Large-n determinism over the flat engine (DESIGN.md §16) -----------
//
// The flat rewrite's riskiest surface is scale: thousands of nodes sharded
// across 8 workers, arena capacities growing mid-run, inbox frames
// scattering tens of thousands of messages per round. A 4096-node random
// graph and a 64x64 grid pin the determinism contract at that size — small
// graphs can mask shard-merge bugs because every shard fits one worker.

TEST(Determinism, LargeGraphsAcrossThreadCounts) {
  const Graph graphs[] = {gen::random_connected(4096, 8192, 99),
                          gen::grid(64, 64)};
  for (const Graph& g : graphs) {
    // Faults make the merge order load-bearing: drops, duplicates and
    // delays are drawn per (node, round), so any shard skew shows up in
    // stats and distances immediately.
    const EngineConfig cfg = lossy_config();
    const FloodRun ref = run_flood(g, cfg, 1);
    for (const std::uint32_t t : {2u, 8u}) {
      const FloodRun r = run_flood(g, cfg, t);
      ASSERT_EQ(r.status, ref.status) << g.summary() << " threads=" << t;
      ASSERT_EQ(r.stats, ref.stats) << g.summary() << " threads=" << t;
      ASSERT_EQ(r.dist, ref.dist) << g.summary() << " threads=" << t;
    }
  }
}

// The traced path at scale: per-shard event arenas merged in fixed sender
// order must reproduce the exact event stream at every thread count. The
// stream is compared by digest (count + order-sensitive hash of every
// field) — materializing multi-megabyte JSONL three times would only slow
// the suite without tightening the check.
TEST(Determinism, LargeGraphTracedRunsAreIdentical) {
  const Graph g = gen::random_connected(4096, 8192, 99);
  std::vector<std::pair<std::size_t, std::uint64_t>> digests;
  for (const std::uint32_t t : kThreadCounts) {
    TraceLog log;
    EngineConfig cfg = lossy_config();
    cfg.trace = &log;
    cfg.threads = t;
    cfg.max_rounds = 200000;
    Engine e(g, cfg);
    e.init([](NodeId v) { return std::make_unique<Flood>(v); });
    e.run_bounded();
    std::uint64_t h = 1469598103934665603ull;  // FNV-1a over event fields
    const auto mix = [&h](std::uint64_t x) {
      h = (h ^ x) * 1099511628211ull;
    };
    for (const TraceEvent& ev : log.events()) {
      mix(static_cast<std::uint64_t>(ev.kind));
      mix(ev.node);
      mix(ev.peer);
      mix(ev.round);
      mix(ev.aux);
      mix(ev.msg.kind);
      mix(ev.msg.num_fields);
      for (const std::uint32_t f : ev.msg.f) mix(f);
    }
    digests.emplace_back(log.events().size(), h);
  }
  ASSERT_EQ(digests[0], digests[1]);
  ASSERT_EQ(digests[0], digests[2]);
}

}  // namespace
}  // namespace dapsp::congest
