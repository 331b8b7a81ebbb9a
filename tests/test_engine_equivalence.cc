// Differential verification of the flat-memory engine (DESIGN.md §16).
//
// The production engine rebuilt its hot path around flat memory: per-shard
// bump arenas, a CSR mirror-edge table, and double-buffered flat inbox
// frames. None of that may change a single observable bit. This suite runs
// the production engine — at 1, 2 and 8 threads — differentially against
// tests/testing/reference_engine.h, a deliberately naive per-node
// vector-of-vectors model that shares no machinery with the flat layout,
// over 200+ seeded (graph, fault plan, protocol) configurations:
//
//   * statuses, error strings, every RunStats counter, and the harvested
//     per-node protocol state must match the reference exactly;
//   * the send stream — the kSend subsequence of the production engine's
//     trace (round-major, sender-major, send order) — must be byte-identical
//     to the kSend events the reference appends serially;
//   * congestion / field-width / round-limit error paths must surface the
//     same error text from the same node;
//   * the reliable-delivery wrapper must behave identically on both.
//
// Under AddressSanitizer this suite doubles as the arena-reuse check: every
// round resets the per-shard arenas, poisoning their tails (util/arena.h),
// so a stale span read from a previous round faults the run instead of
// silently passing a stale byte into the comparison.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "congest/engine.h"
#include "congest/faults.h"
#include "congest/reliable.h"
#include "graph/generators.h"
#include "testing/reference_engine.h"
#include "util/rng.h"

namespace dapsp::congest {
namespace {

const std::uint32_t kThreadCounts[] = {1, 2, 8};

// A BFS flood from node 0 that re-floods whenever a better distance
// arrives: on faulty transports its behaviour depends on exactly which
// copies arrive in exactly which order, so any divergence in delivery
// content or order shows up in the harvested distances.
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
    ran_ = true;
  }
  bool done() const override { return ran_; }

  std::string harvest() const { return std::to_string(dist_); }

 private:
  std::uint32_t dist_;
  bool ran_ = false;
};

// Multi-message traffic: for eight rounds every node sends two messages per
// edge per round (a 2-field payload plus a control ping) — filling most of
// the default bandwidth budget — and folds everything it hears into a
// digest. Exercises multiple sends per (edge, round), multiple fields, and
// inbox order sensitivity (the digest mixes position).
class Gossip final : public Process {
 public:
  explicit Gossip(NodeId id) : id_(id) {}

  void on_round(RoundCtx& ctx) override {
    std::uint32_t pos = 1;
    for (const Received& r : ctx.inbox()) {
      digest_ = digest_ * 31 + r.from_index + pos * r.msg.kind;
      digest_ += r.msg.f[0] ^ (r.msg.f[1] << 1);
      ++pos;
    }
    if (ctx.round() < 8) {
      const std::uint32_t d = ctx.degree();
      for (std::uint32_t i = 0; i < d; ++i) {
        ctx.send(i, Message::make(7, id_ % 200,
                                  static_cast<std::uint32_t>(ctx.round())));
        ctx.send(i, Message::make(3));
      }
    } else {
      done_ = true;
    }
  }
  bool done() const override { return done_; }

  std::string harvest() const { return std::to_string(digest_); }

 private:
  NodeId id_;
  std::uint32_t digest_ = 0;
  bool done_ = false;
};

// Everything one run can be compared by.
struct Digest {
  std::string status;
  std::string stats;
  std::vector<std::string> harvest;
  std::string observed;  // kSend events of the run's trace

  bool operator==(const Digest&) const = default;
};

enum class Protocol { kFlood, kGossip };

std::unique_ptr<Process> make_process(Protocol p, NodeId v) {
  if (p == Protocol::kFlood) return std::make_unique<Flood>(v);
  return std::make_unique<Gossip>(v);
}

std::string harvest_process(Protocol p, Process& proc) {
  if (p == Protocol::kFlood) {
    return dynamic_cast<const Flood&>(proc.underlying()).harvest();
  }
  return dynamic_cast<const Gossip&>(proc.underlying()).harvest();
}

// The kSend subsequence of a trace, one "round:from>to.kind;" per send.
std::string send_stream(const TraceLog& trace) {
  std::string out;
  for (const TraceEvent& ev : trace.events()) {
    if (ev.kind != TraceEventKind::kSend) continue;
    out += std::to_string(ev.round) + ":" + std::to_string(ev.node) + ">" +
           std::to_string(ev.peer) + "." + std::to_string(ev.msg.kind) + ";";
  }
  return out;
}

template <typename Eng>
Digest run_traced(const Graph& g, EngineConfig cfg, Protocol p) {
  TraceLog trace;
  cfg.trace = &trace;
  Eng eng(g, cfg);
  eng.init([&](NodeId v) { return make_process(p, v); });
  const Outcome out = eng.run_bounded();
  Digest d;
  d.status = std::string(to_string(out.status)) + "|" + out.message;
  d.stats = out.stats.debug_string();
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    d.harvest.push_back(harvest_process(p, eng.process(v)));
  }
  d.observed = send_stream(trace);
  return d;
}

Digest run_reference(const Graph& g, const EngineConfig& cfg, Protocol p) {
  return run_traced<dapsp::testing::ReferenceEngine>(g, cfg, p);
}

Digest run_flat(const Graph& g, EngineConfig cfg, Protocol p,
                std::uint32_t threads) {
  cfg.threads = threads;
  return run_traced<Engine>(g, cfg, p);
}

// Seeded instance space: graph shape, fault plan, protocol all derived from
// one seed via the library Rng, so the suite replays bit-for-bit.
Graph graph_for(Rng& r) {
  switch (r.below(5)) {
    case 0: {
      const NodeId n = static_cast<NodeId>(r.between(8, 40));
      return gen::random_connected(n, r.below(2 * n), r());
    }
    case 1:
      return gen::grid(static_cast<NodeId>(r.between(2, 6)),
                       static_cast<NodeId>(r.between(2, 6)));
    case 2:
      return gen::petersen();
    case 3:
      return gen::cycle_with_chords(static_cast<NodeId>(r.between(8, 24)),
                                    r.below(6), r());
    default:
      return gen::barbell(static_cast<NodeId>(r.between(3, 6)),
                          static_cast<NodeId>(r.between(1, 4)));
  }
}

FaultPlan plan_for(Rng& r, const Graph& g) {
  FaultPlan plan;
  plan.seed = r();
  switch (r.below(5)) {
    case 0:  // trivial plan: fault machinery attached, nothing fires
      break;
    case 1:  // lossy
      plan.drop_prob = 0.05 + 0.3 * r.uniform01();
      plan.duplicate_prob = 0.2 * r.uniform01();
      plan.delay_prob = 0.25 * r.uniform01();
      plan.max_extra_delay = static_cast<std::uint32_t>(r.between(1, 5));
      break;
    case 2:  // corrupting + stall
      plan.corrupt_prob = 0.1 + 0.3 * r.uniform01();
      plan.stalls.push_back({static_cast<NodeId>(r.below(g.num_nodes())),
                             r.between(1, 4), r.between(1, 3)});
      plan.edge_corrupt_overrides.push_back(
          {g.edges()[0].u, g.edges()[0].v, 0.9});
      break;
    case 3:  // structural: link failure + crash
      plan.drop_prob = 0.1 * r.uniform01();
      plan.link_failures.push_back({g.edges()[r.below(g.num_edges())].u,
                                    g.edges()[r.below(g.num_edges())].v,
                                    r.between(1, 6)});
      plan.crashes.push_back({static_cast<NodeId>(r.below(g.num_nodes())),
                              r.between(2, 10)});
      break;
    default:  // kitchen sink
      plan.drop_prob = 0.15 * r.uniform01();
      plan.duplicate_prob = 0.15 * r.uniform01();
      plan.delay_prob = 0.15 * r.uniform01();
      plan.max_extra_delay = static_cast<std::uint32_t>(r.between(1, 4));
      plan.corrupt_prob = 0.15 * r.uniform01();
      plan.crashes.push_back({static_cast<NodeId>(r.below(g.num_nodes())),
                              r.between(3, 12)});
      plan.stalls.push_back({static_cast<NodeId>(r.below(g.num_nodes())),
                             r.between(1, 5), r.between(1, 2)});
      break;
  }
  // Fix up a link failure naming a non-edge (the draws above always pick
  // real edges, but two draws may name the same endpoint twice — the
  // injector validates, so keep the plan well-formed).
  for (auto& lf : plan.link_failures) {
    if (!g.has_edge(lf.u, lf.v)) {
      lf.u = g.edges()[0].u;
      lf.v = g.edges()[0].v;
    }
  }
  return plan;
}

// --- The main randomized differential -----------------------------------

TEST(EngineEquivalence, RandomizedDifferentialAgainstReference) {
  constexpr std::uint64_t kConfigs = 200;
  for (std::uint64_t seed = 0; seed < kConfigs; ++seed) {
    Rng r(0x5eed0000 + seed);
    const Graph g = graph_for(r);
    EngineConfig cfg;
    cfg.faults = plan_for(r, g);
    cfg.max_rounds = 100000;
    const Protocol p = r.chance(0.5) ? Protocol::kFlood : Protocol::kGossip;
    const bool reliable = r.chance(0.25);
    if (reliable) apply_reliable(cfg);

    const Digest ref = run_reference(g, cfg, p);
    for (const std::uint32_t t : kThreadCounts) {
      const Digest flat = run_flat(g, cfg, p, t);
      ASSERT_EQ(flat.status, ref.status)
          << "seed=" << seed << " threads=" << t << " " << g.summary();
      ASSERT_EQ(flat.stats, ref.stats)
          << "seed=" << seed << " threads=" << t << " " << g.summary();
      ASSERT_EQ(flat.harvest, ref.harvest)
          << "seed=" << seed << " threads=" << t << " " << g.summary();
      ASSERT_EQ(flat.observed, ref.observed)
          << "seed=" << seed << " threads=" << t << " " << g.summary();
    }
  }
}

// Fault-free configurations keep a dedicated sweep: with no plan attached
// the engine skips the fault machinery entirely (a different code path from
// a trivial plan).
TEST(EngineEquivalence, FaultFreeDifferential) {
  for (std::uint64_t seed = 0; seed < 40; ++seed) {
    Rng r(0xfa017 + seed);
    const Graph g = graph_for(r);
    EngineConfig cfg;
    cfg.max_rounds = 100000;
    const Protocol p = r.chance(0.5) ? Protocol::kFlood : Protocol::kGossip;
    const Digest ref = run_reference(g, cfg, p);
    for (const std::uint32_t t : kThreadCounts) {
      const Digest flat = run_flat(g, cfg, p, t);
      ASSERT_EQ(flat.status, ref.status) << "seed=" << seed << " t=" << t;
      ASSERT_EQ(flat.stats, ref.stats) << "seed=" << seed << " t=" << t;
      ASSERT_EQ(flat.harvest, ref.harvest) << "seed=" << seed << " t=" << t;
      ASSERT_EQ(flat.observed, ref.observed) << "seed=" << seed << " t=" << t;
    }
  }
}

// --- Error paths ---------------------------------------------------------

// Every node spams far past the budget in round 0: both engines must report
// the same CongestionError text (the smallest node's violation).
TEST(EngineEquivalence, CongestionErrorTextMatchesReference) {
  class Spammer final : public Process {
   public:
    void on_round(RoundCtx& ctx) override {
      if (ctx.round() == 0) {
        for (int k = 0; k < 64; ++k) ctx.send_all(Message::make(2, 1, 2));
      }
      ran_ = true;
    }
    bool done() const override { return ran_; }

   private:
    bool ran_ = false;
  };

  const Graph g = gen::complete(9);
  EngineConfig cfg;
  dapsp::testing::ReferenceEngine ref(g, cfg);
  ref.init([](NodeId) { return std::make_unique<Spammer>(); });
  const Outcome ref_out = ref.run_bounded();
  ASSERT_EQ(ref_out.status, RunStatus::kCongestion);

  for (const std::uint32_t t : kThreadCounts) {
    EngineConfig run_cfg = cfg;
    run_cfg.threads = t;
    Engine eng(g, run_cfg);
    eng.init([](NodeId) { return std::make_unique<Spammer>(); });
    const Outcome out = eng.run_bounded();
    ASSERT_EQ(out.status, ref_out.status) << "threads=" << t;
    ASSERT_EQ(out.message, ref_out.message) << "threads=" << t;
    ASSERT_EQ(out.stats.debug_string(), ref_out.stats.debug_string())
        << "threads=" << t;
  }
}

// A payload field exceeding the declared width must surface the same error
// from the same (smallest) node.
TEST(EngineEquivalence, FieldWidthErrorTextMatchesReference) {
  class Liar final : public Process {
   public:
    explicit Liar(NodeId id) : id_(id) {}
    void on_round(RoundCtx& ctx) override {
      if (ctx.round() == 1 && id_ >= 2) {
        ctx.send_all(Message::make(1, 0xffffffffu));
      } else if (ctx.round() == 0) {
        ctx.send_all(Message::make(1, 1));
      }
      ran_ = ctx.round() >= 1;
    }
    bool done() const override { return ran_; }

   private:
    NodeId id_;
    bool ran_ = false;
  };

  const Graph g = gen::cycle(8);
  EngineConfig cfg;
  dapsp::testing::ReferenceEngine ref(g, cfg);
  ref.init([](NodeId v) { return std::make_unique<Liar>(v); });
  const Outcome ref_out = ref.run_bounded();
  ASSERT_EQ(ref_out.status, RunStatus::kCongestion);
  ASSERT_NE(ref_out.message.find("exceeds value width"), std::string::npos);

  for (const std::uint32_t t : kThreadCounts) {
    EngineConfig run_cfg = cfg;
    run_cfg.threads = t;
    Engine eng(g, run_cfg);
    eng.init([](NodeId v) { return std::make_unique<Liar>(v); });
    const Outcome out = eng.run_bounded();
    ASSERT_EQ(out.status, ref_out.status) << "threads=" << t;
    ASSERT_EQ(out.message, ref_out.message) << "threads=" << t;
    ASSERT_EQ(out.stats.debug_string(), ref_out.stats.debug_string())
        << "threads=" << t;
  }
}

// A protocol that never quiesces must hit the same round limit with the
// same stats on both sides.
TEST(EngineEquivalence, RoundLimitMatchesReference) {
  class Babbler final : public Process {
   public:
    void on_round(RoundCtx& ctx) override { ctx.send_all(Message::make(1, 0)); }
    bool done() const override { return false; }
  };

  const Graph g = gen::path(6);
  EngineConfig cfg;
  cfg.max_rounds = 50;
  dapsp::testing::ReferenceEngine ref(g, cfg);
  ref.init([](NodeId) { return std::make_unique<Babbler>(); });
  const Outcome ref_out = ref.run_bounded();
  ASSERT_EQ(ref_out.status, RunStatus::kRoundLimit);

  for (const std::uint32_t t : kThreadCounts) {
    EngineConfig run_cfg = cfg;
    run_cfg.threads = t;
    Engine eng(g, run_cfg);
    eng.init([](NodeId) { return std::make_unique<Babbler>(); });
    const Outcome out = eng.run_bounded();
    ASSERT_EQ(out.status, ref_out.status) << "threads=" << t;
    ASSERT_EQ(out.message, ref_out.message) << "threads=" << t;
    ASSERT_EQ(out.stats.debug_string(), ref_out.stats.debug_string())
        << "threads=" << t;
  }
}

}  // namespace
}  // namespace dapsp::congest
