#include "congest/faults.h"

#include <limits>
#include <stdexcept>
#include <string>

namespace dapsp::congest {

namespace {

void check_prob(double p, const char* what) {
  // Also rejects NaN (comparisons are false).
  if (!(p >= 0.0 && p <= 1.0)) {
    throw std::invalid_argument(std::string("FaultPlan: ") + what +
                                " must lie in [0, 1]");
  }
}

}  // namespace

FaultInjector::FaultInjector(const Graph& g, const FaultPlan& plan)
    : plan_(plan) {
  check_prob(plan.drop_prob, "drop_prob");
  check_prob(plan.duplicate_prob, "duplicate_prob");
  check_prob(plan.delay_prob, "delay_prob");
  check_prob(plan.corrupt_prob, "corrupt_prob");
  if (plan.delay_prob > 0.0 && plan.max_extra_delay == 0) {
    throw std::invalid_argument(
        "FaultPlan: delay_prob > 0 requires max_extra_delay >= 1");
  }
  if (plan.max_extra_delay > kMaxExtraDelay) {
    throw std::invalid_argument(
        "FaultPlan: max_extra_delay exceeds the supported bound (" +
        std::to_string(kMaxExtraDelay) +
        "); the reliable layer's sequence window assumes bounded reordering");
  }

  const NodeId n = g.num_nodes();
  std::vector<std::size_t> offsets(n + 1, 0);
  for (NodeId v = 0; v < n; ++v) offsets[v + 1] = offsets[v] + g.degree(v);
  const std::size_t directed_edges = offsets[n];

  drop_prob_.assign(directed_edges, plan.drop_prob);
  corrupt_prob_.assign(directed_edges, plan.corrupt_prob);
  link_down_round_.assign(directed_edges,
                          std::numeric_limits<std::uint64_t>::max());
  crash_round_.assign(n, std::numeric_limits<std::uint64_t>::max());
  stall_windows_.assign(n, {});

  // Every entry that names nodes or edges is validated here, before any
  // per-node / per-edge vector is indexed — the Engine constructs the
  // injector up front, so a malformed plan is rejected with a clear error at
  // construction instead of corrupting a run.
  const auto directed_index = [&](NodeId from, NodeId to,
                                  const char* what) -> std::size_t {
    if (from >= n || to >= n) {
      throw std::invalid_argument(
          std::string("FaultPlan: ") + what + " names node " +
          std::to_string(std::max(from, to)) + ", out of range (n=" +
          std::to_string(n) + ")");
    }
    if (from == to) {
      throw std::invalid_argument(std::string("FaultPlan: ") + what +
                                  " names the self-loop " +
                                  std::to_string(from) + "->" +
                                  std::to_string(to) +
                                  "; graphs here are simple");
    }
    const auto idx = g.neighbor_index(from, to);
    if (!idx) {
      throw std::invalid_argument(
          std::string("FaultPlan: ") + what + " names " +
          std::to_string(from) + "->" + std::to_string(to) +
          ", which is not an edge of the graph");
    }
    return offsets[from] + *idx;
  };

  for (const EdgeDropRate& e : plan.edge_drop_overrides) {
    check_prob(e.drop_prob, "edge_drop_overrides[].drop_prob");
    drop_prob_[directed_index(e.from, e.to, "edge_drop_overrides[]")] =
        e.drop_prob;
  }
  for (const EdgeCorruptRate& e : plan.edge_corrupt_overrides) {
    check_prob(e.corrupt_prob, "edge_corrupt_overrides[].corrupt_prob");
    corrupt_prob_[directed_index(e.from, e.to, "edge_corrupt_overrides[]")] =
        e.corrupt_prob;
  }
  for (const LinkFailure& f : plan.link_failures) {
    // A failed link is dead in both directions. Duplicate entries for one
    // link resolve to the earliest failure round, independent of plan order.
    const std::size_t fwd = directed_index(f.u, f.v, "link_failures[]");
    const std::size_t bwd = directed_index(f.v, f.u, "link_failures[]");
    link_down_round_[fwd] = std::min(link_down_round_[fwd], f.round);
    link_down_round_[bwd] = std::min(link_down_round_[bwd], f.round);
  }
  for (const NodeCrash& c : plan.crashes) {
    if (c.v >= n) {
      throw std::invalid_argument("FaultPlan: crashes[] names node " +
                                  std::to_string(c.v) + ", out of range (n=" +
                                  std::to_string(n) + ")");
    }
    // Duplicate entries resolve to the earliest crash round (order-free).
    crash_round_[c.v] = std::min(crash_round_[c.v], c.round);
  }
  for (const NodeStall& s : plan.stalls) {
    if (s.v >= n) {
      throw std::invalid_argument("FaultPlan: stalls[] names node " +
                                  std::to_string(s.v) + ", out of range (n=" +
                                  std::to_string(n) + ")");
    }
    if (s.duration == 0) {
      throw std::invalid_argument(
          "FaultPlan: stalls[] entry has duration 0; a stall must cover at "
          "least one round");
    }
    if (s.round > std::numeric_limits<std::uint64_t>::max() - s.duration) {
      throw std::invalid_argument("FaultPlan: stalls[] window overflows");
    }
    // Canonicalize against the node's crash: a crashed node can no longer
    // stall, so a window is truncated at the (earliest-wins, resolved above)
    // crash round and dropped entirely when it starts at or after it. This
    // mirrors the earliest-wins rule for duplicate crash/link entries and is
    // behavior-neutral — the engine checks crashed(v) before stalled(v) — but
    // it keeps stalled() and node_stall_rounds accounting from ever naming
    // rounds the node was already dead for.
    const std::uint64_t end =
        std::min(s.round + s.duration, crash_round_[s.v]);
    if (s.round >= end) continue;
    stall_windows_[s.v].emplace_back(s.round, end);
  }
}

Rng FaultInjector::stream(NodeId node, std::uint64_t round) const noexcept {
  return keyed_rng(plan_.seed, node, round);
}

FaultDecision FaultInjector::decide(Rng& stream, std::size_t directed_edge,
                                    std::uint32_t message_bits) const {
  FaultDecision d;
  // Fixed draw order (drop, duplicate, per-copy delay, per-copy corruption)
  // keeps runs reproducible: Rng::chance(0) returns without consuming state,
  // so a plan field left at zero influences neither the outcome nor the
  // stream — in particular, plans written before corrupt_prob existed draw
  // bit-identical fates.
  if (stream.chance(drop_prob_[directed_edge])) {
    d.dropped = true;
    return d;
  }
  if (stream.chance(plan_.duplicate_prob)) d.copies = 2;
  for (std::uint32_t c = 0; c < d.copies; ++c) {
    if (stream.chance(plan_.delay_prob)) {
      d.extra_delay[c] =
          static_cast<std::uint32_t>(stream.between(1, plan_.max_extra_delay));
    }
  }
  for (std::uint32_t c = 0; c < d.copies; ++c) {
    if (stream.chance(corrupt_prob_[directed_edge]) && message_bits > 0) {
      d.corrupt_bit[c] = static_cast<std::uint32_t>(stream.below(message_bits));
    }
  }
  return d;
}

}  // namespace dapsp::congest
