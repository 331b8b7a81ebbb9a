#include "core/service.h"

#include <algorithm>
#include <chrono>
#include <istream>
#include <iterator>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "util/frame.h"
#include "util/rng.h"

namespace dapsp::core {

namespace {

using congest::TraceEvent;
using congest::TraceEventKind;

// kDelta aux encoding: low byte = DeltaKind; bit 8 marks an *unannounced*
// crash (applied as a node-leave the analyzer treats identically, but worth
// telling apart in traces).
constexpr std::uint32_t kDeltaCrashBit = 0x100u;

// Magic "DSVC", version "0001".
constexpr FrameTag kCheckpointTag{{'D', 'S', 'V', 'C'}, {'0', '0', '0', '1'}};
// Largest universe a checkpoint may claim; bounds the n*n table arithmetic.
constexpr std::uint64_t kMaxCheckpointNodes = std::uint64_t{1} << 20;

// A DSVC blob's sections, as views into it. Layout after the tag:
//   u32 n | u64 epoch | u64 user_count | u64 user[user_count] | u8 active[n]
//   | u64 m | (u32 u, u32 v)[m] sorted, u < v | u8 status[n]
//   | u32 dist[n*n] | u32 next_hop[n*n] | u32 served_dist[n*n]
//   | u32 served_next_hop[n*n] | seal        (tables indexed [node][source])
struct CheckpointFrame {
  NodeId n = 0;
  std::uint64_t epoch = 0;
  std::span<const std::uint8_t> user_words, active, edges, status, tables;
};

// The one DSVC parser: classify_checkpoint_blob is its verdict and
// restore_blob decodes its views. It allocates nothing (the durable layer
// classifies both generation slots on every rotation and load) and
// validates every field restore_blob relies on, so a kNone blob restores.
CheckpointError parse_checkpoint(std::span<const std::uint8_t> blob,
                                 CheckpointFrame& f) noexcept {
  if (blob.empty()) return CheckpointError::kMissing;
  if (const CheckpointError e = check_tag(blob, kCheckpointTag);
      e != CheckpointError::kNone) {
    return e;
  }
  try {
    ByteReader r(blob.subspan(kFrameTagBytes), "checkpoint");
    f.n = r.u32();
    if (f.n == 0) return CheckpointError::kBadPayload;
    f.epoch = r.u64();
    f.user_words = r.view(r.u64(), 8);
    f.active = r.view(f.n);
    f.edges = r.view(r.u64(), 8);
    f.status = r.view(f.n);
    if (f.n > kMaxCheckpointNodes) return CheckpointError::kTruncated;
    f.tables = r.view(std::uint64_t{f.n} * f.n, 16);
    r.skip(8);  // the seal
    // Self-delimiting: bytes past the seal are damage the seal can't cover.
    if (r.left() != 0) return CheckpointError::kChecksumMismatch;
  } catch (const std::exception&) {
    return CheckpointError::kTruncated;
  }
  if (!seal_ok(blob)) return CheckpointError::kChecksumMismatch;
  for (const std::uint8_t st : f.status) {
    if (st > static_cast<std::uint8_t>(RowStatus::kStale)) {
      return CheckpointError::kBadPayload;
    }
  }
  // Edges as checkpoint_blob writes them: strictly increasing, u < v, both
  // endpoints active — exactly what DynamicGraph accepts in that order.
  ByteReader e(f.edges, "checkpoint edges");
  std::uint64_t prev = 0;
  while (e.left() > 0) {
    const NodeId u = e.u32();
    const NodeId v = e.u32();
    const std::uint64_t key = std::uint64_t{u} << 32 | v;
    if (u >= v || v >= f.n || !f.active[u] || !f.active[v] || key <= prev) {
      return CheckpointError::kBadPayload;
    }
    prev = key;
  }
  return CheckpointError::kNone;
}

std::uint32_t abs_diff(std::uint32_t a, std::uint32_t b) {
  return a > b ? a - b : b - a;
}

}  // namespace

CheckpointError classify_checkpoint_blob(
    std::span<const std::uint8_t> blob) noexcept {
  CheckpointFrame f;
  return parse_checkpoint(blob, f);
}

std::uint64_t peek_checkpoint_epoch(
    std::span<const std::uint8_t> blob) noexcept {
  if (blob.size() < kFrameTagBytes + 12) return 0;
  ByteReader r(blob.subspan(kFrameTagBytes), "checkpoint");
  r.u32();  // n
  return r.u64();
}

std::uint64_t backoff_delay_ms(std::uint64_t base_ms,
                               std::uint64_t exp) noexcept {
  if (base_ms == 0) return 0;
  if (base_ms >= kMaxBackoffMs || exp >= 63) return kMaxBackoffMs;
  const std::uint64_t shifted = base_ms << exp;
  // Saturate on wrap (base << exp no longer round-trips) or past the cap.
  if ((shifted >> exp) != base_ms || shifted > kMaxBackoffMs) {
    return kMaxBackoffMs;
  }
  return shifted;
}

std::uint64_t jitter_between(std::uint64_t lo, std::uint64_t hi,
                             std::uint64_t seed, std::uint64_t a,
                             std::uint64_t b) noexcept {
  if (hi <= lo) return lo;
  return lo + keyed_rng(seed, a, b).below(hi - lo + 1);
}

std::uint64_t decorrelated_backoff_ms(std::uint64_t base_ms,
                                      std::uint64_t prev_ms,
                                      std::uint64_t seed, std::uint64_t epoch,
                                      std::uint64_t attempt) noexcept {
  if (base_ms == 0) return 0;
  const std::uint64_t lo = std::min(base_ms, kMaxBackoffMs);
  // max(base, prev) * 3, saturating at the cap: prev and base are both
  // <= kMaxBackoffMs (60'000) after clamping, so the product cannot wrap.
  const std::uint64_t anchor = std::min(std::max(base_ms, prev_ms),
                                        kMaxBackoffMs);
  const std::uint64_t hi = std::min(anchor * 3, kMaxBackoffMs);
  return jitter_between(lo, hi, seed, epoch, attempt);
}

const char* to_string(RowStatus s) noexcept {
  switch (s) {
    case RowStatus::kExact:
      return "exact";
    case RowStatus::kRepaired:
      return "repaired";
    case RowStatus::kStale:
      return "stale";
  }
  return "?";
}

const char* to_string(EpochOutcome o) noexcept {
  switch (o) {
    case EpochOutcome::kClean:
      return "clean";
    case EpochOutcome::kRepaired:
      return "repaired";
    case EpochOutcome::kRetried:
      return "retried";
    case EpochOutcome::kEscalated:
      return "escalated";
    case EpochOutcome::kSuppressed:
      return "suppressed";
  }
  return "?";
}

DirtyReport analyze_dirty_rows(const DistanceMatrix& dist,
                               std::span<const std::uint8_t> active_before,
                               std::span<const Edge> edges_before,
                               const DynamicGraph& after) {
  const NodeId n = after.universe();
  if (dist.n() != n || active_before.size() != n) {
    throw std::invalid_argument(
        "analyze_dirty_rows: table/mask sizes do not match the universe");
  }

  DirtyReport dr;
  std::vector<std::uint8_t> is_joined(n, 0), is_left(n, 0);
  for (NodeId v = 0; v < n; ++v) {
    const bool before = active_before[v] != 0;
    const bool now = after.active(v);
    if (now && !before) {
      is_joined[v] = 1;
      dr.joined.push_back(v);
    } else if (before && !now) {
      is_left[v] = 1;
      dr.left.push_back(v);
    }
  }

  // Canonical edge diffs (both lists sorted u-major, v-minor, u < v).
  const std::vector<Edge> edges_after = after.sorted_edges();
  const auto edge_lt = [](const Edge& a, const Edge& b) {
    return a.u != b.u ? a.u < b.u : a.v < b.v;
  };
  std::vector<Edge> ins_raw, rem_raw;
  std::set_difference(edges_after.begin(), edges_after.end(),
                      edges_before.begin(), edges_before.end(),
                      std::back_inserter(ins_raw), edge_lt);
  std::set_difference(edges_before.begin(), edges_before.end(),
                      edges_after.begin(), edges_after.end(),
                      std::back_inserter(rem_raw), edge_lt);
  for (const Edge& e : ins_raw) {
    // Edges at a joined endpoint are its attachment frontier — covered by
    // the join rule, not the insert rule (the joined side has no meaningful
    // old distance to compare).
    if (is_joined[e.u] || is_joined[e.v]) continue;
    dr.inserted.push_back(e);
  }
  for (const Edge& e : rem_raw) {
    // Edges at a left endpoint are covered by the leave boundary rule.
    if (is_left[e.u] || is_left[e.v]) continue;
    dr.removed.push_back(e);
  }

  // Adjacent joins break the patch premise (a frontier node's distances must
  // be *old* certified values): hand the whole epoch to a full recompute.
  for (const NodeId w : dr.joined) {
    for (const NodeId x : after.neighbors(w)) {
      if (is_joined[x]) {
        dr.needs_full = true;
        return dr;
      }
    }
  }

  // Pre-batch adjacency of the left nodes (their boundary edges).
  std::vector<std::vector<NodeId>> left_boundary(dr.left.size());
  if (!dr.left.empty()) {
    for (const Edge& e : edges_before) {
      for (std::size_t i = 0; i < dr.left.size(); ++i) {
        const NodeId x = dr.left[i];
        if (e.u == x && !is_left[e.v] && after.active(e.v)) {
          left_boundary[i].push_back(e.v);
        } else if (e.v == x && !is_left[e.u] && after.active(e.u)) {
          left_boundary[i].push_back(e.u);
        }
      }
    }
  }

  std::vector<NodeId> rehop;  // this row's alternative-parent nodes
  for (NodeId s = 0; s < n; ++s) {
    if (!after.active(s)) continue;
    if (is_joined[s]) {
      dr.dirty.push_back(s);  // fresh row, always recomputed
      continue;
    }
    rehop.clear();
    bool d = false;
    for (const Edge& e : dr.inserted) {
      const std::uint32_t a = dist.at(e.u, s), b = dist.at(e.v, s);
      if (a == kInfDist && b == kInfDist) continue;
      if (a == kInfDist || b == kInfDist || abs_diff(a, b) >= 2) {
        d = true;
        break;
      }
    }
    // Shared by the removal and leave rules: did downstream node `hi` (old
    // distance pd + 1) keep an alternative parent at distance pd in the
    // post-batch graph? If so its distance — and everything beyond it — is
    // unchanged (the old shortest-path suffix from hi survives; distances
    // strictly increase along it, so it cannot reuse the lost connection).
    // Checking against the *after* adjacency keeps multi-delta batches
    // sound: a parent lost to another delta in the same batch doesn't count.
    const auto has_alt_parent = [&](NodeId hi, std::uint32_t pd) {
      for (const NodeId y : after.neighbors(hi)) {
        // A joined node has no trustworthy old-table entry yet.
        if (!is_joined[y] && dist.at(y, s) == pd) return true;
      }
      return false;
    };
    if (!d) {
      for (const Edge& e : dr.removed) {
        const std::uint32_t a = dist.at(e.u, s), b = dist.at(e.v, s);
        if (a == kInfDist && b == kInfDist) continue;
        // A certified table is 1-Lipschitz across existing edges, so one
        // infinite endpoint means the table was already suspect.
        if (a == kInfDist || b == kInfDist) {
          d = true;
          break;
        }
        // The edge mattered for row s only if it sat on a shortest path
        // (diff 1) AND the downstream endpoint lost its last parent.
        if (abs_diff(a, b) != 1) continue;
        const NodeId hi = a > b ? e.u : e.v;
        if (!has_alt_parent(hi, std::min(a, b))) {
          d = true;
          break;
        }
        rehop.push_back(hi);
      }
    }
    if (!d) {
      for (std::size_t i = 0; i < dr.left.size() && !d; ++i) {
        const NodeId x = dr.left[i];
        const std::uint32_t a = dist.at(x, s);
        if (a == kInfDist) continue;  // x was unreachable: no s-path used it
        for (const NodeId y : left_boundary[i]) {
          const std::uint32_t b = dist.at(y, s);
          // y's shortest path may have run through x — unless y kept
          // another parent at x's old distance.
          if (b != kInfDist && b == a + 1) {
            if (!has_alt_parent(y, a)) {
              d = true;
              break;
            }
            rehop.push_back(y);
          }
        }
      }
    }
    if (!d) {
      for (const NodeId w : dr.joined) {
        std::uint32_t mn = kInfDist;
        bool any_inf = false;
        std::uint32_t mx = 0;
        for (const NodeId x : after.neighbors(w)) {
          const std::uint32_t dx = dist.at(x, s);
          if (dx == kInfDist) {
            any_inf = true;
          } else {
            mn = std::min(mn, dx);
            mx = std::max(mx, dx);
          }
        }
        if (mn == kInfDist) continue;  // frontier unreachable (or empty)
        if (any_inf || mx > mn + 2) {
          // w shortcuts between frontier nodes (or bridges s's component to
          // an unreachable one): the row changes beyond the one new entry.
          d = true;
          break;
        }
      }
    }
    if (d) {
      dr.dirty.push_back(s);
    } else {
      for (const NodeId v : rehop) dr.rehop.emplace_back(v, s);
    }
  }
  return dr;
}

void DapspService::validate_config() const {
  if (!(config_.escalate_fraction > 0.0 && config_.escalate_fraction <= 1.0)) {
    throw std::invalid_argument(
        "ServiceConfig: escalate_fraction must lie in (0, 1]");
  }
  if (config_.max_repair_attempts == 0) {
    throw std::invalid_argument(
        "ServiceConfig: max_repair_attempts must be >= 1");
  }
}

DapspService::DapspService(const Graph& initial, const ServiceConfig& config)
    : config_(config), graph_(initial), served_dist_(initial.num_nodes()) {
  validate_config();
  const NodeId n = initial.num_nodes();
  apsp_.dist = DistanceMatrix(n);
  apsp_.next_hop.assign(n, std::vector<NodeId>(n, kNoNextHop));
  apsp_.survived.assign(n, 1);
  apsp_.status = congest::RunStatus::kCompleted;
  served_next_hop_.assign(n, std::vector<NodeId>(n, kNoNextHop));
  row_status_.assign(n, RowStatus::kStale);

  // Initial build: one full S-SP recompute (works on disconnected inputs —
  // the repair layer runs per component), certified over every row.
  RepairOptions ropts;
  ropts.engine = config_.engine;
  if (config_.watchdog_rounds) ropts.engine.max_rounds = config_.watchdog_rounds;
  std::vector<NodeId> all(n);
  for (NodeId v = 0; v < n; ++v) all[v] = v;
  ropts.suspects = all;
  ropts.certify_all = true;
  const RepairReport rep = repair_apsp(initial, apsp_, ropts);
  if (!rep.all_certified()) {
    throw std::runtime_error(
        "DapspService: initial build failed to certify: " +
        rep.debug_string());
  }
  stats_.rows_repaired += rep.rows_repaired;
  stats_.repairs_attempted += 1;
  congest::accumulate(stats_.run, rep.stats);
  std::vector<NodeId> rows(all);
  refresh_served(rows, RowStatus::kExact);
  if (config_.snapshot_sink != nullptr) {
    config_.snapshot_sink->on_snapshot(*this, /*degraded=*/false);
  }
}

DapspService::DapspService(RestoreTag, const ServiceConfig& config,
                           DynamicGraph graph)
    : config_(config), graph_(std::move(graph)) {
  validate_config();
}

void DapspService::blank_node(NodeId x) {
  const NodeId n = graph_.universe();
  for (NodeId v = 0; v < n; ++v) {
    apsp_.dist.set(v, x, kInfDist);
    apsp_.next_hop[v][x] = kNoNextHop;
    served_dist_.set(v, x, kInfDist);
    served_next_hop_[v][x] = kNoNextHop;
    apsp_.dist.set(x, v, kInfDist);
    apsp_.next_hop[x][v] = kNoNextHop;
    served_dist_.set(x, v, kInfDist);
    served_next_hop_[x][v] = kNoNextHop;
  }
  row_status_[x] = RowStatus::kStale;
}

void DapspService::patch_join_entries(const DirtyReport& dr) {
  // For clean rows (not about to be recomputed) the joined node's entry is
  // determined by its frontier: D_s(w) = 1 + min over attachments. Suspect
  // rows get patched too — harmlessly, their repair overwrites everything.
  const NodeId n = graph_.universe();
  for (const NodeId w : dr.joined) {
    const auto frontier = graph_.neighbors(w);
    for (NodeId s = 0; s < n; ++s) {
      if (!graph_.active(s) || s == w) continue;
      std::uint32_t mn = kInfDist;
      NodeId arg = kNoNextHop;
      for (const NodeId x : frontier) {
        const std::uint32_t dx = apsp_.dist.at(x, s);
        if (dx < mn) {
          mn = dx;
          arg = x;
        }
      }
      apsp_.dist.set(w, s, mn == kInfDist ? kInfDist : mn + 1);
      apsp_.next_hop[w][s] = arg;
    }
  }
}

void DapspService::patch_stale_hops(const DirtyReport& dr) {
  // A hop is valid when it names a live, pre-existing neighbor one step
  // closer to s; joined nodes' old-table entries are meaningless until
  // patch_join_entries runs.
  const auto closer = [&](NodeId v, NodeId s, NodeId h) {
    if (!graph_.has_edge(v, h) ||
        std::binary_search(dr.joined.begin(), dr.joined.end(), h)) {
      return false;
    }
    const std::uint32_t dh = apsp_.dist.at(h, s);
    return dh != kInfDist && dh + 1 == apsp_.dist.at(v, s);
  };
  for (const auto& [v, s] : dr.rehop) {
    const bool working_ok = closer(v, s, apsp_.next_hop[v][s]);
    const bool served_ok = closer(v, s, served_next_hop_[v][s]);
    if (working_ok && served_ok) continue;
    // The analyzer's alternative parent: neighbors are sorted, so the first
    // match is the smallest id.
    NodeId hop = kNoNextHop;
    for (const NodeId y : graph_.neighbors(v)) {
      if (closer(v, s, y)) {
        hop = y;
        break;
      }
    }
    if (!working_ok) apsp_.next_hop[v][s] = hop;
    if (!served_ok) served_next_hop_[v][s] = hop;
  }
}

void DapspService::refresh_served(std::span<const NodeId> rows,
                                  RowStatus status) {
  const NodeId n = graph_.universe();
  for (const NodeId s : rows) {
    for (NodeId v = 0; v < n; ++v) {
      served_dist_.set(v, s, apsp_.dist.at(v, s));
      served_next_hop_[v][s] = apsp_.next_hop[v][s];
    }
    row_status_[s] = status;
  }
}

void DapspService::run_repair_ladder(
    std::optional<std::vector<NodeId>> suspects, bool force_escalate,
    EpochReport& ep) {
  const auto wall_start = std::chrono::steady_clock::now();
  const auto wall_blown = [&]() {
    if (config_.watchdog_wall_ms == 0) return false;
    const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
        std::chrono::steady_clock::now() - wall_start);
    return static_cast<std::uint64_t>(elapsed.count()) >
           config_.watchdog_wall_ms;
  };

  const Graph snap = graph_.snapshot();
  apsp_.survived = graph_.active_mask();

  std::vector<NodeId> all_active;
  for (NodeId v = 0; v < graph_.universe(); ++v) {
    if (graph_.active(v)) all_active.push_back(v);
  }

  // The ladder's rungs: incremental (when the analyzer supplied suspects),
  // certificate-driven detection, full recompute. force_escalate (oversized
  // region / needs_full) jumps straight to the last rung.
  struct Rung {
    std::optional<std::vector<NodeId>> suspects;
    bool certify_all = true;
    bool escalation = false;
  };
  std::vector<Rung> rungs;
  if (!force_escalate) {
    if (suspects) rungs.push_back({suspects, false, false});
    rungs.push_back({std::nullopt, true, false});
  }
  rungs.push_back({all_active, true, true});
  if (rungs.size() > config_.max_repair_attempts) {
    // Keep the first rungs but always end on the full recompute.
    rungs.erase(rungs.begin() + (config_.max_repair_attempts - 1),
                rungs.end() - 1);
  }

  // Jittered-backoff envelope: the degraded streak sets where the
  // decorrelated walk starts (saturating via backoff_delay_ms — a plain
  // shift would overflow past 2^63), and each sleep this epoch then draws
  // uniform in [base, 3 * prev], keyed by (seed, epoch, attempt). Determinism
  // survives (same key, same sleep) while co-churning shards decorrelate.
  std::uint64_t prev_backoff_ms =
      backoff_delay_ms(config_.backoff_base_ms, degraded_streak_);
  for (std::size_t i = 0; i < rungs.size(); ++i) {
    if (i > 0) {
      if (config_.backoff_base_ms > 0) {
        const std::uint64_t ms =
            decorrelated_backoff_ms(config_.backoff_base_ms, prev_backoff_ms,
                                    config_.backoff_seed, epoch_, i);
        prev_backoff_ms = ms;
        std::this_thread::sleep_for(std::chrono::milliseconds(ms));
        stats_.backoff_ms += ms;
      }
      // Wall watchdog: skip intermediate rungs, keep only the final
      // escalation (the one guaranteed-simple recovery path).
      if (wall_blown() && i + 1 < rungs.size()) continue;
    }
    const Rung& rung = rungs[i];
    ++ep.attempts;
    if (rung.escalation) {
      ep.escalated = true;
      stats_.repairs_escalated += 1;
    }
    RepairOptions ropts;
    ropts.engine = config_.engine;
    if (config_.watchdog_rounds) {
      ropts.engine.max_rounds = config_.watchdog_rounds;
    }
    ropts.suspects = rung.suspects;
    ropts.certify_all = rung.certify_all;
    try {
      const RepairReport rep = repair_apsp(snap, apsp_, ropts);
      stats_.repairs_attempted += 1;
      congest::accumulate(ep.stats, rep.stats);
      if (!rep.all_certified()) continue;  // failed attempt: next rung
      ep.certified = true;
      ep.suspect_rows = rep.rows_repaired;
      ep.repair_rounds = rep.repair_rounds;
      ep.round_bound = rep.round_bound;
      ep.bound_ok = rep.bound_ok;
      stats_.rows_repaired += rep.rows_repaired;
      degraded_streak_ = 0;
      if (rung.certify_all) {
        // Every active row certified against the current graph.
        refresh_served(all_active, RowStatus::kExact);
      } else {
        refresh_served(rep.suspect_sources, RowStatus::kRepaired);
      }
      return;
    } catch (const congest::RoundLimitError&) {
      // Watchdog trip: the attempt is over budget, move up the ladder.
      continue;
    } catch (const congest::CongestionError&) {
      continue;
    }
  }

  // Every rung failed: mark what we meant to heal stale; the served snapshot
  // keeps answering from the last certified state.
  ep.certified = false;
  ++degraded_streak_;
  ++stats_.epochs_failed;
  const std::vector<NodeId>& stale = suspects ? *suspects : all_active;
  for (const NodeId s : stale) {
    if (graph_.active(s)) row_status_[s] = RowStatus::kStale;
  }
}

void DapspService::note_gate_state() {
  if (config_.repair_gate == nullptr) return;
  const std::uint8_t gs = config_.repair_gate->state();
  if (gs == last_gate_state_) return;
  ++stats_.breaker_transitions;
  if (config_.engine.trace != nullptr) {
    TraceEvent ev;
    ev.kind = TraceEventKind::kBreaker;
    ev.node = gs;
    ev.peer = last_gate_state_;
    ev.round = epoch_;
    ev.aux = static_cast<std::uint32_t>(stats_.breaker_transitions);
    config_.engine.trace->append(ev);
  }
  last_gate_state_ = gs;
}

void DapspService::emit_epoch_event(const EpochReport& ep) {
  if (config_.engine.trace == nullptr) return;
  TraceEvent ev;
  ev.kind = TraceEventKind::kEpoch;
  ev.node = static_cast<NodeId>(ep.epoch);
  ev.peer = ep.suspect_rows;
  ev.round = ep.epoch;
  ev.aux = static_cast<std::uint32_t>(ep.outcome);
  config_.engine.trace->append(ev);
}

EpochReport DapspService::step(const ChurnBatch& batch) {
  ++epoch_;
  EpochReport ep;
  ep.epoch = epoch_;

  const std::vector<Edge> edges_before = graph_.sorted_edges();
  const std::vector<std::uint8_t> active_before = graph_.active_mask();

  congest::TraceLog* trace = config_.engine.trace;
  const auto emit_delta = [&](const GraphDelta& d, bool crash) {
    if (trace == nullptr) return;
    TraceEvent ev;
    ev.kind = TraceEventKind::kDelta;
    ev.node = d.u;
    ev.peer = d.v;
    ev.round = epoch_;
    ev.aux = static_cast<std::uint32_t>(d.kind) | (crash ? kDeltaCrashBit : 0);
    trace->append(ev);
  };

  for (const GraphDelta& d : batch.deltas) {
    graph_.apply(d);
    emit_delta(d, false);
    ++ep.deltas_applied;
  }
  for (const NodeId v : batch.crashes) {
    if (!graph_.active(v)) continue;  // already gone; nothing to crash
    const GraphDelta d{DeltaKind::kNodeLeave, v, v};
    graph_.apply(d);
    emit_delta(d, true);
    ++ep.crashes;
    ep.stats.nodes_crashed += 1;
  }

  // Analyze against the pre-epoch table, then retire dead rows.
  const DirtyReport dr = analyze_dirty_rows(apsp_.dist, active_before,
                                            edges_before, graph_);
  for (const NodeId x : dr.left) blank_node(x);
  // Distances of clean rows stand; their hops over lost links are fixed
  // before anything is published.
  patch_stale_hops(dr);

  // Suspects = the analyzed dirty set plus any rows still stale from failed
  // earlier epochs (or a restore) — staleness carries over until healed.
  std::vector<NodeId> suspects = dr.dirty;
  for (NodeId s = 0; s < graph_.universe(); ++s) {
    if (graph_.active(s) && row_status_[s] == RowStatus::kStale) {
      suspects.push_back(s);
    }
  }
  std::sort(suspects.begin(), suspects.end());
  suspects.erase(std::unique(suspects.begin(), suspects.end()),
                 suspects.end());

  // Conservative disclosure (see header): every implicated row drops to
  // kStale *now*, before the repair ladder runs. A snapshot published (or a
  // query answered) between here and certification discloses the row as
  // stale instead of overclaiming exactness for pre-batch values. On
  // needs_full the analyzer could not bound the region, so every active row
  // is implicated.
  bool downgraded = false;
  const auto downgrade = [&](NodeId s) {
    if (row_status_[s] != RowStatus::kStale) {
      row_status_[s] = RowStatus::kStale;
      downgraded = true;
    }
  };
  // A joined node's cell is wrong in *every* row (not just the dirty ones)
  // until patch_join_entries lands and its result is served, so a join
  // implicates even the clean rows — but only in that one cell. Downgrade
  // them too, remembering their pre-join status so certification (which
  // serves the exact-by-construction patched cells) can restore it; if the
  // epoch fails, they stay stale and re-enter the suspect set next epoch.
  std::vector<std::pair<NodeId, RowStatus>> join_guard;
  if (dr.needs_full) {
    for (NodeId s = 0; s < graph_.universe(); ++s) {
      if (graph_.active(s)) downgrade(s);
    }
  } else {
    for (const NodeId s : suspects) downgrade(s);
    if (!dr.joined.empty()) {
      for (NodeId s = 0; s < graph_.universe(); ++s) {
        if (!graph_.active(s) || row_status_[s] == RowStatus::kStale) continue;
        join_guard.emplace_back(s, row_status_[s]);
        downgrade(s);
      }
    }
  }
  if (config_.snapshot_sink != nullptr && downgraded) {
    config_.snapshot_sink->on_snapshot(*this, /*degraded=*/true);
  }

  bool force = dr.needs_full;
  if (!force && !suspects.empty()) {
    const double frac = static_cast<double>(suspects.size()) /
                        static_cast<double>(std::max<NodeId>(
                            graph_.num_active(), 1));
    if (frac > config_.escalate_fraction) force = true;
  }

  if (suspects.empty() && !force) {
    ep.outcome = EpochOutcome::kClean;
    ep.certified = true;
    degraded_streak_ = 0;
  } else if (config_.repair_gate != nullptr &&
             !config_.repair_gate->allow_repair(epoch_)) {
    // The gate (an open circuit breaker) refused the ladder: spend nothing.
    // Every implicated row was already downgraded to kStale above, so the
    // epoch serves degraded from the last certified values and the suspects
    // re-enter next epoch's set. Join-guard rows stay stale too — their
    // patched cells were never computed. Not a failed repair: the degraded
    // streak and epochs_failed are untouched.
    ep.outcome = EpochOutcome::kSuppressed;
    ep.certified = false;
    ++stats_.repairs_suppressed;
  } else {
    if (!force) patch_join_entries(dr);
    run_repair_ladder(force ? std::nullopt
                            : std::optional<std::vector<NodeId>>(suspects),
                      force, ep);
    if (config_.repair_gate != nullptr) {
      config_.repair_gate->on_repair_outcome(epoch_, ep.certified);
    }
    if (ep.certified && !force && !dr.joined.empty()) {
      // The direct-patched entries of clean rows (one cell per joined node
      // per row) are exact by construction — serve them too, and lift the
      // join-guard downgrade now that the rows are whole again.
      for (const NodeId w : dr.joined) {
        for (NodeId s = 0; s < graph_.universe(); ++s) {
          if (!graph_.active(s)) continue;
          served_dist_.set(w, s, apsp_.dist.at(w, s));
          served_next_hop_[w][s] = apsp_.next_hop[w][s];
        }
      }
      for (const auto& [s, prev] : join_guard) {
        if (graph_.active(s) && row_status_[s] == RowStatus::kStale) {
          row_status_[s] = prev;
        }
      }
    }
    ep.outcome = ep.escalated ? EpochOutcome::kEscalated
                 : ep.attempts > 1
                     ? EpochOutcome::kRetried
                     : EpochOutcome::kRepaired;
  }

  // Bit-rot lands after the epoch's certification (it models decay between
  // epochs); it is invisible to the analyzer and waits for a scrub — or for
  // its row to turn suspect for other reasons.
  if (batch.corrupt_flips > 0) {
    Rng rot(batch.corrupt_seed);
    for (std::uint32_t i = 0; i < batch.corrupt_flips; ++i) {
      const NodeId v = static_cast<NodeId>(rot.below(graph_.universe()));
      const NodeId s = static_cast<NodeId>(rot.below(graph_.universe()));
      if (!graph_.active(v) || !graph_.active(s)) continue;
      const std::uint32_t bit = static_cast<std::uint32_t>(rot.below(16));
      apsp_.dist.set(v, s, apsp_.dist.at(v, s) ^ (1u << bit));
      ++ep.corrupted_entries;
    }
  }

  stats_.epochs += 1;
  stats_.deltas_applied += ep.deltas_applied;
  stats_.crashes += ep.crashes;
  stats_.corrupted_entries += ep.corrupted_entries;
  congest::accumulate(stats_.run, ep.stats);
  note_gate_state();
  emit_epoch_event(ep);

  if (config_.scrub_every > 0 && epoch_ % config_.scrub_every == 0) {
    scrub();
  }
  if (config_.snapshot_sink != nullptr) {
    config_.snapshot_sink->on_snapshot(*this, /*degraded=*/false);
  }
  return ep;
}

EpochReport DapspService::scrub() {
  EpochReport ep;
  ep.epoch = epoch_;
  // Deliberately not gated: a scrub is operator-initiated maintenance and
  // must always be able to heal. Its outcome still feeds the gate, so a
  // successful scrub closes an open breaker (and a failed one re-opens it).
  run_repair_ladder(std::nullopt, false, ep);
  if (config_.repair_gate != nullptr) {
    config_.repair_gate->on_repair_outcome(epoch_, ep.certified);
  }
  ep.outcome = ep.escalated  ? EpochOutcome::kEscalated
               : ep.attempts > 1 ? EpochOutcome::kRetried
                                 : EpochOutcome::kRepaired;
  stats_.scrubs += 1;
  congest::accumulate(stats_.run, ep.stats);
  note_gate_state();
  emit_epoch_event(ep);
  if (config_.snapshot_sink != nullptr) {
    config_.snapshot_sink->on_snapshot(*this, /*degraded=*/false);
  }
  return ep;
}

bool DapspService::fully_certified() const {
  for (NodeId s = 0; s < graph_.universe(); ++s) {
    if (graph_.active(s) && row_status_[s] == RowStatus::kStale) return false;
  }
  return true;
}

ServiceQuery DapspService::query(NodeId from, NodeId to) const {
  if (from >= graph_.universe() || to >= graph_.universe()) {
    throw std::invalid_argument("DapspService::query: node out of universe");
  }
  ServiceQuery q;
  if (!graph_.active(from) || !graph_.active(to)) return q;
  q.active = true;
  q.dist = served_dist_.at(from, to);
  q.next_hop = served_next_hop_[from][to];
  q.status = row_status_[to];
  return q;
}

std::vector<std::uint8_t> DapspService::checkpoint_blob(
    std::span<const std::uint64_t> user_words) {
  const NodeId n = graph_.universe();
  std::vector<std::uint8_t> b;
  b.reserve(64 + std::size_t{n} * n * 16);
  put_tag(b, kCheckpointTag);
  put_u32(b, n);
  put_u64(b, epoch_);
  put_u64(b, user_words.size());
  for (const std::uint64_t w : user_words) put_u64(b, w);
  for (NodeId v = 0; v < n; ++v) b.push_back(graph_.active(v) ? 1 : 0);
  const std::vector<Edge> edges = graph_.sorted_edges();
  put_u64(b, edges.size());
  for (const Edge& e : edges) {
    put_u32(b, e.u);
    put_u32(b, e.v);
  }
  for (NodeId s = 0; s < n; ++s) {
    b.push_back(static_cast<std::uint8_t>(row_status_[s]));
  }
  for (NodeId v = 0; v < n; ++v) put_u32s(b, apsp_.dist.row(v));
  for (NodeId v = 0; v < n; ++v) put_u32s(b, apsp_.next_hop[v]);
  for (NodeId v = 0; v < n; ++v) put_u32s(b, served_dist_.row(v));
  for (NodeId v = 0; v < n; ++v) put_u32s(b, served_next_hop_[v]);
  seal(b);

  stats_.checkpoints += 1;
  stats_.checkpoint_bytes += b.size();
  return b;
}

void DapspService::checkpoint(std::ostream& out,
                              std::span<const std::uint64_t> user_words) {
  const std::vector<std::uint8_t> b = checkpoint_blob(user_words);
  out.write(reinterpret_cast<const char*>(b.data()),
            static_cast<std::streamsize>(b.size()));
  if (!out) {
    throw std::runtime_error("DapspService::checkpoint: write failed");
  }
}

DapspService DapspService::restore(std::istream& in,
                                   const ServiceConfig& config,
                                   std::vector<std::uint64_t>* user_words_out) {
  const std::vector<std::uint8_t> b(std::istreambuf_iterator<char>(in), {});
  return restore_blob(b, config, user_words_out);
}

DapspService DapspService::restore_blob(
    std::span<const std::uint8_t> blob, const ServiceConfig& config,
    std::vector<std::uint64_t>* user_words_out) {
  CheckpointFrame f;
  const CheckpointError err = parse_checkpoint(blob, f);
  if (err != CheckpointError::kNone) {
    throw std::runtime_error(std::string("DapspService::restore: ") +
                             to_string(err) + " checkpoint");
  }
  const NodeId n = f.n;
  std::vector<std::uint64_t> user(f.user_words.size() / 8);
  ByteReader words(f.user_words, "DapspService::restore");
  for (std::uint64_t& w : user) w = words.u64();

  DynamicGraph g(n);
  for (NodeId v = 0; v < n; ++v) {
    if (!f.active[v]) g.apply({DeltaKind::kNodeLeave, v, v});
  }
  ByteReader edges(f.edges, "DapspService::restore");
  while (edges.left() > 0) {
    const NodeId u = edges.u32();
    const NodeId v = edges.u32();
    g.apply({DeltaKind::kEdgeInsert, u, v});
  }

  DapspService svc(RestoreTag{}, config, std::move(g));
  svc.epoch_ = f.epoch;
  svc.row_status_.resize(n);
  for (NodeId s = 0; s < n; ++s) {
    svc.row_status_[s] = static_cast<RowStatus>(f.status[s]);
  }
  svc.apsp_.dist = DistanceMatrix(n);
  svc.apsp_.next_hop.assign(n, std::vector<NodeId>(n, kNoNextHop));
  svc.served_dist_ = DistanceMatrix(n);
  svc.served_next_hop_.assign(n, std::vector<NodeId>(n, kNoNextHop));
  ByteReader t(f.tables, "DapspService::restore");
  for (NodeId v = 0; v < n; ++v) {
    for (NodeId s = 0; s < n; ++s) svc.apsp_.dist.set(v, s, t.u32());
  }
  for (NodeId v = 0; v < n; ++v) {
    for (NodeId s = 0; s < n; ++s) svc.apsp_.next_hop[v][s] = t.u32();
  }
  for (NodeId v = 0; v < n; ++v) {
    for (NodeId s = 0; s < n; ++s) svc.served_dist_.set(v, s, t.u32());
  }
  for (NodeId v = 0; v < n; ++v) {
    for (NodeId s = 0; s < n; ++s) svc.served_next_hop_[v][s] = t.u32();
  }
  svc.apsp_.survived = svc.graph_.active_mask();
  svc.apsp_.status = congest::RunStatus::kCompleted;

  if (user_words_out != nullptr) *user_words_out = std::move(user);
  return svc;
}

std::optional<DapspService> DapspService::try_restore_blob(
    std::span<const std::uint8_t> blob, const ServiceConfig& config,
    std::vector<std::uint64_t>* user_words_out, CheckpointError* error_out) {
  try {
    std::optional<DapspService> svc =
        restore_blob(blob, config, user_words_out);
    if (error_out != nullptr) *error_out = CheckpointError::kNone;
    return svc;
  } catch (const std::exception&) {
    if (error_out != nullptr) {
      // A blob that parses can still fail to build (say, out of memory).
      const CheckpointError err = classify_checkpoint_blob(blob);
      *error_out =
          err == CheckpointError::kNone ? CheckpointError::kBadPayload : err;
    }
    return std::nullopt;
  }
}

std::string EpochReport::debug_string() const {
  std::ostringstream os;
  os << "epoch " << epoch << ": " << to_string(outcome)
     << " deltas=" << deltas_applied << " crashes=" << crashes
     << " suspects=" << suspect_rows << " attempts=" << attempts
     << " rounds=" << repair_rounds << "/bound=" << round_bound
     << (bound_ok ? "" : " BOUND-EXCEEDED")
     << (certified ? "" : " NOT-CERTIFIED");
  return std::move(os).str();
}

std::string ServiceStats::debug_string() const {
  std::ostringstream os;
  os << "epochs=" << epochs << " deltas=" << deltas_applied
     << " crashes=" << crashes << " corrupted=" << corrupted_entries
     << " rows_repaired=" << rows_repaired << " failed=" << epochs_failed
     << " suppressed=" << repairs_suppressed
     << " scrubs=" << scrubs << " checkpoints=" << checkpoints << " | "
     << run.debug_string();
  // Print only when nonzero (the line's historical form).
  if (repairs_attempted) os << " repairs=" << repairs_attempted;
  if (repairs_escalated) os << " escalated=" << repairs_escalated;
  if (checkpoint_bytes) os << " checkpoint_bytes=" << checkpoint_bytes;
  return std::move(os).str();
}

}  // namespace dapsp::core
