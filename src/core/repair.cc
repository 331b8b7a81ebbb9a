#include "core/repair.h"

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "core/primitives/bfs_process.h"
#include "core/ssp.h"

namespace dapsp::core {

namespace {

// Repair models the post-incident network: the surviving subgraph is healthy,
// so the sub-runs and certification passes run fault-free and uninstrumented.
// Only the caller's capacity knobs survive.
congest::EngineConfig sanitized(const congest::EngineConfig& in) {
  congest::EngineConfig cfg = in;
  cfg.faults.reset();
  cfg.process_wrapper = nullptr;
  cfg.trace = nullptr;
  cfg.metrics = nullptr;
  return cfg;
}

// Sub-runs use per-component graphs whose bandwidth budgets differ (B depends
// on the component's n), so the budget is dropped before accumulation.
void fold_stats(congest::RunStats& into, congest::RunStats from) {
  from.bandwidth_bits = 0;
  congest::accumulate(into, from);
}

void add_coverage(Histogram& h, std::span<const RowCoverage> cov) {
  for (const RowCoverage c : cov) {
    h.add(static_cast<std::uint64_t>(c));
  }
}

}  // namespace

RepairReport repair_apsp(const Graph& g, ApspResult& result,
                         const RepairOptions& options) {
  const NodeId n = g.num_nodes();
  if (result.dist.n() != n || result.next_hop.size() != n ||
      result.survived.size() != n) {
    throw std::invalid_argument(
        "repair_apsp: result tables do not match the graph");
  }
  for (NodeId v = 0; v < n; ++v) {
    if (result.next_hop[v].size() != n) {
      throw std::invalid_argument(
          "repair_apsp: result tables do not match the graph");
    }
  }

  std::vector<NodeId> all_sources(n);
  for (NodeId v = 0; v < n; ++v) all_sources[v] = v;
  const DistEntryFn entry = [&result](NodeId v, NodeId s) {
    return result.dist.at(v, s);
  };

  RepairReport report;

  // 1. Take stock: the as-harvested coverage picture, then zero the rows of
  // crashed sources over the survivors. A dead source is unreachable in the
  // surviving subgraph, so all-infinite is its exact (and certifiable) row;
  // any stale finite entries are leftovers from before the crash.
  const std::vector<RowCoverage> before =
      classify_coverage(result.survived, all_sources, entry);
  add_coverage(report.coverage_before, before);
  for (NodeId s = 0; s < n; ++s) {
    if (result.survived[s] != 0) continue;
    for (NodeId v = 0; v < n; ++v) {
      if (result.survived[v] == 0) continue;
      result.dist.set(v, s, kInfDist);
      result.next_hop[v][s] = kNoNextHop;
    }
  }

  // 2. Find suspects among the surviving sources. Either the caller already
  // knows them (core/service.h's dirty-region analyzer hands them in — no
  // detection sweep at all), or every surviving row is put through the
  // distributed certificate and the failures are the suspects. Certifying
  // *all* surviving rows — not only coverage-complete ones — is what makes
  // repair idempotent: an exact-but-partial row (e.g. all-infinite entries
  // across a surviving cut) passes the certificate and is left alone on a
  // second repair instead of being blanket-suspected again; the certificate's
  // completeness (certify.h) guarantees no stale row slips through.
  CertifyOptions copts;
  copts.engine = sanitized(options.engine);
  std::vector<NodeId> suspects;
  if (options.suspects) {
    suspects = *options.suspects;
    std::sort(suspects.begin(), suspects.end());
    suspects.erase(std::unique(suspects.begin(), suspects.end()),
                   suspects.end());
    for (const NodeId s : suspects) {
      if (s >= n || result.survived[s] == 0) {
        throw std::invalid_argument(
            "repair_apsp: supplied suspect " + std::to_string(s) +
            (s >= n ? " is out of range" : " names a dead source"));
      }
    }
  } else {
    std::vector<NodeId> surviving;
    surviving.reserve(n);
    for (NodeId s = 0; s < n; ++s) {
      if (result.survived[s] != 0) surviving.push_back(s);
    }
    if (!surviving.empty()) {
      const CertifyReport pre =
          certify_rows(g, result.survived, surviving, entry, copts);
      for (std::size_t k = 0; k < surviving.size(); ++k) {
        if (pre.certified[k] == 0) suspects.push_back(surviving[k]);
      }
      fold_stats(report.stats, pre.stats);
    }
  }
  report.suspect_sources = suspects;
  report.rows_repaired = static_cast<std::uint32_t>(suspects.size());

  // Supplied-empty fast path: nothing to repair, and with certify_all off
  // nothing to certify either — return a zero-cost report (the convergence
  // contract service epochs with a clean dirty set rely on).
  if (suspects.empty() && options.suspects && !options.certify_all) {
    const std::vector<RowCoverage> after_now =
        classify_coverage(result.survived, all_sources, entry);
    add_coverage(report.coverage_after, after_now);
    result.coverage = after_now;
    return report;
  }

  // 3. Connected components of the surviving subgraph. Members are collected
  // ascending, so members[0] — the subgraph's node 0 after relabeling — is
  // the component's smallest surviving id, satisfying run_ssp's leader-is-
  // node-0 convention.
  constexpr std::uint32_t kNoComp = 0xffffffffu;
  std::vector<std::uint32_t> comp_of(n, kNoComp);
  std::vector<std::vector<NodeId>> comps;
  std::vector<NodeId> queue;
  for (NodeId r = 0; r < n; ++r) {
    if (result.survived[r] == 0 || comp_of[r] != kNoComp) continue;
    const auto ci = static_cast<std::uint32_t>(comps.size());
    comps.emplace_back();
    comp_of[r] = ci;
    queue.assign(1, r);
    while (!queue.empty()) {
      const NodeId v = queue.back();
      queue.pop_back();
      comps[ci].push_back(v);
      for (const NodeId w : g.neighbors(v)) {
        if (result.survived[w] == 0 || comp_of[w] != kNoComp) continue;
        comp_of[w] = ci;
        queue.push_back(w);
      }
    }
    std::sort(comps[ci].begin(), comps[ci].end());
  }

  std::vector<std::vector<NodeId>> comp_suspects(comps.size());
  for (const NodeId s : suspects) comp_suspects[comp_of[s]].push_back(s);

  // 4. Repair: re-run S-SP per component that owns suspects and merge the
  // deltas / parent indices back. Components repair independently (on the
  // real network they would run concurrently), so the repair's round cost is
  // the maximum over components, and each component is held to the paper's
  // O(|S| + D) bound.
  SspOptions sopts;
  sopts.engine = sanitized(options.engine);
  std::vector<NodeId> new_id(n, kNoComp);
  for (std::size_t ci = 0; ci < comps.size(); ++ci) {
    const std::vector<NodeId>& sc = comp_suspects[ci];
    if (sc.empty()) continue;
    const std::vector<NodeId>& members = comps[ci];

    if (members.size() == 1) {
      // An isolated survivor: its own row is trivially 0 at itself and
      // infinite elsewhere; no protocol needed (0 rounds, bound trivially
      // holds).
      const NodeId s = sc.front();
      for (NodeId v = 0; v < n; ++v) {
        if (result.survived[v] == 0) continue;
        result.dist.set(v, s, v == s ? 0 : kInfDist);
        result.next_hop[v][s] = kNoNextHop;
      }
      report.round_bound = std::max(
          report.round_bound, kRepairRoundC * 1 + kRepairRoundSlack);
      continue;
    }

    for (std::size_t i = 0; i < members.size(); ++i) {
      new_id[members[i]] = static_cast<NodeId>(i);
    }
    std::vector<Edge> sub_edges;
    for (const Edge& e : g.edges()) {
      if (comp_of[e.u] != ci || comp_of[e.v] != ci) continue;
      if (result.survived[e.u] == 0 || result.survived[e.v] == 0) continue;
      sub_edges.push_back(Edge{new_id[e.u], new_id[e.v]});
    }
    const Graph sub(static_cast<NodeId>(members.size()), sub_edges);

    std::vector<NodeId> sub_sources;
    sub_sources.reserve(sc.size());
    for (const NodeId s : sc) sub_sources.push_back(new_id[s]);

    const SspResult rc = run_ssp(sub, sub_sources, sopts);

    const std::uint64_t bound =
        kRepairRoundC * (sc.size() + rc.d0) + kRepairRoundSlack;
    report.round_bound = std::max(report.round_bound, bound);
    report.repair_rounds = std::max(report.repair_rounds, rc.stats.rounds);
    if (rc.stats.rounds > bound) report.bound_ok = false;
    fold_stats(report.stats, rc.stats);

    for (const NodeId s : sc) {
      const NodeId ns = new_id[s];
      for (NodeId v = 0; v < n; ++v) {
        if (result.survived[v] == 0) continue;
        if (comp_of[v] != ci) {
          // Other components cannot reach s on the surviving subgraph.
          result.dist.set(v, s, kInfDist);
          result.next_hop[v][s] = kNoNextHop;
          continue;
        }
        const NodeId nv = new_id[v];
        result.dist.set(v, s, rc.delta[nv][ns]);
        const std::uint32_t pi = rc.parent_index[nv][ns];
        result.next_hop[v][s] =
            pi == kNoParent ? kNoNextHop : members[sub.neighbors(nv)[pi]];
      }
    }
  }

  // 5. Re-certify — every row (crashed sources included, whose all-infinite
  // rows certify vacuously) by default, only the repaired rows in
  // incremental mode — and refresh the result's coverage picture.
  const std::vector<RowCoverage> after =
      classify_coverage(result.survived, all_sources, entry);
  add_coverage(report.coverage_after, after);
  result.coverage = after;
  const std::vector<NodeId>& cert_sources =
      options.certify_all ? all_sources : suspects;
  if (!cert_sources.empty()) {
    report.certificate =
        certify_rows(g, result.survived, cert_sources, entry, copts);
    fold_stats(report.stats, report.certificate.stats);
  }
  return report;
}

std::string RepairReport::debug_string() const {
  std::ostringstream os;
  os << "repair: rows=" << rows_repaired << " rounds=" << repair_rounds
     << " bound=" << round_bound
     << (bound_ok ? "" : " BOUND-EXCEEDED") << " certified="
     << certificate.rows_certified << "/" << certificate.certified.size()
     << " coverage(lost/partial/complete) " << coverage_before.count(0) << "/"
     << coverage_before.count(1) << "/" << coverage_before.count(2) << " -> "
     << coverage_after.count(0) << "/" << coverage_after.count(1) << "/"
     << coverage_after.count(2);
  return std::move(os).str();
}

}  // namespace dapsp::core
