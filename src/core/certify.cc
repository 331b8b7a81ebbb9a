#include "core/certify.h"

#include <algorithm>
#include <stdexcept>

#include "congest/message.h"
#include "core/primitives/bfs_process.h"

namespace dapsp::core {

const char* to_string(RowCoverage c) noexcept {
  switch (c) {
    case RowCoverage::kLost:
      return "lost";
    case RowCoverage::kPartial:
      return "partial";
    case RowCoverage::kComplete:
      return "complete";
  }
  return "?";
}

std::vector<RowCoverage> classify_coverage(
    std::span<const std::uint8_t> survived, std::span<const NodeId> sources,
    const DistEntryFn& entry) {
  const NodeId n = static_cast<NodeId>(survived.size());
  std::size_t survivors = 0;
  for (std::uint8_t s : survived) survivors += s != 0;

  std::vector<RowCoverage> out;
  out.reserve(sources.size());
  for (const NodeId s : sources) {
    if (s >= n) {
      throw std::invalid_argument("classify_coverage: source out of range");
    }
    std::size_t finite = 0;
    for (NodeId v = 0; v < n; ++v) {
      if (survived[v] != 0 && entry(v, s) != kInfDist) ++finite;
    }
    if (finite == survivors) {
      out.push_back(RowCoverage::kComplete);
    } else if (finite <= (survived[s] != 0 ? std::size_t{1} : std::size_t{0})) {
      // Only the source's own trivial 0 (or nothing at all) survives.
      out.push_back(RowCoverage::kLost);
    } else {
      out.push_back(RowCoverage::kPartial);
    }
  }
  return out;
}

namespace {

// One node of the distributed verifier. Round 2k: broadcast (k, value) for
// row k. Round 2k+1: judge row k against the neighborhood broadcast of the
// previous round. Dead nodes never run (crash-stopped at round 0), so their
// entries are neither offered nor demanded.
class CertifyProcess final : public congest::Process {
 public:
  CertifyProcess(NodeId id, std::span<const NodeId> sources,
                 const DistEntryFn& entry)
      : id_(id), sources_(sources.begin(), sources.end()) {
    values_.reserve(sources_.size());
    for (const NodeId s : sources_) values_.push_back(entry(id, s));
    row_ok_.assign(sources_.size(), 1);
  }

  void on_round(congest::RoundCtx& ctx) override {
    const std::uint64_t k = ctx.round() / 2;
    if (ctx.round() % 2 == 0) {
      if (k < sources_.size()) {
        const std::uint32_t inf = congest::wire_infinity(ctx.n());
        const std::uint32_t w =
            values_[k] == kInfDist ? inf : std::min(values_[k], inf);
        ctx.send_all(congest::Message::make(
            kCertValue, static_cast<std::uint32_t>(k), w));
      }
    } else if (k < sources_.size()) {
      judge_row(ctx, k);
      ++rows_judged_;
    }
  }

  bool done() const override { return rows_judged_ == sources_.size(); }

  std::span<const std::uint8_t> row_ok() const noexcept { return row_ok_; }
  std::uint64_t checks_failed() const noexcept { return checks_failed_; }

 private:
  static constexpr std::uint32_t kAbsent = 0xfffffffeu;

  void fail(std::uint64_t k) {
    row_ok_[k] = 0;
    ++checks_failed_;
  }

  void judge_row(congest::RoundCtx& ctx, std::uint64_t k) {
    const std::uint32_t inf = congest::wire_infinity(ctx.n());
    // Surviving neighbors' values, decoded; crashed neighbors stay kAbsent
    // (they sent nothing and are not part of the surviving subgraph).
    nbr_.assign(ctx.degree(), kAbsent);
    for (const congest::Received& r : ctx.inbox()) {
      if (r.msg.kind != kCertValue || r.msg.f[0] != k) continue;
      nbr_[r.from_index] = r.msg.f[1] == inf ? kInfDist : r.msg.f[1];
    }

    const NodeId s = sources_[k];
    const std::uint32_t d = values_[k];
    // (a) the source is the unique zero.
    if (id_ == s && d != 0) fail(k);
    if (id_ != s && d == 0) fail(k);
    // (b) 1-Lipschitz across every surviving edge; a finite/infinite
    // boundary is a violation (BFS reaches across edges).
    bool witness = false;
    for (const std::uint32_t du : nbr_) {
      if (du == kAbsent) continue;
      const bool fin_v = d != kInfDist;
      const bool fin_u = du != kInfDist;
      if (fin_v != fin_u) {
        fail(k);
        continue;
      }
      if (fin_v && fin_u) {
        if (d > du + 1 || du > d + 1) fail(k);
        if (du + 1 == d) witness = true;
      }
    }
    // (c) every finite non-source needs a neighbor one step closer.
    if (id_ != s && d != kInfDist && d != 0 && !witness) fail(k);
  }

  NodeId id_;
  std::vector<NodeId> sources_;
  std::vector<std::uint32_t> values_;
  std::vector<std::uint8_t> row_ok_;
  std::vector<std::uint32_t> nbr_;
  std::uint64_t checks_failed_ = 0;
  std::size_t rows_judged_ = 0;
};

}  // namespace

CertifyReport certify_rows(const Graph& g,
                           std::span<const std::uint8_t> survived,
                           std::span<const NodeId> sources,
                           const DistEntryFn& entry,
                           const CertifyOptions& options) {
  const NodeId n = g.num_nodes();
  if (survived.size() != n) {
    throw std::invalid_argument("certify_rows: survived must have one entry "
                                "per node");
  }
  for (const NodeId s : sources) {
    if (s >= n) throw std::invalid_argument("certify_rows: source out of range");
  }

  CertifyReport report;
  report.certified.assign(sources.size(), 1);
  if (sources.empty()) return report;

  congest::EngineConfig cfg = options.engine;
  congest::FaultPlan plan = cfg.faults.value_or(congest::FaultPlan{});
  for (NodeId v = 0; v < n; ++v) {
    if (survived[v] == 0) plan.crashes.push_back({v, 0});
  }
  if (!plan.crashes.empty()) cfg.faults = plan;

  congest::Engine engine(g, cfg);
  engine.init([&](NodeId v) {
    return std::make_unique<CertifyProcess>(v, sources, entry);
  });
  report.stats = engine.run();

  for (NodeId v = 0; v < n; ++v) {
    if (survived[v] == 0) continue;
    const auto& p = engine.process_as<CertifyProcess>(v);
    report.checks_failed += p.checks_failed();
    const auto ok = p.row_ok();
    for (std::size_t k = 0; k < ok.size(); ++k) {
      if (ok[k] == 0) report.certified[k] = 0;
    }
  }
  for (const std::uint8_t c : report.certified) report.rows_certified += c;
  return report;
}

}  // namespace dapsp::core
