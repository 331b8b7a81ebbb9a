// perfbench — the repository's end-to-end and per-layer benchmark program.
//
//   perfbench --workload <apsp_static|churn_repair|query_mix|landmarks_grid>
//             --seed <n> --seconds <s> --trace <0|1> [--work-dir <dir>]
//
// Every layer is measured from outside, by timing calls into the public
// functions of graph/, core/pebble_apsp, core/ssp, core/certify,
// core/service, core/repair, core/durable and core/query. A run sets up
// several times (setup_s is their median), then repeats whole passes of the
// workload until --seconds have elapsed. Outputs are checked against
// seq::bfs rows and seq/properties outside the timed regions; a mismatch is
// a failed operation. The last stdout line is one JSON object: with
// --trace 0 the end-to-end metrics, with --trace 1 the per-layer metrics,
// derived from spans kept in memory and written to <work-dir>/spans at exit.
// See README.md for the workloads, metrics and the layer -> end-to-end map.
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <exception>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/certify.h"
#include "core/durable.h"
#include "core/pebble_apsp.h"
#include "core/query.h"
#include "core/service.h"
#include "core/ssp.h"
#include "graph/delta.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "graph/io.h"
#include "seq/bfs.h"
#include "seq/properties.h"
#include "util/blob.h"
#include "util/rng.h"

namespace {

using namespace dapsp;
using Clock = std::chrono::steady_clock;
namespace fs = std::filesystem;

// ---- Options -------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir = ".bench_build/work";
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--work-dir <dir>]\n",
               why.c_str());
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage("missing value for " + a);
    const std::string v = argv[++i];
    if (a == "--workload") o.workload = v;
    else if (a == "--seed") o.seed = std::stoull(v);
    else if (a == "--seconds") o.seconds = std::stod(v);
    else if (a == "--trace") o.trace = v == "1";
    else if (a == "--work-dir") o.work_dir = v;
    else usage("unknown flag " + a);
  }
  if (o.workload.empty()) usage("--workload is required");
  if (!(o.seconds > 0)) usage("--seconds must be positive");
  return o;
}

// Independent seed streams per input, so changing one input's make-up does
// not shift the others.
std::uint64_t stream(std::uint64_t seed, std::uint64_t which) {
  Rng r(seed * 0x9e3779b97f4a7c15ULL + which);
  return r();
}

// ---- Tracing -------------------------------------------------------------
//
// Spans (name, start, end, parent, id) are recorded per thread into
// in-memory buffers only when --trace 1; they are written out at exit and
// reduced into the per-layer metrics. With tracing off a Span is two clock
// reads.

struct SpanRec {
  const char* name;
  std::int64_t start_ns;
  std::int64_t end_ns;
  std::int32_t parent;  // index into the same thread's buffer, -1 = root
  std::uint64_t id;     // pass, epoch or request id
};

class Tracer {
 public:
  struct Buffer {
    std::uint32_t thread = 0;
    std::vector<SpanRec> spans;
    std::vector<std::int32_t> stack;
  };

  void enable() { on_ = true; }
  bool on() const { return on_; }
  std::int64_t ns(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - t0_)
        .count();
  }

  Buffer& local() {
    thread_local Buffer* mine = nullptr;
    thread_local const Tracer* owner = nullptr;
    if (mine == nullptr || owner != this) {
      std::lock_guard<std::mutex> lock(mu_);
      buffers_.push_back(std::make_unique<Buffer>());
      buffers_.back()->thread = static_cast<std::uint32_t>(buffers_.size() - 1);
      mine = buffers_.back().get();
      owner = this;
    }
    return *mine;
  }

  // A span whose interval is known after the fact (e.g. step entry to a
  // sink callback); parented to the innermost open span of this thread.
  void add(const char* name, Clock::time_point start, Clock::time_point end,
           std::uint64_t id) {
    if (!on_) return;
    Buffer& b = local();
    b.spans.push_back({name, ns(start), ns(end),
                       b.stack.empty() ? -1 : b.stack.back(), id});
  }

  // Durations in seconds of every span called `name`.
  std::vector<double> durations(const std::string& name) const {
    std::vector<double> out;
    for (const auto& b : buffers_) {
      for (const SpanRec& s : b->spans) {
        if (name == s.name) out.push_back(1e-9 * double(s.end_ns - s.start_ns));
      }
    }
    return out;
  }

  // Writes every span as one JSON line with its self time, and returns the
  // summed self time per span name.
  std::map<std::string, double> write(const std::string& path) const {
    std::ofstream out(path);
    std::map<std::string, double> self_s;
    for (const auto& b : buffers_) {
      const std::vector<std::int64_t> self = self_ns(*b);
      for (std::size_t i = 0; i < b->spans.size(); ++i) {
        const SpanRec& s = b->spans[i];
        out << "{\"name\":\"" << s.name << "\",\"thread\":" << b->thread
            << ",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
            << ",\"self_ns\":" << self[i] << ",\"parent\":" << s.parent
            << ",\"id\":" << s.id << "}\n";
        self_s[s.name] += 1e-9 * double(self[i]);
      }
    }
    return self_s;
  }

 private:
  // A span's self time: its duration minus the part its direct children
  // cover.
  static std::vector<std::int64_t> self_ns(const Buffer& b) {
    std::vector<std::int64_t> self(b.spans.size());
    for (std::size_t i = 0; i < b.spans.size(); ++i) {
      const SpanRec& s = b.spans[i];
      self[i] += s.end_ns - s.start_ns;
      if (s.parent >= 0) {
        self[static_cast<std::size_t>(s.parent)] -= s.end_ns - s.start_ns;
      }
    }
    return self;
  }

  bool on_ = false;
  Clock::time_point t0_ = Clock::now();
  std::mutex mu_;  // guards buffers_ registration
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

Tracer g_tracer;

class Span {
 public:
  explicit Span(const char* name, std::uint64_t id = 0, bool record = true)
      : start_(Clock::now()) {
    if (record && g_tracer.on()) {
      buf_ = &g_tracer.local();
      idx_ = static_cast<std::int32_t>(buf_->spans.size());
      buf_->spans.push_back({name, g_tracer.ns(start_), 0,
                             buf_->stack.empty() ? -1 : buf_->stack.back(),
                             id});
      buf_->stack.push_back(idx_);
    }
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span() { stop(); }

  // Ends the span (idempotent); returns its duration in seconds.
  double stop() {
    if (elapsed_ < 0) {
      const Clock::time_point end = Clock::now();
      elapsed_ = std::chrono::duration<double>(end - start_).count();
      if (buf_ != nullptr) {
        buf_->spans[static_cast<std::size_t>(idx_)].end_ns = g_tracer.ns(end);
        buf_->stack.pop_back();
      }
    }
    return elapsed_;
  }
  Clock::time_point start() const { return start_; }

 private:
  Clock::time_point start_;
  double elapsed_ = -1;
  Tracer::Buffer* buf_ = nullptr;
  std::int32_t idx_ = -1;
};

// ---- Statistics and results ----------------------------------------------

double quantile(std::vector<double> v, double q) {  // nearest rank
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * double(v.size()));
  const std::size_t i = rank < 1 ? 0 : static_cast<std::size_t>(rank) - 1;
  return v[std::min(i, v.size() - 1)];
}
double median(const std::vector<double>& v) { return quantile(v, 0.5); }
double sum(const std::vector<double>& v) {
  double s = 0;
  for (const double x : v) s += x;
  return s;
}
double ratio(double a, double b) { return b > 0 ? a / b : 0; }

double thread_cpu_s() {
  timespec t{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &t);
  return double(t.tv_sec) + 1e-9 * double(t.tv_nsec);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}
double current_rss_mb() {
  std::ifstream in("/proc/self/statm");
  std::uint64_t size = 0, resident = 0;
  in >> size >> resident;
  return double(resident) * double(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

// Operations attempted and failed; prints the first few failures. A
// failure of an operation marked `known` is the documented stale-next-hop
// fault; any other failure makes the run incorrect.
class Checker {
 public:
  void expect(bool ok, const std::string& what, bool known = false) {
    ++attempted_;
    if (ok) return;
    ++failed_;
    if (!known && ++unexpected_ <= 5) {
      std::fprintf(stderr, "check failed: %s\n", what.c_str());
    }
  }
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  bool correct() const { return unexpected_ == 0; }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t unexpected_ = 0;
};

// CONGEST work timed from outside: wall seconds, node-steps (n x rounds),
// messages and bits of every engine run a workload times directly.
struct EngineTally {
  double seconds = 0;
  double node_steps = 0;
  double messages = 0;
  double bits = 0;
  double rounds = 0;
  void add(double s, NodeId n, const congest::RunStats& st) {
    seconds += s;
    node_steps += double(n) * double(st.rounds);
    messages += double(st.messages);
    bits += double(st.total_bits);
    rounds += double(st.rounds);
  }
};

// One pass of a workload: its timed stages, its epochs and its query
// batches. Rates and tail percentiles are taken per pass and printed as the
// median over passes, so one pass on a noisy stretch of the host cannot
// move them alone.
struct Pass {
  double seconds = 0;  // timed stages, summed (checks excluded)
  std::vector<double> epoch_s;
  std::vector<double> batch_s;
};

// Lookups answered and the time they took, over a window of consecutive
// batches (kWindow sequential batches, or one query_mix round).
struct Window {
  double lookups = 0;
  double seconds = 0;
  int batches = 0;
};
constexpr int kWindow = 50;

// Everything a workload measured; turned into the printed metrics.
struct Measured {
  std::vector<double> setup_s;
  std::vector<EngineTally> epoch_cost;  // CONGEST cost of each epoch
  std::vector<double> recover_s;
  std::vector<Pass> passes;
  std::vector<Window> windows;
  std::map<std::string, double> layer;  // per-layer values (see README)
  // Process high-water RSS at the end of the first pass. Later passes
  // reuse whatever heap the allocator kept, so the process-wide high-water
  // would depend on how many passes fit in the run.
  double peak_rss_mb = 0;

  Pass& pass() { return passes.back(); }
  void epoch(double s, const EngineTally& cost) {
    epoch_cost.push_back(cost);
    pass().epoch_s.push_back(s);
    pass().seconds += s;
  }
  void batch(double s, double lookups) {
    pass().batch_s.push_back(s);
    pass().seconds += s;
    if (windows.empty() || windows.back().batches == kWindow) {
      windows.emplace_back();
    }
    windows.back().lookups += lookups;
    windows.back().seconds += s;
    windows.back().batches += 1;
  }
};

bool elapsed(Clock::time_point t0, double seconds) {
  return std::chrono::duration<double>(Clock::now() - t0).count() >= seconds;
}

std::vector<std::uint8_t> all_ones(NodeId n) {
  return std::vector<std::uint8_t>(n, 1);
}
std::vector<NodeId> iota(NodeId n) {
  std::vector<NodeId> v(n);
  for (NodeId i = 0; i < n; ++i) v[i] = i;
  return v;
}

// "Graph in": the seeded generator's graph, written as an edge list and read
// back through graph/io, as a deployment loads its network.
Graph graph_in(const std::function<Graph()>& generate) {
  Span gen_span("graph.generate");
  const Graph generated = generate();
  gen_span.stop();
  const std::string text = io::to_edge_list(generated);
  Span s("graph.load");
  return io::from_edge_list(text);
}

// ---- Oracle checks -------------------------------------------------------

// Row s against seq::bfs: every distance equal, and every next hop a live
// neighbor at oracle distance minus one. `hop(v)` returns kNoNextHop where
// none is stored.
bool row_matches(const Graph& g, NodeId s, const seq::BfsResult& o,
                 const std::function<std::uint32_t(NodeId)>& dist,
                 const std::function<NodeId(NodeId)>& hop) {
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (dist(v) != o.dist[v]) return false;
    if (v == s || o.dist[v] == kInfDist) continue;
    const NodeId h = hop(v);
    if (h == core::kNoNextHop || h >= g.num_nodes() || !g.has_edge(v, h) ||
        o.dist[h] + 1 != o.dist[v]) {
      return false;
    }
  }
  return true;
}

// The first k (distance, id) pairs of the oracle row, u and unreachable
// nodes excluded — what k_nearest must return.
std::vector<std::pair<std::uint32_t, NodeId>> sorted_row(
    std::span<const std::uint32_t> row, NodeId u,
    std::span<const std::uint8_t> active, std::uint32_t k) {
  std::vector<std::pair<std::uint32_t, NodeId>> v;
  for (NodeId x = 0; x < row.size(); ++x) {
    if (x == u || row[x] == kInfDist || !active[x]) continue;
    v.push_back({row[x], x});
  }
  const std::size_t keep = std::min<std::size_t>(k, v.size());
  std::partial_sort(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(keep),
                    v.end());
  v.resize(keep);
  return v;
}

bool knn_matches(const core::KNearestAnswer& a,
                 std::span<const std::uint32_t> row, NodeId u,
                 std::span<const std::uint8_t> active, std::uint32_t k) {
  const auto want = sorted_row(row, u, active, k);
  if (a.truncated || a.nearest.size() != want.size()) return false;
  for (std::size_t i = 0; i < want.size(); ++i) {
    if (a.nearest[i].dist != want[i].first ||
        a.nearest[i].node != want[i].second) {
      return false;
    }
  }
  return true;
}

bool ecc_matches(const core::EccentricityAnswer& a,
                 std::span<const std::uint32_t> row,
                 std::span<const std::uint8_t> active) {
  std::uint32_t ecc = 0;
  for (NodeId x = 0; x < row.size(); ++x) {
    if (active[x] && row[x] != kInfDist) ecc = std::max(ecc, row[x]);
  }
  return !a.truncated && a.ecc == ecc;
}

// ---- Query requests --------------------------------------------------------

// One request's inputs: a p2p batch plus one k-nearest and one eccentricity
// source. Half of the pairs target a Zipf-hot source set (the row consulted
// by p2p is `to`), half are uniform, so how much work the pairs share varies.
struct Request {
  std::vector<std::pair<NodeId, NodeId>> pairs;
  NodeId knn_source = 0;
  NodeId ecc_source = 0;
};

std::vector<Request> make_requests(std::uint64_t seed, NodeId n,
                                   std::size_t count, std::size_t pairs) {
  Rng rng(seed);
  constexpr std::size_t kHot = 64;
  std::vector<NodeId> hot(kHot);
  for (NodeId& h : hot) h = static_cast<NodeId>(rng.below(n));
  std::vector<double> cdf(kHot);  // Zipf(1) over hot ranks
  double acc = 0;
  for (std::size_t i = 0; i < kHot; ++i) cdf[i] = acc += 1.0 / double(i + 1);
  for (double& c : cdf) c /= acc;
  std::vector<Request> out(count);
  for (Request& r : out) {
    r.pairs.resize(pairs);
    for (std::size_t i = 0; i < pairs; ++i) {
      const NodeId from = static_cast<NodeId>(rng.below(n));
      NodeId to = static_cast<NodeId>(rng.below(n));
      if (i % 2 == 0) {
        const double x = rng.uniform01();
        to = hot[static_cast<std::size_t>(
            std::lower_bound(cdf.begin(), cdf.end(), x) - cdf.begin())];
      }
      r.pairs[i] = {from, to};
    }
    r.knn_source = static_cast<NodeId>(rng.below(n));
    r.ecc_source = static_cast<NodeId>(rng.below(n));
  }
  return out;
}

constexpr std::uint32_t kNearestK = 16;

struct Answers {
  std::uint64_t sequence = 0;  // snapshot the request was answered from
  std::vector<core::QueryAnswer> p2p;
  core::KNearestAnswer knn;
  core::EccentricityAnswer ecc;
};

// One timed request: acquire, p2p batch, k-nearest, eccentricity. Returns
// its wall time; sub-spans are recorded when `record` (traced runs sample).
double serve(core::SnapshotReader& reader, const Request& req, Answers& out,
             std::uint64_t id, bool record) {
  Span span("request", id, record);
  core::SnapshotRef ref;
  {
    Span s("store.acquire", id, record);
    ref = reader.acquire();
  }
  out.sequence = ref->sequence();
  {
    Span s("query.p2p_batch", id, record);
    ref->p2p_batch(req.pairs, out.p2p);
  }
  {
    Span s("query.k_nearest", id, record);
    out.knn = ref->k_nearest(req.knn_source, kNearestK);
  }
  {
    Span s("query.eccentricity", id, record);
    out.ecc = ref->eccentricity(req.ecc_source);
  }
  ref.release();
  return span.stop();
}

// Checks one request's answers against an oracle distance function and
// activity mask. Cells of rows the snapshot discloses as stale are accepted
// (the status is the contract); active-ness must always agree.
bool answers_match(const Request& req, const Answers& a,
                   const core::QuerySnapshot& snap,
                   const std::function<std::span<const std::uint32_t>(NodeId)>&
                       oracle_row,
                   std::span<const std::uint8_t> active) {
  if (a.p2p.size() != req.pairs.size()) { std::fprintf(stderr,"DBG size\n"); return false; }
  for (std::size_t i = 0; i < req.pairs.size(); ++i) {
    const auto [from, to] = req.pairs[i];
    const core::QueryAnswer& q = a.p2p[i];
    const bool live = active[from] && active[to];
    if (q.active != live) { std::fprintf(stderr,"DBG active\n"); return false; }
    if (!live || q.status == core::RowStatus::kStale) continue;
    if (q.dist != oracle_row(to)[from]) { std::fprintf(stderr,"DBG dist %u %u %u %u st %d\n", from, to, q.dist, oracle_row(to)[from], int(q.status)); return false; }
  }
  const auto check_row = [&](NodeId u, auto&& fn) {
    if (!active[u] || snap.status(u) == core::RowStatus::kStale) return true;
    return fn(oracle_row(u));
  };
  return check_row(req.knn_source,
                   [&](std::span<const std::uint32_t> row) {
                     return knn_matches(a.knn, row, req.knn_source, active,
                                        kNearestK);
                   }) &&
         check_row(req.ecc_source, [&](std::span<const std::uint32_t> row) {
           return ecc_matches(a.ecc, row, active);
         });
}

void add_request_layers(Measured& m) {
  m.layer["store.acquire_ns"] = 1e9 * median(g_tracer.durations("store.acquire"));
  m.layer["query.k_nearest_us"] =
      1e6 * median(g_tracer.durations("query.k_nearest"));
  m.layer["query.eccentricity_us"] =
      1e6 * median(g_tracer.durations("query.eccentricity"));
}

// ---- apsp_static ---------------------------------------------------------

void run_apsp_static(const Options& o, Measured& m, Checker& chk) {
  constexpr NodeId kN = 2000;
  constexpr std::size_t kExtraEdges = 6001;  // average degree ~8
  constexpr std::size_t kBatches = 10000;    // query requests per pass
  constexpr std::size_t kCheckEvery = 500;
  const std::uint64_t gseed = stream(o.seed, 1);

  Graph g;
  for (int i = 0; i < 21; ++i) {
    Span s("setup");
    g = graph_in([&] { return gen::random_connected(kN, kExtraEdges, gseed); });
    m.setup_s.push_back(s.stop());
  }
  // Oracle aggregates, computed once, outside every timed region.
  const std::uint32_t want_diam = seq::diameter(g);
  const std::uint32_t want_rad = seq::radius(g);
  const std::uint32_t want_girth = seq::girth(g);
  const std::vector<Request> reqs =
      make_requests(stream(o.seed, 2), kN, 64, 1000);
  const std::vector<std::uint8_t> alive = all_ones(kN);
  const std::vector<NodeId> rows = iota(kN);
  const std::vector<core::RowStatus> exact(kN, core::RowStatus::kExact);
  const std::string snap_path = o.work_dir + "/apsp_static.dqry";

  core::SnapshotStore store;
  core::SnapshotReader reader(store);
  EngineTally pebble, cert;
  std::vector<double> encode_s, load_s, publish_s;
  std::vector<Answers> saved(kBatches / kCheckEvery);
  const Clock::time_point t0 = Clock::now();
  std::uint64_t pass = 0;
  Answers scratch;
  do {
    m.passes.emplace_back();
    Span epoch("epoch", pass);
    const double rss0 = current_rss_mb();
    core::ApspResult r;
    {
      Span s("pebble_apsp.run", pass);
      r = core::run_pebble_apsp(g);
      pebble.add(s.stop(), kN, r.stats);
    }
    if (pass == 0) {
      m.layer["pebble_apsp.bytes_per_pair"] =
          (peak_rss_mb() - rss0) * 1024.0 * 1024.0 / (double(kN) * kN);
    }
    core::CertifyReport cr;
    {
      Span s("certify.run", pass);
      cr = core::certify_rows(g, alive, rows, [&](NodeId v, NodeId src) {
        return r.dist.at(v, src);
      });
      cert.add(s.stop(), kN, cr.stats);
    }
    std::vector<std::uint8_t> blob;
    {
      Span s("query.encode", pass);
      blob = core::encode_query_snapshot_tables(r.dist, &r.next_hop, alive,
                                                exact, pass + 1, pass + 1,
                                                false);
      encode_s.push_back(s.stop());
    }
    std::unique_ptr<core::QuerySnapshot> snap;
    {
      Span s("query.load", pass);
      snap = std::make_unique<core::QuerySnapshot>(
          core::QuerySnapshot::from_blob(std::move(blob)));
      load_s.push_back(s.stop());
    }
    const core::QuerySnapshot* published = snap.get();
    {
      Span s("store.publish", pass);
      store.publish(std::move(snap));
      publish_s.push_back(s.stop());
    }
    EngineTally cost;
    cost.add(0, kN, r.stats);
    cost.add(0, kN, cr.stats);
    m.epoch(epoch.stop(), cost);

    for (std::size_t b = 0; b < kBatches; ++b) {
      Answers& a = b % kCheckEvery == 0 ? saved[b / kCheckEvery] : scratch;
      const Request& req = reqs[b % reqs.size()];
      m.batch(serve(reader, req, a, b, b % 16 == 0),
              double(req.pairs.size() + 2));
    }

    // ---- checks (untimed) ----
    for (NodeId s = 0; s < kN; ++s) {
      const seq::BfsResult ob = seq::bfs(g, s);
      chk.expect(row_matches(
                     g, s, ob, [&](NodeId v) { return r.dist.at(v, s); },
                     [&](NodeId v) { return r.next_hop[v][s]; }),
                 "apsp_static: row " + std::to_string(s));
    }
    chk.expect(cr.all_certified(), "apsp_static: certify_rows rejected rows");
    chk.expect(r.aggregates_valid && r.diameter == want_diam,
               "apsp_static: diameter");
    chk.expect(r.aggregates_valid && r.radius == want_rad,
               "apsp_static: radius");
    chk.expect(r.aggregates_valid && r.girth == want_girth,
               "apsp_static: girth");
    bool same = true;
    for (NodeId s = 0; s < kN && same; ++s) {
      for (NodeId v = 0; v < kN; ++v) {
        if (published->dist(v, s) != r.dist.at(v, s) ||
            published->next_hop(v, s) != r.next_hop[v][s]) {
          same = false;
          break;
        }
      }
    }
    chk.expect(same, "apsp_static: snapshot tables differ from APSP result");
    for (std::size_t i = 0; i < saved.size(); ++i) {
      const Request& req = reqs[(i * kCheckEvery) % reqs.size()];
      chk.expect(answers_match(req, saved[i], *published,
                               [&](NodeId s) { return r.dist.row(s); }, alive),
                 "apsp_static: query batch " + std::to_string(i * kCheckEvery));
    }
    r = core::ApspResult{};  // the pass's tables are not needed past here

    // Recovery: the published snapshot, persisted, is brought back by a
    // cold mmap + validate (what query_server does on start).
    write_blob_atomic(snap_path, published->bytes());
    double rec = 0;
    {
      Span s("recover", pass);
      const core::QuerySnapshot back = core::QuerySnapshot::from_file(snap_path);
      rec = s.stop();
      chk.expect(std::ranges::equal(back.bytes(), published->bytes()),
                 "apsp_static: recovered snapshot differs from published");
    }
    m.recover_s.push_back(rec);
    m.pass().seconds += rec;
    if (pass++ == 0) m.peak_rss_mb = peak_rss_mb();
  } while (!elapsed(t0, o.seconds));

  m.layer["pebble_apsp.run_s"] = pebble.seconds / double(pass);
  m.layer["engine.msgs_per_s"] =
      ratio(pebble.messages + cert.messages, pebble.seconds + cert.seconds);
  m.layer["engine.ns_per_node_step"] =
      1e9 * ratio(pebble.seconds + cert.seconds,
                  pebble.node_steps + cert.node_steps);
  m.layer["certify.run_s"] = cert.seconds / double(pass);
  m.layer["certify.msgs_per_s"] = ratio(cert.messages, cert.seconds);
  m.layer["query.encode_ms"] = 1e3 * median(encode_s);
  m.layer["query.load_ms"] = 1e3 * median(load_s);
  m.layer["store.publish_us"] = 1e6 * median(publish_s);
  const std::vector<double> p2p = g_tracer.durations("query.p2p_batch");
  m.layer["query.p2p_ns"] = 1e9 * ratio(sum(p2p), 1000.0 * double(p2p.size()));
  m.layer["store.swaps"] = double(store.swaps());
  m.layer["store.retired_pending_max"] = double(store.retired_pending());
  add_request_layers(m);
}

// ---- churn_repair --------------------------------------------------------

// Times the service's two publish points and the "analyze" interval (step
// entry to the degraded mid-epoch publish) from outside the service.
class TimedPublisher final : public core::SnapshotSink {
 public:
  explicit TimedPublisher(core::SnapshotStore& store) : inner_(store) {}
  void on_snapshot(const core::DapspService& svc, bool degraded) override {
    const Clock::time_point now = Clock::now();
    if (epoch_start_ && degraded) {
      g_tracer.add("service.analyze", *epoch_start_, now, epoch_id_);
      analyze_s.push_back(std::chrono::duration<double>(now - *epoch_start_)
                              .count());
    }
    Span s("service.publish", epoch_id_, epoch_start_.has_value());
    inner_.on_snapshot(svc, degraded);
    const double t = s.stop();
    if (epoch_start_) publish_s_in_epoch += t;
  }
  void begin_epoch(Clock::time_point t, std::uint64_t id) {
    epoch_start_ = t;
    epoch_id_ = id;
    publish_s_in_epoch = 0;
  }
  void end_epoch() { epoch_start_.reset(); }

  std::vector<double> analyze_s;
  double publish_s_in_epoch = 0;

 private:
  core::ServingPublisher inner_;
  std::optional<Clock::time_point> epoch_start_;
  std::uint64_t epoch_id_ = 0;
};

// Pass-through repair gate that times the repair ladder: allow_repair() to
// on_repair_outcome().
class TimedGate final : public core::RepairGate {
 public:
  bool allow_repair(std::uint64_t) override {
    start_ = Clock::now();
    return true;
  }
  void on_repair_outcome(std::uint64_t epoch, bool) override {
    if (!start_) return;  // a scrub reports without asking first
    const Clock::time_point now = Clock::now();
    if (recording) {
      g_tracer.add("repair.ladder", *start_, now, epoch);
      ladder_s.push_back(std::chrono::duration<double>(now - *start_).count());
    }
    start_.reset();
  }
  std::uint8_t state() const override { return 0; }

  bool recording = false;
  std::vector<double> ladder_s;

 private:
  std::optional<Clock::time_point> start_;
};

// A fixed instance (independent of --seed) of the stale-next-hop fault: an
// edge removal keeps row s clean when the downstream node still has a parent
// at the same distance, but served_next_hop keeps pointing over the removed
// edge while the row stays exact. Every route of every certified row is
// followed for four epochs; each route is one operation.
void stale_hop_routes(Checker& chk, bool& reported) {
  const Graph g0 = gen::random_connected(128, 384, 42);
  core::DapspService svc(g0);
  DeltaPlanConfig pc;
  pc.seed = 7;
  pc.w_join = 0;
  pc.w_leave = 0;
  DeltaPlan plan(pc);
  for (std::uint64_t epoch = 1; epoch <= 4; ++epoch) {
    svc.step(plan.next(svc.dynamic_graph()));
    const Graph cur = svc.dynamic_graph().snapshot();
    const auto& hops = svc.served_next_hop();
    for (NodeId s = 0; s < cur.num_nodes(); ++s) {
      if (!svc.dynamic_graph().active(s) ||
          svc.row_status(s) == core::RowStatus::kStale) {
        continue;
      }
      const seq::BfsResult o = seq::bfs(cur, s);
      for (NodeId v = 0; v < cur.num_nodes(); ++v) {
        if (v == s || !svc.dynamic_graph().active(v)) continue;
        NodeId x = v;
        std::uint32_t len = 0;
        bool ok = true;
        while (x != s && ok) {
          const NodeId h = hops[x][s];
          ok = h < cur.num_nodes() && cur.has_edge(x, h) &&
               len < cur.num_nodes();
          if (!ok && !reported) {
            std::fprintf(stderr,
                         "stale next hop: epoch %llu row %u v %u hop %u->%u "
                         "(not a live edge)\n",
                         static_cast<unsigned long long>(epoch), s, v, x, h);
            reported = true;
          }
          x = h;
          ++len;
        }
        chk.expect(ok && len == o.dist[v], "route", /*known=*/true);
      }
    }
  }
}

void run_churn_repair(const Options& o, Measured& m, Checker& chk) {
  constexpr NodeId kN = 256;
  constexpr std::size_t kExtraEdges = 768;  // average degree ~8
  // Per pass: checkpoints rotate every 16 epochs, and 4 epochs after each
  // rotation the service is dropped as after a crash and recovered cold
  // from its directory (replaying those 4 journal batches). Short replay
  // windows keep recover_s from hinging on whether one window happens to
  // hold an escalated epoch.
  constexpr std::uint32_t kEpochs = 112;
  constexpr std::uint32_t kRotateEvery = 16;
  constexpr std::uint32_t kRecoverAt = 4;
  constexpr std::size_t kBatchesPerEpoch = 10;
  constexpr std::size_t kPairs = 256;
  const std::uint64_t gseed = stream(o.seed, 1);

  core::SnapshotStore store;
  TimedPublisher sink(store);
  TimedGate gate;
  core::DurableConfig dc;
  dc.checkpoint_every = 0;  // rotations are explicit, every kRotateEvery
  dc.service.snapshot_sink = &sink;
  dc.service.repair_gate = &gate;

  Graph g;
  std::optional<core::DurableDapspService> d;
  for (int i = 0; i < 3; ++i) {
    d.reset();
    dc.dir = o.work_dir + "/churn" + std::to_string(i);
    fs::remove_all(dc.dir);
    Span s("setup");
    g = graph_in([&] { return gen::random_connected(kN, kExtraEdges, gseed); });
    d.emplace(g, dc);
    m.setup_s.push_back(s.stop());
  }

  // Memory is read after set-up here: an epoch adds memory only when its
  // repair runs S-SP from many sources, so a later high-water would record
  // the largest dirty region the seed happened to produce.
  m.peak_rss_mb = peak_rss_mb();

  DeltaPlanConfig pc;
  pc.seed = stream(o.seed, 3);
  pc.max_batch = 1;
  DeltaPlan plan(pc);
  const std::vector<Request> reqs =
      make_requests(stream(o.seed, 2), kN, 64, kPairs);
  core::SnapshotReader reader(store);
  bool reported = false;

  std::vector<double> step_s, publish_s, ckpt_s;
  std::vector<double> encode_s, load_s, store_publish_s;
  core::SnapshotStore probe_store;
  double rounds = 0, messages = 0, suspects = 0, attempts = 0;
  double certified_repairs = 0, escalated = 0, replayed = 0;
  double journal_bytes = 0, recoveries = 0;
  std::uint64_t total_epochs = 0;
  // Drops the live service right after its last ack and recovers it from
  // the same directory; the run continues on the recovered service.
  const auto crash_and_recover = [&] {
    const std::vector<std::uint8_t> want =
        d->service().checkpoint_blob(d->plan_words());
    journal_bytes += double(d->durable_stats().journal_bytes);
    d.reset();
    core::RecoveryReport rr;
    {
      Span s("durable.recover", total_epochs);
      d.emplace(core::DurableDapspService::recover(dc, &g, &rr));
      const double t = s.stop();
      m.recover_s.push_back(t);
      m.pass().seconds += t;
    }
    replayed += double(rr.batches_replayed);
    recoveries += 1;
    chk.expect(d->service().checkpoint_blob(d->plan_words()) == want,
               "churn_repair: recovered checkpoint differs from live service");
  };
  const Clock::time_point t0 = Clock::now();
  std::uint64_t pass = 0;
  std::vector<Answers> answers(kBatchesPerEpoch);
  do {
    m.passes.emplace_back();
    for (std::uint32_t e = 0; e < kEpochs; ++e) {
      const ChurnBatch batch = plan.next(d->service().dynamic_graph());
      const std::uint64_t words[3] = {plan.rng_state(),
                                      plan.batches_generated(),
                                      total_epochs + 1};
      core::EpochReport rep;
      {
        Span s("epoch", total_epochs);
        sink.begin_epoch(s.start(), total_epochs);
        gate.recording = true;
        rep = d->ack_and_step(batch, words);
        gate.recording = false;
        sink.end_epoch();
        const double t = s.stop();
        EngineTally cost;
        cost.add(0, kN, rep.stats);
        m.epoch(t, cost);
        step_s.push_back(t);
        publish_s.push_back(sink.publish_s_in_epoch);
      }
      ++total_epochs;
      rounds += double(rep.stats.rounds);
      messages += double(rep.stats.messages);
      suspects += rep.suspect_rows;
      if (rep.outcome != core::EpochOutcome::kClean && rep.certified) {
        attempts += rep.attempts;
        certified_repairs += 1;
      }
      escalated += rep.escalated ? 1 : 0;
      if ((e + 1) % kRotateEvery == 0) {
        Span s("durable.checkpoint", total_epochs);
        d->rotate_checkpoint();
        const double t = s.stop();
        ckpt_s.push_back(t);
        m.pass().seconds += t;
      }
      for (std::size_t b = 0; b < kBatchesPerEpoch; ++b) {
        const std::size_t idx = total_epochs * kBatchesPerEpoch + b;
        const Request& req = reqs[idx % reqs.size()];
        m.batch(serve(reader, req, answers[b], idx, b == 0),
                double(req.pairs.size() + 2));
      }

      // Traced runs only, untimed: the encode / load / publish split that
      // ServingPublisher::on_snapshot hides, re-run on the same state.
      if (g_tracer.on()) {
        std::vector<std::uint8_t> blob;
        {
          Span s("query.encode", total_epochs);
          blob = core::encode_query_snapshot(d->service(), total_epochs, false);
          encode_s.push_back(s.stop());
        }
        std::unique_ptr<core::QuerySnapshot> snap;
        {
          Span s("query.load", total_epochs);
          snap = std::make_unique<core::QuerySnapshot>(
              core::QuerySnapshot::from_blob(std::move(blob)));
          load_s.push_back(s.stop());
        }
        Span s("store.publish", total_epochs);
        probe_store.publish(std::move(snap));
        store_publish_s.push_back(s.stop());
      }

      // ---- checks (untimed): every published row and batch vs seq::bfs ----
      core::SnapshotRef ref = reader.acquire();
      const core::QuerySnapshot& snap = *ref;
      const DynamicGraph& dg = d->service().dynamic_graph();
      const Graph cur = dg.snapshot();
      std::vector<std::vector<std::uint32_t>> oracle(kN);
      for (NodeId s = 0; s < kN; ++s) {
        if (dg.active(s)) oracle[s] = seq::bfs(cur, s).dist;
      }
      for (NodeId s = 0; s < kN; ++s) {
        bool ok = snap.active(s) == dg.active(s);
        if (ok && dg.active(s) && snap.status(s) != core::RowStatus::kStale) {
          for (NodeId v = 0; v < kN && ok; ++v) {
            const std::uint32_t want = dg.active(v) ? oracle[s][v] : kInfDist;
            if (dg.active(v)) ok = snap.dist(v, s) == want;
          }
        }
        chk.expect(ok, "churn_repair: epoch " + std::to_string(total_epochs) +
                           " row " + std::to_string(s));
      }
      for (std::size_t b = 0; b < kBatchesPerEpoch; ++b) {
        const std::size_t idx = total_epochs * kBatchesPerEpoch + b;
        chk.expect(answers[b].sequence == snap.sequence() &&
                       answers_match(reqs[idx % reqs.size()], answers[b], snap,
                                     [&](NodeId s) {
                                       return std::span<const std::uint32_t>(
                                           oracle[s]);
                                     },
                                     dg.active_mask()),
                   "churn_repair: epoch " + std::to_string(total_epochs) +
                       " batch " + std::to_string(b));
      }
      if ((e + 1) % kRotateEvery == kRecoverAt) crash_and_recover();
    }

    stale_hop_routes(chk, reported);
    ++pass;
  } while (!elapsed(t0, o.seconds));

  journal_bytes += double(d->durable_stats().journal_bytes);
  const double epochs = double(total_epochs);
  m.layer["service.step_ms"] = 1e3 * median(step_s);
  m.layer["service.publish_ms"] = 1e3 * median(publish_s);
  m.layer["service.analyze_ms"] = 1e3 * median(sink.analyze_s);
  m.layer["repair.ladder_ms"] = 1e3 * median(gate.ladder_s);
  m.layer["repair.rounds_per_epoch"] = rounds / epochs;
  m.layer["repair.messages_per_epoch"] = messages / epochs;
  m.layer["repair.suspect_rows_per_epoch"] = suspects / epochs;
  m.layer["repair.attempts_per_certified_epoch"] =
      ratio(attempts, certified_repairs);
  m.layer["repair.escalated_epochs"] = escalated / double(pass);
  m.layer["engine.msgs_per_s"] = ratio(messages, sum(gate.ladder_s));
  m.layer["engine.ns_per_node_step"] =
      1e9 * ratio(sum(gate.ladder_s), double(kN) * rounds);
  m.layer["durable.checkpoint_ms"] = 1e3 * median(ckpt_s);
  m.layer["query.encode_ms"] = 1e3 * median(encode_s);
  m.layer["query.load_ms"] = 1e3 * median(load_s);
  m.layer["store.publish_us"] = 1e6 * median(store_publish_s);
  m.layer["journal.bytes_per_epoch"] = journal_bytes / epochs;
  m.layer["durable.replayed_batches"] = replayed / recoveries;
  m.layer["store.swaps"] = double(store.swaps());
  m.layer["store.retired_pending_max"] = double(store.retired_pending());
  const std::vector<double> p2p = g_tracer.durations("query.p2p_batch");
  m.layer["query.p2p_ns"] =
      1e9 * ratio(sum(p2p), double(kPairs) * double(p2p.size()));
  add_request_layers(m);
}

// ---- query_mix -----------------------------------------------------------

void run_query_mix(const Options& o, Measured& m, Checker& chk) {
  constexpr NodeId kN = 2000;
  constexpr std::size_t kExtraEdges = 6001;
  constexpr int kSnapshots = 3;
  constexpr int kReaders = 2;
  constexpr std::size_t kRequests = 32768;  // per reader per round
  constexpr std::size_t kCheckEvery = 61;   // coprime to the 64-request pool
  constexpr std::size_t kCertifyRows = 8;
  // The writer's schedule: an epoch after every kWriterEvery requests of
  // reader 0 (the first after kWriterEvery / 4), so every round sees the
  // same number of swaps whatever the host's speed.
  constexpr std::size_t kWriterEvery = 4096;

  // Set-up: a seeded base graph and two versions of it with a few extra
  // edges, their tables from seq::bfs, encoded and written as DQRY files.
  std::vector<Graph> graphs;
  std::vector<DistanceMatrix> oracle;
  std::vector<std::string> paths;
  for (int rep = 0; rep < 3; ++rep) {
    graphs.clear();
    oracle.clear();
    paths.clear();
    Span setup("setup");
    const Graph base = graph_in(
        [&] { return gen::random_connected(kN, kExtraEdges, stream(o.seed, 1)); });
    Rng erng(stream(o.seed, 4));
    std::vector<Edge> edges(base.edges().begin(), base.edges().end());
    for (int k = 0; k < kSnapshots; ++k) {
      if (k > 0) {
        for (int add = 0; add < 16; ++add) {
          edges.push_back({static_cast<NodeId>(erng.below(kN / 2)),
                           static_cast<NodeId>(kN / 2 + erng.below(kN / 2))});
        }
        std::sort(edges.begin(), edges.end(), [](const Edge& a, const Edge& b) {
          return std::pair(a.u, a.v) < std::pair(b.u, b.v);
        });
        edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
      }
      graphs.emplace_back(kN, edges);
      const Graph& gk = graphs.back();
      DistanceMatrix dist(kN);
      std::vector<std::vector<NodeId>> hop(kN, std::vector<NodeId>(kN));
      for (NodeId s = 0; s < kN; ++s) {
        const seq::BfsResult b = seq::bfs(gk, s);
        for (NodeId v = 0; v < kN; ++v) {
          dist.set(v, s, b.dist[v]);
          hop[v][s] = v == s ? core::kNoNextHop : b.parent[v];
        }
      }
      const std::vector<core::RowStatus> exact(kN, core::RowStatus::kExact);
      const std::vector<std::uint8_t> blob = core::encode_query_snapshot_tables(
          dist, &hop, all_ones(kN), exact, std::uint64_t(k), std::uint64_t(k),
          false);
      paths.push_back(o.work_dir + "/query_mix" + std::to_string(k) + ".dqry");
      write_blob_atomic(paths.back(), blob);
      oracle.push_back(std::move(dist));
    }
    m.setup_s.push_back(setup.stop());
  }

  core::SnapshotStore store;
  store.publish(std::make_unique<core::QuerySnapshot>(
      core::QuerySnapshot::from_file(paths[0])));
  std::vector<std::vector<Request>> reqs;
  for (int r = 0; r < kReaders; ++r) {
    reqs.push_back(make_requests(stream(o.seed, 10 + std::uint64_t(r)), kN, 64,
                                 1000));
  }
  // The reference snapshots the checks read statuses from.
  std::vector<core::QuerySnapshot> refs;
  for (const std::string& p : paths) {
    refs.push_back(core::QuerySnapshot::from_file(p));
  }

  const std::vector<std::uint8_t> alive = all_ones(kN);
  std::vector<double> load_s, publish_s, certify_s;
  double cert_msgs = 0, cert_steps = 0;
  double retired_max = 0;
  std::uint64_t next_snapshot = 1, writer_epoch = 0;
  Rng cert_rng(stream(o.seed, 5));
  const Clock::time_point t0 = Clock::now();
  std::uint64_t pass = 0;
  do {
    Pass& round = m.passes.emplace_back();
    std::atomic<bool> stop{false};
    std::atomic<std::size_t> progress{0};  // requests reader 0 completed
    std::vector<std::vector<double>> lat(kReaders);
    std::vector<std::vector<Answers>> saved(
        kReaders,
        std::vector<Answers>((kRequests + kCheckEvery - 1) / kCheckEvery));
    std::vector<std::uint8_t> cert_ok;
    const Clock::time_point round_start = Clock::now();

    // Writer: on its schedule, maps and validates the next snapshot
    // (checksum, then certify_rows over a seeded row sample on the CONGEST
    // engine) and publishes it. Readers are never blocked by it.
    std::thread writer([&] {
      for (std::size_t mark = kWriterEvery / 4; mark < kRequests;
           mark += kWriterEvery) {
        while (progress.load(std::memory_order_relaxed) < mark &&
               !stop.load(std::memory_order_relaxed)) {
          std::this_thread::sleep_for(std::chrono::microseconds(100));
        }
        if (stop.load(std::memory_order_relaxed)) break;
        const int k = int(next_snapshot++ % kSnapshots);
        Span ep("epoch", writer_epoch);
        const double cpu0 = thread_cpu_s();
        std::unique_ptr<core::QuerySnapshot> snap;
        {
          Span s("query.load", writer_epoch);
          snap = std::make_unique<core::QuerySnapshot>(
              core::QuerySnapshot::from_file(paths[std::size_t(k)]));
          load_s.push_back(s.stop());
        }
        std::vector<NodeId> sample;
        while (sample.size() < kCertifyRows) {
          const NodeId x = static_cast<NodeId>(cert_rng.below(kN));
          if (std::find(sample.begin(), sample.end(), x) == sample.end()) {
            sample.push_back(x);
          }
        }
        std::sort(sample.begin(), sample.end());
        core::CertifyReport cr;
        {
          Span s("certify.run", writer_epoch);
          const core::QuerySnapshot* sp = snap.get();
          cr = core::certify_rows(graphs[std::size_t(k)], alive, sample,
                                  [sp](NodeId v, NodeId src) {
                                    return sp->dist(v, src);
                                  });
          certify_s.push_back(s.stop());
        }
        cert_ok.push_back(cr.all_certified() ? 1 : 0);
        {
          Span s("store.publish", writer_epoch);
          store.publish(std::move(snap));
          publish_s.push_back(s.stop());
        }
        retired_max = std::max(retired_max, double(store.retired_pending()));
        EngineTally cost;
        cost.add(0, kN, cr.stats);
        // Writer epochs are timed in the writer's CPU time: with three busy
        // threads on four shared vCPUs, its wall time mostly measures when
        // the host let it run. round.seconds is set to the wall below.
        ep.stop();
        m.epoch(thread_cpu_s() - cpu0, cost);
        cert_msgs += double(cr.stats.messages);
        cert_steps += double(kN) * double(cr.stats.rounds);
        ++writer_epoch;
      }
    });
    std::vector<std::thread> readers;
    for (int r = 0; r < kReaders; ++r) {
      readers.emplace_back([&, r] {
        core::SnapshotReader reader(store);
        std::vector<double>& my = lat[std::size_t(r)];
        my.reserve(kRequests);
        Answers scratch;
        for (std::size_t i = 0; i < kRequests; ++i) {
          Answers& a = i % kCheckEvery == 0
                           ? saved[std::size_t(r)][i / kCheckEvery]
                           : scratch;
          my.push_back(serve(reader, reqs[std::size_t(r)][i % 64], a,
                             pass * kRequests + i, i % 16 == 0));
          if (r == 0) progress.store(i + 1, std::memory_order_relaxed);
        }
      });
    }
    for (std::thread& t : readers) t.join();
    const double wall =
        std::chrono::duration<double>(Clock::now() - round_start).count();
    stop.store(true);
    writer.join();

    round.seconds = wall;
    Window& w = m.windows.emplace_back();
    w.seconds = wall;
    for (int r = 0; r < kReaders; ++r) {
      for (const double t : lat[std::size_t(r)]) round.batch_s.push_back(t);
      w.lookups +=
          double(kRequests) * double(reqs[std::size_t(r)][0].pairs.size() + 2);
    }

    // ---- checks (untimed) ----
    for (const std::uint8_t ok : cert_ok) {
      chk.expect(ok != 0, "query_mix: certify_rows rejected a snapshot row");
    }
    for (int r = 0; r < kReaders; ++r) {
      for (std::size_t i = 0; i < saved[std::size_t(r)].size(); ++i) {
        const Answers& a = saved[std::size_t(r)][i];
        const std::size_t k = a.sequence;
        chk.expect(k < oracle.size() &&
                       answers_match(
                           reqs[std::size_t(r)][(i * kCheckEvery) % 64], a,
                           refs[k],
                           [&](NodeId s) { return oracle[k].row(s); }, alive),
                   "query_mix: reader " + std::to_string(r) + " request " +
                       std::to_string(i * kCheckEvery));
      }
    }
    if (pass++ == 0) m.peak_rss_mb = peak_rss_mb();
  } while (!elapsed(t0, o.seconds));

  // The snapshots' own tables are checked against seq::bfs once per run.
  for (std::size_t k = 0; k < refs.size(); ++k) {
    for (NodeId s = 0; s < kN; s += 97) {
      const seq::BfsResult ob = seq::bfs(graphs[k], s);
      chk.expect(row_matches(
                     graphs[k], s, ob,
                     [&](NodeId v) { return refs[k].dist(v, s); },
                     [&](NodeId v) { return refs[k].next_hop(v, s); }),
                 "query_mix: snapshot row");
    }
  }

  // Recovery: a cold mmap + validate of one snapshot file, several times.
  for (int i = 0; i < 5; ++i) {
    Span s("recover");
    const core::QuerySnapshot back = core::QuerySnapshot::from_file(paths[0]);
    m.recover_s.push_back(s.stop());
    chk.expect(std::ranges::equal(back.bytes(), refs[0].bytes()),
               "query_mix: reloaded snapshot differs");
  }

  m.layer["query.load_ms"] = 1e3 * median(load_s);
  m.layer["store.publish_us"] = 1e6 * median(publish_s);
  m.layer["certify.run_s"] = median(certify_s);
  m.layer["certify.msgs_per_s"] = ratio(cert_msgs, sum(certify_s));
  m.layer["engine.msgs_per_s"] = ratio(cert_msgs, sum(certify_s));
  m.layer["engine.ns_per_node_step"] = 1e9 * ratio(sum(certify_s), cert_steps);
  m.layer["store.swaps"] = double(store.swaps());
  m.layer["store.retired_pending_max"] = retired_max;
  const std::vector<double> p2p = g_tracer.durations("query.p2p_batch");
  m.layer["query.p2p_ns"] = 1e9 * ratio(sum(p2p), 1000.0 * double(p2p.size()));
  add_request_layers(m);
}

// ---- landmarks_grid ------------------------------------------------------

void run_landmarks_grid(const Options& o, Measured& m, Checker& chk) {
  constexpr NodeId kSide = 64;
  constexpr NodeId kN = kSide * kSide;
  constexpr std::size_t kLandmarks = 4;
  constexpr int kSets = 3;  // seeded landmark sets per pass
  constexpr std::size_t kBatches = 2000;  // estimate batches per set
  constexpr std::size_t kPairs = 1000;

  Graph g;
  for (int i = 0; i < 21; ++i) {
    Span s("setup");
    g = graph_in([&] { return gen::grid(kSide, kSide); });
    m.setup_s.push_back(s.stop());
  }
  Rng rng(stream(o.seed, 6));
  std::vector<std::vector<NodeId>> sets(kSets);
  for (auto& set : sets) {
    while (set.size() < kLandmarks) {
      const NodeId x = static_cast<NodeId>(rng.below(kN));
      if (std::find(set.begin(), set.end(), x) == set.end()) set.push_back(x);
    }
    std::sort(set.begin(), set.end());
  }
  constexpr std::size_t kPairBlocks = 64;
  std::vector<std::pair<NodeId, NodeId>> pairs(kPairs * kPairBlocks);
  for (auto& p : pairs) {
    p = {static_cast<NodeId>(rng.below(kN)), static_cast<NodeId>(rng.below(kN))};
  }
  std::vector<std::vector<std::uint32_t>> oracle;  // per set, per landmark
  for (const auto& set : sets) {
    for (const NodeId s : set) oracle.push_back(seq::bfs(g, s).dist);
  }

  const std::vector<std::uint8_t> alive = all_ones(kN);
  EngineTally ssp, cert;
  std::vector<double> rss_growth;
  std::vector<std::uint32_t> est(kPairs);
  std::uint64_t epoch = 0;
  // One landmark set: S-SP, then certify its rows (the timed epoch).
  const auto certified_ssp = [&](const std::vector<NodeId>& set,
                                 std::uint64_t id, core::SspResult& r,
                                 core::CertifyReport& cr) {
    const double rss0 = current_rss_mb();
    {
      Span s("ssp.run", id);
      r = core::run_ssp(g, set);
      ssp.add(s.stop(), kN, r.stats);
    }
    if (rss_growth.empty()) rss_growth.push_back(peak_rss_mb() - rss0);
    Span s("certify.run", id);
    cr = core::certify_rows(g, alive, set, [&](NodeId v, NodeId src) {
      return r.delta[v][src];
    });
    cert.add(s.stop(), kN, cr.stats);
  };

  const Clock::time_point t0 = Clock::now();
  std::uint64_t pass = 0;
  do {
    m.passes.emplace_back();
    for (int k = 0; k < kSets; ++k) {
      const std::vector<NodeId>& set = sets[std::size_t(k)];
      core::SspResult r;
      core::CertifyReport cr;
      {
        Span ep("epoch", epoch);
        certified_ssp(set, epoch, r, cr);
        const double t = ep.stop();
        EngineTally cost;
        cost.add(0, kN, r.stats);
        cost.add(0, kN, cr.stats);
        m.epoch(t, cost);
      }
      // Landmark distance estimates, min over landmarks s of
      // d(u, s) + d(s, v), served straight from the S-SP result's tables:
      // random rows of the n x n harvest, so the batches are bound by
      // memory latency and move with the tables' layout.
      for (std::size_t b = 0; b < kBatches; ++b) {
        const std::size_t off = (b % kPairBlocks) * kPairs;
        Span s("estimate_batch", b, b % 16 == 0);
        for (std::size_t i = 0; i < kPairs; ++i) {
          const auto [u, v] = pairs[off + i];
          std::uint32_t best = kInfDist;
          for (const NodeId x : set) {
            best = std::min(best, sat_add_dist(r.delta[u][x], r.delta[v][x]));
          }
          est[i] = best;
        }
        m.batch(s.stop(), double(kPairs));
        if (b < kPairBlocks) {  // untimed check of each distinct batch
          bool ok = true;
          for (std::size_t i = 0; i < kPairs && ok; ++i) {
            const auto [u, v] = pairs[off + i];
            std::uint32_t want = kInfDist;
            for (std::size_t j = 0; j < kLandmarks; ++j) {
              const auto& row = oracle[std::size_t(k) * kLandmarks + j];
              want = std::min(want, sat_add_dist(row[u], row[v]));
            }
            ok = est[i] == want;
          }
          chk.expect(ok, "landmarks_grid: estimate batch");
        }
      }

      // ---- checks (untimed) ----
      for (std::size_t j = 0; j < kLandmarks; ++j) {
        const NodeId s = set[j];
        const auto& od = oracle[std::size_t(k) * kLandmarks + j];
        bool ok = true;
        for (NodeId v = 0; v < kN && ok; ++v) {
          ok = r.delta[v][s] == od[v];
          if (ok && v != s) {
            const std::uint32_t pi = r.parent_index[v][s];
            const auto nb = g.neighbors(v);
            ok = pi < nb.size() && od[nb[pi]] + 1 == od[v];
          }
        }
        chk.expect(ok, "landmarks_grid: S-SP row " + std::to_string(s));
      }
      chk.expect(cr.all_certified(), "landmarks_grid: certify_rows rejected");
      ++epoch;
    }
    // The landmark tables are not persisted: a restart recomputes them
    // (here the first set's), once per pass.
    {
      core::SspResult r;
      core::CertifyReport cr;
      Span s("recover", pass);
      certified_ssp(sets[0], epoch, r, cr);
      const double t = s.stop();
      m.recover_s.push_back(t);
      m.pass().seconds += t;
      chk.expect(cr.all_certified(), "landmarks_grid: recomputed tables");
    }
    if (pass++ == 0) m.peak_rss_mb = peak_rss_mb();
  } while (!elapsed(t0, o.seconds));

  const double runs = double(epoch + pass);  // S-SP runs, restarts included
  m.layer["ssp.run_s"] = ssp.seconds / runs;
  m.layer["ssp.msgs_per_node_step"] = ratio(ssp.messages, ssp.node_steps);
  m.layer["ssp.rss_growth_mb"] = rss_growth.empty() ? 0 : rss_growth[0];
  m.layer["certify.run_s"] = cert.seconds / runs;
  m.layer["certify.msgs_per_s"] = ratio(cert.messages, cert.seconds);
  m.layer["engine.msgs_per_s"] =
      ratio(ssp.messages + cert.messages, ssp.seconds + cert.seconds);
  m.layer["engine.ns_per_node_step"] =
      1e9 * ratio(ssp.seconds + cert.seconds, ssp.node_steps + cert.node_steps);
}

// ---- Output --------------------------------------------------------------

// Per-layer metric names in print order; a workload that does not run a
// layer reports 0 for it (README lists which workload moves which metric).
const char* const kLayerMetrics[][2] = {
    {"graph.generate_s", "s"},
    {"graph.load_s", "s"},
    {"pebble_apsp.run_s", "s"},
    {"pebble_apsp.bytes_per_pair", "B"},
    {"engine.msgs_per_s", "1/s"},
    {"engine.ns_per_node_step", "ns"},
    {"certify.run_s", "s"},
    {"certify.msgs_per_s", "1/s"},
    {"ssp.run_s", "s"},
    {"ssp.msgs_per_node_step", "count"},
    {"ssp.rss_growth_mb", "MB"},
    {"query.encode_ms", "ms"},
    {"query.load_ms", "ms"},
    {"store.publish_us", "us"},
    {"store.acquire_ns", "ns"},
    {"query.p2p_ns", "ns"},
    {"query.k_nearest_us", "us"},
    {"query.eccentricity_us", "us"},
    {"store.swaps", "count"},
    {"store.retired_pending_max", "count"},
    {"service.step_ms", "ms"},
    {"service.publish_ms", "ms"},
    {"service.analyze_ms", "ms"},
    {"repair.ladder_ms", "ms"},
    {"repair.rounds_per_epoch", "count"},
    {"repair.messages_per_epoch", "count"},
    {"repair.suspect_rows_per_epoch", "count"},
    {"repair.attempts_per_certified_epoch", "count"},
    {"repair.escalated_epochs", "count"},
    {"durable.checkpoint_ms", "ms"},
    {"journal.bytes_per_epoch", "B"},
    {"durable.replayed_batches", "count"},
};

// Median over passes of a per-pass value.
double per_pass(const Measured& m, const std::function<double(const Pass&)>& f) {
  std::vector<double> v;
  for (const Pass& p : m.passes) v.push_back(f(p));
  return median(v);
}

std::vector<Metric> end_to_end(const Measured& m) {
  // Median per-epoch CONGEST cost: a rare escalated epoch does not move it.
  const auto per_epoch = [&](double EngineTally::*field) {
    std::vector<double> v;
    for (const EngineTally& c : m.epoch_cost) v.push_back(c.*field);
    return median(v);
  };
  const auto all = [&](std::vector<double> Pass::*field) {
    std::vector<double> v;
    for (const Pass& p : m.passes) {
      v.insert(v.end(), (p.*field).begin(), (p.*field).end());
    }
    return v;
  };
  // Epoch throughput over windows of up to 16 consecutive epochs of a pass.
  std::vector<double> epoch_rates;
  for (const Pass& p : m.passes) {
    for (std::size_t i = 0; i < p.epoch_s.size(); i += 16) {
      const std::size_t end = std::min(p.epoch_s.size(), i + 16);
      double t = 0;
      for (std::size_t j = i; j < end; ++j) t += p.epoch_s[j];
      epoch_rates.push_back(double(end - i) / t);
    }
  }
  std::vector<double> window_rates;
  for (const Window& w : m.windows) window_rates.push_back(w.lookups / w.seconds);
  return {
      {"setup_s", median(m.setup_s), "s"},
      {"pipeline_s", per_pass(m, [](const Pass& p) { return p.seconds; }), "s"},
      {"peak_rss_mb", m.peak_rss_mb, "MB"},
      {"congest_rounds", per_epoch(&EngineTally::rounds), "count"},
      {"congest_messages", per_epoch(&EngineTally::messages), "count"},
      {"congest_bits", per_epoch(&EngineTally::bits), "count"},
      {"epochs_per_s", median(epoch_rates), "1/s"},
      {"epoch_p50_ms", 1e3 * quantile(all(&Pass::epoch_s), 0.5), "ms"},
      {"epoch_p90_ms", 1e3 * quantile(all(&Pass::epoch_s), 0.9), "ms"},
      {"recover_s", median(m.recover_s), "s"},
      {"lookups_per_s", median(window_rates), "1/s"},
      {"batch_p50_us", 1e6 * quantile(all(&Pass::batch_s), 0.5), "us"},
      {"batch_p99_us",
       1e6 * per_pass(m, [](const Pass& p) { return quantile(p.batch_s, 0.99); }),
       "us"},
  };
}

std::string to_json(const Checker& chk, const std::vector<Metric>& ms) {
  std::string out = "{\"correct\": ";
  out += chk.correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(chk.attempted());
  out += ", \"failed\": " + std::to_string(chk.failed());
  out += ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < ms.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%.17g", ms[i].value);
    out += (i ? ", \"" : "\"") + ms[i].name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + ms[i].unit + "\"}";
  }
  return out + "}}";
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse(argc, argv);
  const std::map<std::string, void (*)(const Options&, Measured&, Checker&)>
      workloads = {{"apsp_static", run_apsp_static},
                   {"churn_repair", run_churn_repair},
                   {"query_mix", run_query_mix},
                   {"landmarks_grid", run_landmarks_grid}};
  const auto it = workloads.find(o.workload);
  if (it == workloads.end()) usage("unknown workload " + o.workload);
  if (o.trace) g_tracer.enable();

  Measured m;
  Checker chk;
  try {
    fs::create_directories(o.work_dir);
    it->second(o, m, chk);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s: %s\n", o.workload.c_str(), e.what());
    return 1;
  }

  const std::vector<Metric> e2e = end_to_end(m);
  std::fprintf(stderr, "%s e2e: %s\n", o.trace ? "traced" : "untraced",
               to_json(chk, e2e).c_str());
  if (!o.trace) {
    std::printf("%s\n", to_json(chk, e2e).c_str());
    return 0;
  }

  m.layer["graph.generate_s"] = median(g_tracer.durations("graph.generate"));
  m.layer["graph.load_s"] = median(g_tracer.durations("graph.load"));
  std::vector<Metric> layers;
  for (const auto& [name, unit] : kLayerMetrics) {
    const auto f = m.layer.find(name);
    layers.push_back({name, f == m.layer.end() ? 0.0 : f->second, unit});
  }
  const std::string spans_dir = o.work_dir + "/spans";
  fs::create_directories(spans_dir);
  const auto self = g_tracer.write(spans_dir + "/" + o.workload + "-" +
                                   std::to_string(o.seed) + ".jsonl");
  for (const auto& [name, s] : self) {
    std::fprintf(stderr, "self %-24s %.6f s\n", name.c_str(), s);
  }
  std::printf("%s\n", to_json(chk, layers).c_str());
  return 0;
}
