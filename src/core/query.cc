#include "core/query.h"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <thread>

#include "graph/delta.h"

namespace dapsp::core {
namespace {

constexpr std::size_t kQueryHeaderBytes = 40;  // the tag included
constexpr std::uint32_t kMaxQueryNodes = 1u << 20;

}  // namespace

CheckpointError QuerySnapshot::bind(
    std::span<const std::uint8_t> blob) noexcept {
  // The header and the seal must be there before any field is read.
  if (blob.size() < kQueryHeaderBytes + 8) return CheckpointError::kTruncated;
  if (const CheckpointError e = check_tag(blob, kQueryTag);
      e != CheckpointError::kNone) {
    return e;
  }
  ByteReader r(blob.subspan(kFrameTagBytes), "DQRY");
  n_ = r.u32();
  epoch_ = r.u64();
  sequence_ = r.u64();
  flags_ = r.u32();
  k_ = r.u32();
  dom_count_ = r.u32();
  if (n_ == 0 || n_ > kMaxQueryNodes) return CheckpointError::kBadPayload;
  if ((flags_ & ~(kQueryFlagLabels | kQueryFlagDegraded)) != 0) {
    return CheckpointError::kBadPayload;
  }
  if (has_labels() ? dom_count_ == 0 || dom_count_ > n_ : dom_count_ != 0) {
    return CheckpointError::kBadPayload;
  }
  const std::uint64_t cells = std::uint64_t{n_} * n_;
  try {
    // The tables are served in place: the codec's LE host check makes the
    // on-disk u32s native, and every section offset is 4-byte aligned.
    dist_ = reinterpret_cast<const std::uint32_t*>(r.view(cells, 4).data());
    hop_ = reinterpret_cast<const std::uint32_t*>(r.view(cells, 4).data());
    dom_ = reinterpret_cast<const std::uint32_t*>(r.view(dom_count_, 4).data());
    labels_ = reinterpret_cast<const std::uint32_t*>(
        r.view(std::uint64_t{n_} * dom_count_, 4).data());
    active_ = r.view(n_).data();
    status_ = r.view(n_).data();
    r.skip(8);  // the seal
  } catch (const std::exception&) {
    return CheckpointError::kTruncated;
  }
  if (r.left() != 0) return CheckpointError::kTruncated;  // appended bytes
  if (!seal_ok(blob)) return CheckpointError::kChecksumMismatch;
  for (std::uint32_t i = 0; i < dom_count_; ++i) {
    if (dom_[i] >= n_) return CheckpointError::kBadPayload;
  }
  for (NodeId v = 0; v < n_; ++v) {
    if (active_[v] > 1) return CheckpointError::kBadPayload;
    if (status_[v] > static_cast<std::uint8_t>(RowStatus::kStale)) {
      return CheckpointError::kBadPayload;
    }
  }
  return CheckpointError::kNone;
}

CheckpointError classify_query_blob(
    std::span<const std::uint8_t> blob) noexcept {
  QuerySnapshot snap;
  return snap.bind(blob);
}

QuerySnapshot QuerySnapshot::from_blob(std::vector<std::uint8_t> bytes) {
  QuerySnapshot snap;
  snap.owned_ = std::move(bytes);
  const CheckpointError err = snap.bind(snap.owned_);
  if (err != CheckpointError::kNone) {
    throw std::runtime_error(std::string("QuerySnapshot: ") + to_string(err) +
                             " blob");
  }
  return snap;
}

QuerySnapshot QuerySnapshot::from_file(const std::string& path) {
  QuerySnapshot snap;
  snap.mapped_ = MappedBlob::map_file(path);
  const CheckpointError err = snap.bind(snap.mapped_.bytes());
  if (err != CheckpointError::kNone) {
    throw std::runtime_error(std::string("QuerySnapshot: ") + to_string(err) +
                             " blob at " + path);
  }
  return snap;
}

std::span<const std::uint8_t> QuerySnapshot::bytes() const noexcept {
  return owned_.empty() ? mapped_.bytes()
                        : std::span<const std::uint8_t>(owned_);
}

QueryAnswer QuerySnapshot::p2p(NodeId from, NodeId to) const {
  if (from >= n_ || to >= n_) {
    throw std::invalid_argument("QuerySnapshot::p2p: node out of universe");
  }
  QueryAnswer q;
  if (active_[from] == 0 || active_[to] == 0) return q;
  q.active = true;
  const std::size_t idx = std::size_t{to} * n_ + from;
  q.dist = dist_[idx];
  q.next_hop = hop_[idx];
  q.status = status(to);
  return q;
}

void QuerySnapshot::p2p_batch(
    std::span<const std::pair<NodeId, NodeId>> pairs,
    std::vector<QueryAnswer>& out, WorkBudget* budget) const {
  out.clear();
  out.reserve(pairs.size());
  for (const auto& [from, to] : pairs) {
    // One cell per pair; an exhausted budget truncates the batch to the
    // answered prefix (out.size() < pairs.size()).
    if (budget != nullptr && budget->grant(1) == 0) return;
    out.push_back(p2p(from, to));
  }
}

KNearestAnswer QuerySnapshot::k_nearest(NodeId u, std::uint32_t k,
                                        WorkBudget* budget) const {
  if (u >= n_) {
    throw std::invalid_argument(
        "QuerySnapshot::k_nearest: node out of universe");
  }
  KNearestAnswer ans;
  if (active_[u] == 0) return ans;
  ans.active = true;
  ans.status = status(u);
  const std::uint32_t* row = dist_ + std::size_t{u} * n_;
  // The budget bounds how much of the row this query may scan; the answer
  // stays exact over the scanned prefix.
  const NodeId scan = budget == nullptr
                          ? n_
                          : static_cast<NodeId>(std::min<std::uint64_t>(
                                n_, budget->grant(n_)));
  std::vector<NearNeighbor> cand;
  cand.reserve(scan);
  for (NodeId v = 0; v < scan; ++v) {
    if (v == u || active_[v] == 0 || row[v] == kInfDist) continue;
    cand.push_back({v, row[v]});
  }
  const auto by_dist_then_id = [](const NearNeighbor& a,
                                  const NearNeighbor& b) {
    return a.dist != b.dist ? a.dist < b.dist : a.node < b.node;
  };
  const std::size_t keep = std::min<std::size_t>(k, cand.size());
  std::partial_sort(cand.begin(),
                    cand.begin() + static_cast<std::ptrdiff_t>(keep),
                    cand.end(), by_dist_then_id);
  cand.resize(keep);
  ans.nearest = std::move(cand);
  if (scan < n_) {
    ans.truncated = true;
    ans.scanned = scan;
  }
  return ans;
}

EccentricityAnswer QuerySnapshot::eccentricity(NodeId u,
                                               WorkBudget* budget) const {
  if (u >= n_) {
    throw std::invalid_argument(
        "QuerySnapshot::eccentricity: node out of universe");
  }
  EccentricityAnswer ans;
  if (active_[u] == 0) return ans;
  ans.active = true;
  ans.status = status(u);
  const std::uint32_t* row = dist_ + std::size_t{u} * n_;
  const NodeId scan = budget == nullptr
                          ? n_
                          : static_cast<NodeId>(std::min<std::uint64_t>(
                                n_, budget->grant(n_)));
  for (NodeId v = 0; v < scan; ++v) {
    if (active_[v] == 0) continue;
    if (row[v] == kInfDist) {
      if (v != u) ++ans.unreachable;
      continue;
    }
    if (row[v] > ans.ecc) {
      ans.ecc = row[v];
      ans.farthest = v;
    }
  }
  if (ans.farthest == kNoNextHop) ans.farthest = u;  // isolated-in-component
  if (scan < n_) {
    ans.truncated = true;
    ans.scanned = scan;
  }
  return ans;
}

std::uint32_t QuerySnapshot::label_estimate(NodeId u, NodeId v) const {
  if (u >= n_ || v >= n_) {
    throw std::invalid_argument(
        "QuerySnapshot::label_estimate: node out of universe");
  }
  if (!has_labels()) {
    throw std::logic_error(
        "QuerySnapshot::label_estimate: snapshot has no label section");
  }
  if (u == v) return 0;
  return DistanceLabeling::combine(label_row(u), label_row(v));
}

// ---- Encoders ------------------------------------------------------------

namespace {

std::vector<std::uint8_t> encode_common(
    std::uint32_t n, std::uint64_t epoch, std::uint64_t sequence,
    bool degraded, const DistanceLabeling* labels,
    std::span<const std::uint8_t> active, std::span<const RowStatus> status,
    const auto& dist_to, const auto& hop_to) {
  if (n == 0) {
    throw std::invalid_argument("encode_query_snapshot: empty universe");
  }
  if (active.size() != n || status.size() != n) {
    throw std::invalid_argument(
        "encode_query_snapshot: active/status size mismatch");
  }
  std::uint32_t dom_count = 0;
  std::uint32_t flags = degraded ? kQueryFlagDegraded : 0u;
  if (labels != nullptr) {
    dom_count = static_cast<std::uint32_t>(labels->dominators().size());
    flags |= kQueryFlagLabels;
    if (dom_count == 0 || dom_count > n) {
      throw std::invalid_argument(
          "encode_query_snapshot: label section does not match universe");
    }
  }
  // One allocation of the exact blob size (see the layout in query.h).
  const std::uint64_t un = n;
  std::vector<std::uint8_t> out;
  out.reserve(kQueryHeaderBytes + 8 * un * un + 4 * dom_count +
              4 * un * dom_count + 2 * un + 8);
  put_tag(out, kQueryTag);
  put_u32(out, n);
  put_u64(out, epoch);
  put_u64(out, sequence);
  put_u32(out, flags);
  put_u32(out, labels != nullptr ? labels->k() : 0u);
  put_u32(out, dom_count);
  // Row s = served values toward source s, indexed by node v.
  std::vector<std::uint32_t> row(n);
  for (std::uint32_t s = 0; s < n; ++s) {
    for (std::uint32_t v = 0; v < n; ++v) row[v] = dist_to(v, s);
    put_u32s(out, row);
  }
  for (std::uint32_t s = 0; s < n; ++s) {
    for (std::uint32_t v = 0; v < n; ++v) row[v] = hop_to(v, s);
    put_u32s(out, row);
  }
  if (labels != nullptr) {
    put_u32s(out, labels->dominators());
    for (std::uint32_t v = 0; v < n; ++v) {
      const std::span<const std::uint32_t> lab = labels->label(v);
      if (lab.size() != dom_count) {
        throw std::invalid_argument(
            "encode_query_snapshot: ragged label row");
      }
      put_u32s(out, lab);
    }
  }
  for (std::uint32_t v = 0; v < n; ++v) out.push_back(active[v] != 0 ? 1 : 0);
  for (std::uint32_t v = 0; v < n; ++v) {
    out.push_back(static_cast<std::uint8_t>(status[v]));
  }
  seal(out);
  return out;
}

}  // namespace

std::vector<std::uint8_t> encode_query_snapshot(
    const DapspService& svc, std::uint64_t sequence, bool degraded,
    const DistanceLabeling* labels) {
  const DistanceMatrix& dist = svc.served_dist();
  const std::vector<std::vector<NodeId>>& hop = svc.served_next_hop();
  const std::uint32_t n = svc.dynamic_graph().universe();
  return encode_common(
      n, svc.epoch(), sequence, degraded, labels,
      svc.dynamic_graph().active_mask(), svc.row_statuses(),
      [&](NodeId v, NodeId s) { return dist.at(v, s); },
      [&](NodeId v, NodeId s) { return hop[v][s]; });
}

std::vector<std::uint8_t> encode_query_snapshot_tables(
    const DistanceMatrix& dist,
    const std::vector<std::vector<NodeId>>* next_hop,
    std::span<const std::uint8_t> active, std::span<const RowStatus> status,
    std::uint64_t epoch, std::uint64_t sequence, bool degraded,
    const DistanceLabeling* labels) {
  const std::uint32_t n = static_cast<std::uint32_t>(dist.n());
  return encode_common(
      n, epoch, sequence, degraded, labels, active, status,
      [&](NodeId v, NodeId s) { return dist.at(v, s); },
      [&](NodeId v, NodeId s) {
        return next_hop != nullptr ? (*next_hop)[v][s] : kNoNextHop;
      });
}

// ---- SnapshotStore -------------------------------------------------------

SnapshotStore::~SnapshotStore() {
  // Readers are required to be gone; drop everything unconditionally.
  std::lock_guard<std::mutex> lk(retire_mu_);
  retired_.clear();
  current_owner_.reset();
}

void SnapshotStore::publish(std::unique_ptr<const QuerySnapshot> snap) {
  if (snap == nullptr) {
    throw std::invalid_argument("SnapshotStore::publish: null snapshot");
  }
  std::lock_guard<std::mutex> lk(retire_mu_);
  const QuerySnapshot* raw = snap.get();
  const QuerySnapshot* old = current_.exchange(raw, std::memory_order_seq_cst);
  // The epoch value during which `old` was last current: readers pinned at
  // an epoch <= this may still hold it.
  const std::uint64_t retire_epoch =
      epoch_.fetch_add(1, std::memory_order_seq_cst);
  if (old != nullptr) {
    retired_.push_back({std::move(current_owner_), retire_epoch});
  }
  current_owner_ = std::move(snap);
  swaps_.fetch_add(1, std::memory_order_relaxed);
  reclaim_locked();
}

void SnapshotStore::reclaim_locked() {
  std::uint64_t min_pin = kSlotIdle;
  for (const Slot& slot : slots_) {
    if (slot.claimed.load(std::memory_order_seq_cst) == 0) continue;
    min_pin = std::min(min_pin, slot.pin.load(std::memory_order_seq_cst));
  }
  // A snapshot retired at epoch r can be referenced only by a reader whose
  // pinned epoch is <= r, so it is free to reclaim once r < min_pin.
  std::erase_if(retired_, [min_pin](const Retired& r) {
    return r.retire_epoch < min_pin;
  });
}

std::size_t SnapshotStore::retired_pending() const {
  std::lock_guard<std::mutex> lk(retire_mu_);
  return retired_.size();
}

SnapshotReader::SnapshotReader(SnapshotStore& store, std::uint32_t max_spins)
    : store_(&store) {
  // Bounded spin-yield: a full claim sweep, then yield and retry. A burst of
  // short-lived readers cycling slots resolves within a few yields — only a
  // genuine reader leak (kMaxSnapshotReaders live readers) exhausts the
  // budget and throws. The slots_exhausted metric counts contended
  // constructions (once each, on the first failed sweep), not spins, so it
  // reads as "registrations that hit saturation".
  for (std::uint32_t spin = 0;; ++spin) {
    for (std::size_t i = 0; i < kMaxSnapshotReaders; ++i) {
      std::uint8_t expect = 0;
      if (store_->slots_[i].claimed.compare_exchange_strong(
              expect, 1, std::memory_order_seq_cst)) {
        slot_ = i;
        store_->slots_[i].pin.store(SnapshotStore::kSlotIdle,
                                    std::memory_order_seq_cst);
        return;
      }
    }
    if (spin == 0) {
      store_->slots_exhausted_.fetch_add(1, std::memory_order_relaxed);
    }
    if (spin >= max_spins) {
      throw std::runtime_error(
          "SnapshotReader: all reader slots claimed (spin budget exhausted)");
    }
    std::this_thread::yield();
  }
}

SnapshotReader::~SnapshotReader() {
  store_->slots_[slot_].pin.store(SnapshotStore::kSlotIdle,
                                  std::memory_order_seq_cst);
  store_->slots_[slot_].claimed.store(0, std::memory_order_seq_cst);
}

SnapshotRef SnapshotReader::acquire() {
  SnapshotStore::Slot& slot = store_->slots_[slot_];
  // Announce-then-verify: publish the epoch we intend to pin, then re-read.
  // Once the announced value is a current-or-earlier epoch that the writer
  // is guaranteed to observe before freeing anything retired at or after
  // it, the subsequent pointer load is protected. One iteration suffices in
  // the common case; the loop only spins while publishes race past us.
  std::uint64_t e = store_->epoch_.load(std::memory_order_seq_cst);
  for (;;) {
    slot.pin.store(e, std::memory_order_seq_cst);
    const std::uint64_t now = store_->epoch_.load(std::memory_order_seq_cst);
    if (now == e) break;
    e = now;
  }
  const QuerySnapshot* snap = store_->current_.load(std::memory_order_seq_cst);
  if (snap == nullptr) {
    slot.pin.store(SnapshotStore::kSlotIdle, std::memory_order_seq_cst);
    return {};
  }
  return SnapshotRef(store_, slot_, snap);
}

SnapshotRef& SnapshotRef::operator=(SnapshotRef&& other) noexcept {
  if (this != &other) {
    release();
    store_ = other.store_;
    slot_ = other.slot_;
    snap_ = other.snap_;
    other.store_ = nullptr;
    other.snap_ = nullptr;
  }
  return *this;
}

void SnapshotRef::release() noexcept {
  if (store_ != nullptr) {
    store_->slots_[slot_].pin.store(SnapshotStore::kSlotIdle,
                                    std::memory_order_seq_cst);
    store_ = nullptr;
    snap_ = nullptr;
  }
}

void ServingPublisher::on_snapshot(const DapspService& svc, bool degraded) {
  std::vector<std::uint8_t> blob =
      encode_query_snapshot(svc, sequence_++, degraded);
  store_->publish(std::make_unique<const QuerySnapshot>(
      QuerySnapshot::from_blob(std::move(blob))));
}

// ---- LabelCache ----------------------------------------------------------

std::span<const std::uint32_t> LabelCache::row(const QuerySnapshot& snap,
                                               NodeId u) {
  if (!snap.has_labels()) {
    throw std::logic_error("LabelCache::row: snapshot has no label section");
  }
  ++tick_;
  for (Entry& e : entries_) {
    if (e.sequence == snap.sequence() && e.source == u) {
      e.last_used = tick_;
      ++hits_;
      return e.row;
    }
  }
  ++misses_;
  std::vector<std::uint32_t> row(snap.n(), kInfDist);
  const std::span<const std::uint32_t> lu = snap.label_row(u);
  for (NodeId v = 0; v < snap.n(); ++v) {
    row[v] = v == u ? 0 : DistanceLabeling::combine(lu, snap.label_row(v));
  }
  if (capacity_ == 0) {  // caching disabled: compute-only path
    scratch_ = std::move(row);
    return scratch_;
  }
  if (entries_.size() >= capacity_) {
    auto victim = std::min_element(
        entries_.begin(), entries_.end(),
        [](const Entry& a, const Entry& b) { return a.last_used < b.last_used; });
    entries_.erase(victim);
  }
  entries_.push_back({snap.sequence(), u, tick_, std::move(row)});
  return entries_.back().row;
}

std::uint32_t LabelCache::estimate(const QuerySnapshot& snap, NodeId u,
                                   NodeId v) {
  if (v >= snap.n()) {
    throw std::invalid_argument("LabelCache::estimate: node out of universe");
  }
  return row(snap, u)[v];
}

}  // namespace dapsp::core
