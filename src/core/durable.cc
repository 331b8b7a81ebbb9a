#include "core/durable.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "congest/trace.h"

namespace dapsp::core {

namespace {

using congest::TraceEvent;
using congest::TraceEventKind;

// Missing file reads as empty — classify_checkpoint_blob maps that to
// kMissing, which is the right answer for an absent generation slot.
std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return {};
  return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(in), {});
}

bool is_damage(CheckpointError e) {
  return e != CheckpointError::kNone && e != CheckpointError::kMissing;
}

// One journal record: the epoch the batch creates, the driver's opaque
// resume words, then the batch itself (self-delimiting; decode_churn_batch
// rejects trailing bytes).
std::vector<std::uint8_t> encode_record(std::uint64_t epoch,
                                        std::span<const std::uint64_t> words,
                                        const ChurnBatch& batch) {
  std::vector<std::uint8_t> payload;
  put_u64(payload, epoch);
  put_u32(payload, static_cast<std::uint32_t>(words.size()));
  for (const std::uint64_t w : words) put_u64(payload, w);
  const std::vector<std::uint8_t> body = encode_churn_batch(batch);
  payload.insert(payload.end(), body.begin(), body.end());
  return payload;
}

struct DecodedRecord {
  std::uint64_t epoch = 0;
  std::vector<std::uint64_t> words;
  ChurnBatch batch;
};

DecodedRecord decode_record(std::span<const std::uint8_t> payload) {
  ByteReader r(payload, "durable journal record");
  DecodedRecord rec;
  rec.epoch = r.u64();
  const std::uint32_t nw = r.u32();
  rec.words.reserve(nw);
  for (std::uint32_t i = 0; i < nw; ++i) rec.words.push_back(r.u64());
  rec.batch = decode_churn_batch(r.view(r.left()));
  return rec;
}

}  // namespace

CheckpointStore::CheckpointStore(std::string base, CrashPoint* crash)
    : base_(std::move(base)), crash_(crash) {}

std::string CheckpointStore::slot_path(int slot) const {
  return base_ + (slot == 0 ? ".g0" : ".g1");
}

std::string CheckpointStore::tmp_path() const { return base_ + ".tmp"; }

void CheckpointStore::rotate(std::span<const std::uint8_t> blob) {
  // Target the damaged/empty slot if there is one, else the older of the
  // two valid generations — the newest valid generation is never the
  // rename target, so it survives a kill at any byte of this call.
  bool valid[2];
  std::uint64_t epoch[2];
  for (int slot = 0; slot < 2; ++slot) {
    const std::vector<std::uint8_t> b = read_file(slot_path(slot));
    valid[slot] = classify_checkpoint_blob(b) == CheckpointError::kNone;
    epoch[slot] = valid[slot] ? peek_checkpoint_epoch(b) : 0;
  }
  int target;
  if (!valid[0]) {
    target = 0;
  } else if (!valid[1]) {
    target = 1;
  } else {
    target = epoch[0] <= epoch[1] ? 0 : 1;
  }
  {
    FileSink sink(tmp_path(), FileSink::Mode::kTruncate, crash_);
    sink.write(blob);  // the crash budget can fire anywhere in here
    sink.flush();
  }
  // The atomic commit point: before this rename the target slot is intact,
  // after it the new generation is fully in place.
  std::filesystem::rename(tmp_path(), slot_path(target));
  ++rotations_;
}

CheckpointStore::Loaded CheckpointStore::load() const {
  Loaded out;
  std::vector<std::uint8_t> blobs[2];
  for (int slot = 0; slot < 2; ++slot) {
    blobs[slot] = read_file(slot_path(slot));
    out.slot_errors[slot] = classify_checkpoint_blob(blobs[slot]);
  }
  int best = -1;
  for (int slot = 0; slot < 2; ++slot) {
    if (out.slot_errors[slot] != CheckpointError::kNone) continue;
    if (best < 0 ||
        peek_checkpoint_epoch(blobs[slot]) > peek_checkpoint_epoch(blobs[best])) {
      best = slot;
    }
  }
  for (int slot = 0; slot < 2; ++slot) {
    if (slot != best && is_damage(out.slot_errors[slot])) {
      out.rejected_error = out.slot_errors[slot];
      out.fallback = best >= 0;
    }
  }
  if (best >= 0) out.blob = std::move(blobs[best]);
  return out;
}

std::string DurableStats::debug_string() const {
  std::ostringstream os;
  os << "journal_appends=" << journal_appends
     << " journal_bytes=" << journal_bytes
     << " checkpoints_rotated=" << checkpoints_rotated
     << " recoveries=" << recoveries
     << " batches_replayed=" << batches_replayed;
  return std::move(os).str();
}

std::string RecoveryReport::debug_string() const {
  std::ostringstream os;
  os << "recovered epoch " << recovered_epoch << " from checkpoint epoch "
     << checkpoint_epoch << " + " << batches_replayed << " replayed batches"
     << (generation_fallback ? " [generation-fallback]" : "")
     << (journal_tail_truncated ? " [torn-tail-truncated]" : "")
     << (fresh_start ? " [fresh-start]" : "");
  if (is_damage(rejected_error)) {
    os << " rejected=" << to_string(rejected_error);
  }
  return std::move(os).str();
}

DurableDapspService::DurableDapspService(const Graph& initial,
                                         const DurableConfig& cfg)
    : cfg_(cfg),
      svc_(initial, cfg.service),
      store_((std::filesystem::create_directories(cfg.dir),
              cfg.dir + "/ckpt"),
             cfg.crash) {
  // Generation 0 + fresh journal. A kill inside leaves no usable
  // checkpoint; recover() then needs the initial graph again.
  rotate_checkpoint();
}

DurableDapspService::DurableDapspService(DapspService&& svc,
                                         const DurableConfig& cfg)
    : cfg_(cfg),
      svc_(std::move(svc)),
      store_((std::filesystem::create_directories(cfg.dir),
              cfg.dir + "/ckpt"),
             cfg.crash) {
  // Continue the (already repaired) journal in place.
  journal_ = std::make_unique<JournalWriter>(
      journal_path(), FileSink::Mode::kAppend, cfg_.crash);
}

std::string DurableDapspService::journal_path() const {
  return cfg_.dir + "/journal.wal";
}

void DurableDapspService::reset_journal() {
  journal_.reset();  // close before truncating
  journal_ = std::make_unique<JournalWriter>(
      journal_path(), FileSink::Mode::kTruncate, cfg_.crash);
}

void DurableDapspService::emit_journal_event(std::uint64_t payload_bytes,
                                             std::uint64_t epoch) {
  congest::TraceLog* trace = cfg_.service.engine.trace;
  if (trace == nullptr) return;
  TraceEvent ev;
  ev.kind = TraceEventKind::kJournal;
  ev.node = static_cast<NodeId>(dstats_.journal_appends - 1);
  ev.peer = static_cast<NodeId>(payload_bytes);
  ev.round = epoch;
  trace->append(ev);
}

EpochReport DurableDapspService::ack_and_step(
    const ChurnBatch& batch, std::span<const std::uint64_t> plan_words) {
  const std::uint64_t epoch = svc_.epoch() + 1;
  const std::vector<std::uint8_t> payload =
      encode_record(epoch, plan_words, batch);
  // THE acknowledgement point: returns only once the record is durable (a
  // crash budget landing inside throws/exits with the batch unacked).
  const std::uint64_t on_disk = journal_->append(payload);
  ++dstats_.journal_appends;
  dstats_.journal_bytes += on_disk;
  emit_journal_event(payload.size(), epoch);
  plan_words_.assign(plan_words.begin(), plan_words.end());

  EpochReport ep = svc_.step(batch);
  if (cfg_.checkpoint_every > 0 &&
      ++acked_since_checkpoint_ >= cfg_.checkpoint_every) {
    rotate_checkpoint();
  }
  return ep;
}

void DurableDapspService::rotate_checkpoint() {
  const std::vector<std::uint8_t> blob = svc_.checkpoint_blob(plan_words_);
  store_.rotate(blob);
  ++dstats_.checkpoints_rotated;
  acked_since_checkpoint_ = 0;
  // Records at or below the checkpoint epoch are dead weight now. A kill
  // between the rename above and the header write below is safe: replay
  // skips records the checkpoint already covers.
  reset_journal();
}

DurableDapspService DurableDapspService::recover(const DurableConfig& cfg,
                                                 const Graph* initial,
                                                 RecoveryReport* report) {
  RecoveryReport rr;
  const std::string jpath = cfg.dir + "/journal.wal";
  const JournalScan scan = scan_journal(jpath);
  if (scan.error == JournalError::kBadMagic ||
      scan.error == JournalError::kVersionMismatch) {
    throw std::runtime_error(
        std::string("DurableDapspService::recover: journal is ") +
        to_string(scan.error) + " — refusing to repair a foreign file");
  }
  if (scan.error == JournalError::kTornTail ||
      scan.error == JournalError::kTornHeader) {
    repair_journal(jpath);
    rr.journal_tail_truncated = true;
  }

  // Newest restorable generation wins; damaged slots are recorded and
  // passed over (the generation fallback).
  CheckpointStore store(cfg.dir + "/ckpt", cfg.crash);
  struct Candidate {
    std::vector<std::uint8_t> blob;
    std::uint64_t epoch;
  };
  std::vector<Candidate> candidates;
  for (int slot = 0; slot < 2; ++slot) {
    std::vector<std::uint8_t> blob = read_file(store.slot_path(slot));
    const CheckpointError err = classify_checkpoint_blob(blob);
    if (err == CheckpointError::kNone) {
      const std::uint64_t epoch = peek_checkpoint_epoch(blob);
      candidates.push_back({std::move(blob), epoch});
    } else if (is_damage(err)) {
      rr.rejected_error = err;
      rr.generation_fallback = true;
    }
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              return a.epoch > b.epoch;
            });

  std::optional<DapspService> svc;
  std::vector<std::uint64_t> words;
  for (std::size_t i = 0; i < candidates.size() && !svc; ++i) {
    CheckpointError err = CheckpointError::kNone;
    svc = DapspService::try_restore_blob(candidates[i].blob, cfg.service,
                                         &words, &err);
    if (svc) {
      rr.checkpoint_epoch = candidates[i].epoch;
      if (i > 0) rr.generation_fallback = true;
    } else {
      rr.rejected_error = err;
      rr.generation_fallback = true;
    }
  }
  if (!svc) {
    rr.generation_fallback = false;  // nothing to fall back TO
    if (initial == nullptr) {
      throw std::runtime_error(
          "DurableDapspService::recover: no usable checkpoint generation "
          "and no initial graph to rebuild from");
    }
    svc.emplace(*initial, cfg.service);
    rr.fresh_start = true;
  }

  DurableDapspService d(std::move(*svc), cfg);
  d.plan_words_ = std::move(words);

  // Replay the journal suffix through the ordinary step() path. Records the
  // checkpoint already covers are skipped; a gap above the state's epoch
  // means an acknowledged batch is gone — the one unrecoverable state.
  for (const std::vector<std::uint8_t>& payload : scan.records) {
    const DecodedRecord rec = decode_record(payload);
    if (rec.epoch <= d.svc_.epoch()) continue;
    if (rec.epoch != d.svc_.epoch() + 1) {
      std::ostringstream os;
      os << "DurableDapspService::recover: acknowledged update lost — "
            "journal resumes at epoch "
         << rec.epoch << " but recovered state ends at epoch "
         << d.svc_.epoch();
      throw std::runtime_error(std::move(os).str());
    }
    d.svc_.step(rec.batch);
    d.plan_words_ = rec.words;
    ++rr.batches_replayed;
  }
  rr.recovered_epoch = d.svc_.epoch();
  d.dstats_.recoveries = 1;
  d.dstats_.batches_replayed = rr.batches_replayed;

  if (congest::TraceLog* trace = cfg.service.engine.trace) {
    TraceEvent ev;
    ev.kind = TraceEventKind::kRecovery;
    ev.node = static_cast<NodeId>(rr.checkpoint_epoch);
    ev.peer = static_cast<NodeId>(rr.batches_replayed);
    ev.round = rr.recovered_epoch;
    ev.aux = (rr.generation_fallback ? 1u : 0u) |
             (rr.journal_tail_truncated ? 2u : 0u) |
             (rr.fresh_start ? 4u : 0u);
    trace->append(ev);
  }
  if (report != nullptr) *report = rr;
  return d;
}

}  // namespace dapsp::core
