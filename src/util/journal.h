// Append-only write-ahead journal with torn-tail recovery (DESIGN.md §15).
//
// The long-running service acknowledges a churn batch only after it is
// durable; a process kill between delta batches or inside a checkpoint write
// must never lose an acknowledged update. This module supplies the storage
// substrate for that contract:
//
//   * File format — the DJRN frame tag (util/frame.h) followed by
//     self-delimiting records:
//         u32 payload_len | u64 fnv1a64(payload) | payload bytes
//     The per-record checksum catches bit damage; the length prefix makes
//     the valid prefix recognizable after a crash mid-append.
//
//   * Torn-tail semantics — a crash can leave any byte prefix of the file.
//     scan_journal() reads the longest valid record prefix and classifies
//     the remainder: a partial header, a partial record, or a record whose
//     checksum fails is a *torn tail* (kTornTail) and repair_journal()
//     truncates it away; a full header with the wrong magic or version is
//     NOT crash damage and is reported distinctly (kBadMagic /
//     kVersionMismatch) so callers can refuse rather than silently destroy
//     a foreign file.
//
//   * Crash-point injection — every durable byte flows through a FileSink
//     that honors an optional CrashPoint budget: after exactly
//     `kill_at_byte` cumulative bytes the sink writes the partial prefix,
//     flushes it, and either throws CrashPointReached (the deterministic
//     in-process fuzzer) or terminates the process with exit code 42
//     (examples/dapsp_service --kill-at-byte). Byte offsets are global
//     across journal appends and checkpoint writes, so one integer
//     deterministically names any crash point in the durable stream.
//
// Durability note: "flushed" here means pushed through the C++ stream layer
// to the OS (the crash model is process death, which the fuzzer and the
// kill matrix exercise); surviving a kernel or power crash would need an
// fsync at the same points.
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/frame.h"

namespace dapsp {

// Thrown by a sink when its CrashPoint budget fires in soft mode: the bytes
// up to the budget are durable, everything after is lost — exactly what a
// process kill at that offset would leave.
struct CrashPointReached : std::runtime_error {
  explicit CrashPointReached(std::uint64_t at)
      : std::runtime_error("crash point reached at durable byte " +
                           std::to_string(at)),
        at_byte(at) {}
  std::uint64_t at_byte;
};

// A deterministic kill switch shared by every durable writer of one run.
// `written` accumulates across sinks (journal appends, checkpoint temp
// files), so kill_at_byte addresses one global offset in the durable stream.
struct CrashPoint {
  std::uint64_t kill_at_byte = 0;  // fire when `written` reaches this; 0 = off
  bool hard_exit = false;          // std::_Exit(42) instead of throwing
  std::uint64_t written = 0;       // cumulative durable bytes so far
};

// A file-backed byte sink honoring an optional CrashPoint. Not buffered
// beyond the underlying stream; flush() pushes to the OS.
class FileSink {
 public:
  enum class Mode { kTruncate, kAppend };
  // Throws std::runtime_error if the file cannot be opened.
  FileSink(const std::string& path, Mode mode, CrashPoint* crash = nullptr);
  ~FileSink();

  FileSink(const FileSink&) = delete;
  FileSink& operator=(const FileSink&) = delete;

  // Writes `bytes`, stopping short (then flushing and firing) when the
  // crash budget lands inside the span.
  void write(std::span<const std::uint8_t> bytes);
  void flush();

  std::uint64_t bytes_written() const noexcept { return written_; }

 private:
  struct Impl;
  Impl* impl_;
  CrashPoint* crash_;
  std::uint64_t written_ = 0;
};

// Magic "DJRN", version LE u32 1.
inline constexpr FrameTag kJournalTag{{'D', 'J', 'R', 'N'}, {1, 0, 0, 0}};
inline constexpr std::size_t kJournalHeaderBytes = kFrameTagBytes;
// Sanity cap on one record's payload; larger length prefixes are treated as
// tail damage rather than attempted as allocations.
inline constexpr std::uint32_t kJournalMaxPayload = 1u << 30;

enum class JournalError : std::uint8_t {
  kNone = 0,         // clean: header + zero or more whole records
  kMissing = 1,      // no file
  kTornHeader = 2,   // fewer than 8 bytes — a crash before the header landed
  kBadMagic = 3,     // 8+ bytes but not a journal (never auto-repaired)
  kVersionMismatch = 4,  // journal from a different format version
  kTornTail = 5,     // valid prefix, then a partial/corrupt record
};

const char* to_string(JournalError e) noexcept;

struct JournalScan {
  JournalError error = JournalError::kNone;
  // The valid record payloads, in append order (the prefix before any tear).
  std::vector<std::vector<std::uint8_t>> records;
  std::uint64_t valid_bytes = 0;  // header + whole valid records
  std::uint64_t file_bytes = 0;
};

// Reads the longest valid prefix of the journal at `path`. Never throws on
// file damage — the classification is the result.
JournalScan scan_journal(const std::string& path);

// Truncate-on-torn-tail recovery: drops a torn tail (or torn header) in
// place and returns true when bytes were removed. kBadMagic and
// kVersionMismatch are NOT repaired (throws std::runtime_error — the file
// is not ours to destroy); kMissing and kNone return false untouched.
bool repair_journal(const std::string& path);

// Append-only writer. kTruncate starts a fresh journal (header written
// immediately); kAppend continues one whose damaged tail, if any, has been
// repaired — a missing or header-less file is (re)started fresh.
class JournalWriter {
 public:
  JournalWriter(const std::string& path, FileSink::Mode mode,
                CrashPoint* crash = nullptr);

  // Appends one length-prefixed, checksummed record and flushes — the
  // acknowledgement point of the WAL protocol. Returns the record's size on
  // disk (header excluded).
  std::uint64_t append(std::span<const std::uint8_t> payload);

  std::uint64_t records_appended() const noexcept { return records_; }

 private:
  FileSink sink_;
  std::uint64_t records_ = 0;
};

}  // namespace dapsp
