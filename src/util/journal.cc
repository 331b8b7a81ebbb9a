#include "util/journal.h"

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>

namespace dapsp {

// ------------------------------------------------------------------ FileSink

struct FileSink::Impl {
  std::ofstream out;
};

FileSink::FileSink(const std::string& path, Mode mode, CrashPoint* crash)
    : impl_(new Impl), crash_(crash) {
  const auto flags = std::ios::binary | std::ios::out |
                     (mode == Mode::kAppend ? std::ios::app : std::ios::trunc);
  impl_->out.open(path, flags);
  if (!impl_->out) {
    delete impl_;
    throw std::runtime_error("FileSink: cannot open " + path);
  }
}

FileSink::~FileSink() { delete impl_; }

void FileSink::write(std::span<const std::uint8_t> bytes) {
  std::size_t allowed = bytes.size();
  bool fire = false;
  if (crash_ != nullptr && crash_->kill_at_byte != 0) {
    const std::uint64_t room = crash_->kill_at_byte > crash_->written
                                   ? crash_->kill_at_byte - crash_->written
                                   : 0;
    if (room < bytes.size()) {
      allowed = static_cast<std::size_t>(room);
      fire = true;
    }
  }
  if (allowed > 0) {
    impl_->out.write(reinterpret_cast<const char*>(bytes.data()),
                     static_cast<std::streamsize>(allowed));
    if (!impl_->out) throw std::runtime_error("FileSink: write failed");
    written_ += allowed;
    if (crash_ != nullptr) crash_->written += allowed;
  }
  if (fire) {
    // The prefix is durable, the rest of this write is lost — exactly a
    // process kill at this byte offset.
    impl_->out.flush();
    if (crash_->hard_exit) {
      std::fprintf(stderr, "killed at durable byte %llu (by request)\n",
                   static_cast<unsigned long long>(crash_->written));
      std::_Exit(42);
    }
    throw CrashPointReached(crash_->written);
  }
}

void FileSink::flush() {
  impl_->out.flush();
  if (!impl_->out) throw std::runtime_error("FileSink: flush failed");
}

// ------------------------------------------------------------------- journal

const char* to_string(JournalError e) noexcept {
  switch (e) {
    case JournalError::kNone:
      return "none";
    case JournalError::kMissing:
      return "missing";
    case JournalError::kTornHeader:
      return "torn-header";
    case JournalError::kBadMagic:
      return "bad-magic";
    case JournalError::kVersionMismatch:
      return "version-mismatch";
    case JournalError::kTornTail:
      return "torn-tail";
  }
  return "?";
}

JournalScan scan_journal(const std::string& path) {
  JournalScan scan;
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    scan.error = JournalError::kMissing;
    return scan;
  }
  std::vector<std::uint8_t> b{std::istreambuf_iterator<char>(in), {}};
  scan.file_bytes = b.size();
  const CheckpointError tag = check_tag(b, kJournalTag);
  if (tag != CheckpointError::kNone) {
    // A short file is a crash before the header landed; a full foreign
    // header is not crash damage.
    scan.error = tag == CheckpointError::kTruncated ? JournalError::kTornHeader
                 : tag == CheckpointError::kBadMagic
                     ? JournalError::kBadMagic
                     : JournalError::kVersionMismatch;
    return scan;
  }
  scan.valid_bytes = kJournalHeaderBytes;
  ByteReader r(std::span<const std::uint8_t>(b).subspan(kJournalHeaderBytes),
               "scan_journal");
  while (r.left() > 0) {
    if (!r.can_read(4 + 8)) {
      scan.error = JournalError::kTornTail;  // partial record header
      return scan;
    }
    const std::uint32_t len = r.u32();
    const std::uint64_t want = r.u64();
    if (len > kJournalMaxPayload || !r.can_read(len)) {
      scan.error = JournalError::kTornTail;  // partial (or absurd) payload
      return scan;
    }
    const std::span<const std::uint8_t> payload = r.view(len);
    if (fnv1a64(payload) != want) {
      // A checksum break is treated as tail damage: everything from this
      // record on is dropped (crash-only fault model — see header).
      scan.error = JournalError::kTornTail;
      return scan;
    }
    scan.records.emplace_back(payload.begin(), payload.end());
    scan.valid_bytes += 4 + 8 + std::uint64_t{len};
  }
  return scan;
}

bool repair_journal(const std::string& path) {
  const JournalScan scan = scan_journal(path);
  switch (scan.error) {
    case JournalError::kNone:
    case JournalError::kMissing:
      return false;
    case JournalError::kBadMagic:
    case JournalError::kVersionMismatch:
      throw std::runtime_error("repair_journal: " + path + " is " +
                               to_string(scan.error) +
                               " — refusing to truncate a foreign file");
    case JournalError::kTornHeader:
      // Nothing durable inside — remove the husk entirely (a zero-byte
      // file would classify as torn forever).
      std::filesystem::remove(path);
      return true;
    case JournalError::kTornTail:
      break;
  }
  std::filesystem::resize_file(path, scan.valid_bytes);
  return true;
}

JournalWriter::JournalWriter(const std::string& path, FileSink::Mode mode,
                             CrashPoint* crash)
    : sink_(path,
            [&] {
              if (mode == FileSink::Mode::kAppend) {
                std::error_code ec;
                const auto size = std::filesystem::file_size(path, ec);
                // A missing or header-less file cannot be appended to —
                // restart it fresh (the header is rewritten below).
                if (ec || size < kJournalHeaderBytes) {
                  return FileSink::Mode::kTruncate;
                }
              }
              return mode;
            }(),
            crash) {
  if (sink_.bytes_written() == 0 &&
      [&] {
        std::error_code ec;
        const auto size = std::filesystem::file_size(path, ec);
        return !ec && size >= kJournalHeaderBytes;
      }()) {
    return;  // appending to an existing, headered journal
  }
  std::vector<std::uint8_t> header;
  put_tag(header, kJournalTag);
  sink_.write(header);
  sink_.flush();
}

std::uint64_t JournalWriter::append(std::span<const std::uint8_t> payload) {
  if (payload.size() > kJournalMaxPayload) {
    throw std::invalid_argument("JournalWriter::append: payload too large");
  }
  std::vector<std::uint8_t> rec;
  rec.reserve(12 + payload.size());
  put_u32(rec, static_cast<std::uint32_t>(payload.size()));
  put_u64(rec, fnv1a64(payload));
  rec.insert(rec.end(), payload.begin(), payload.end());
  sink_.write(rec);
  sink_.flush();
  ++records_;
  return rec.size();
}

}  // namespace dapsp
