// The one codec for the repo's framed byte blobs (DESIGN.md §14, §15, §17):
// the DJRN write-ahead journal (util/journal.h), the DSVC service checkpoint
// (core/service.h) and the DQRY query snapshot (core/query.h).
//
// Every format is the same frame:
//     magic[4] | version[4] | little-endian fields ... | [u64 seal]
// and this module owns the four things the formats share:
//
//   * the 8-byte tag check — magic and version are raw bytes, so DJRN's
//     LE u32 version and DSVC/DQRY's ASCII "0001" compare alike;
//   * the little-endian writer (put_*) and the bounds-checked reader
//     (ByteReader), whose span views let DQRY serve tables zero-copy;
//   * the trailing FNV-1a 64 seal over every byte before it (DSVC, DQRY;
//     DJRN checksums each record instead);
//   * the CheckpointError taxonomy every classifier reports in.
//
// Each format keeps its own tag constant and its one parser; adding or
// versioning a format touches that format's module only.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

namespace dapsp {

// The frames are little-endian on disk and the codec copies native words
// (DQRY's zero-copy tables are read in place), so hosts must be LE. Every
// target this repo builds for is.
static_assert(std::endian::native == std::endian::little,
              "framed blobs assume a little-endian host");

// FNV-1a 64 offset basis: the hash of no bytes.
inline constexpr std::uint64_t kFnv1a64Offset = 0xcbf29ce484222325ULL;

// FNV-1a 64-bit over `bytes`, continuing from `h` (default: a fresh hash) —
// the repo's one hash: journal records, the seals, and the overload
// simulator's completion digest.
std::uint64_t fnv1a64(std::span<const std::uint8_t> bytes,
                      std::uint64_t h = kFnv1a64Offset) noexcept;

// Why a framed blob was rejected — the distinct failure modes a durable
// deployment must tell apart. kTruncated is what a process kill mid-write
// leaves; kChecksumMismatch is bit damage of a full-length blob;
// kVersionMismatch is a blob from a different format version (right magic,
// wrong version) and must not be repaired away.
enum class CheckpointError : std::uint8_t {
  kNone = 0,
  kMissing = 1,           // no bytes at all
  kTruncated = 2,         // shorter than its own structure claims
  kBadMagic = 3,          // not this format
  kVersionMismatch = 4,   // right magic, different version
  kChecksumMismatch = 5,  // full structure, body damaged (or bytes appended)
  kBadPayload = 6,        // seal holds but a field is inconsistent
};

const char* to_string(CheckpointError e) noexcept;

// ---- tag -------------------------------------------------------------------

struct FrameTag {
  char magic[4];
  char version[4];
};
inline constexpr std::size_t kFrameTagBytes = 8;

// kTruncated (fewer than 8 bytes), kBadMagic, kVersionMismatch, or kNone.
CheckpointError check_tag(std::span<const std::uint8_t> blob,
                          const FrameTag& tag) noexcept;

// ---- writer ----------------------------------------------------------------

// The 8 little-endian bytes of `v` (the low 4 are the u32 encoding).
inline std::array<std::uint8_t, 8> le_bytes(std::uint64_t v) noexcept {
  return std::bit_cast<std::array<std::uint8_t, 8>>(v);
}

void put_tag(std::vector<std::uint8_t>& out, const FrameTag& tag);
void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v);
void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v);
void put_u32s(std::vector<std::uint8_t>& out,
              std::span<const std::uint32_t> vs);

// ---- seal ------------------------------------------------------------------

// Appends fnv1a64 of everything in `out` as a u64.
void seal(std::vector<std::uint8_t>& out);
// True when `blob` ends in the seal of the bytes before it.
bool seal_ok(std::span<const std::uint8_t> blob) noexcept;

// ---- reader ----------------------------------------------------------------

// Bounds-checked little-endian reader. Throws std::runtime_error with
// `context` in the message when a read would run past the end.
class ByteReader {
 public:
  ByteReader(std::span<const std::uint8_t> bytes, const char* context)
      : p_(bytes.data()), left_(bytes.size()), context_(context) {}

  std::size_t left() const noexcept { return left_; }
  bool can_read(std::size_t k) const noexcept { return left_ >= k; }

  std::uint8_t u8() { return view(1)[0]; }
  std::uint32_t u32() { return load<std::uint32_t>(); }
  std::uint64_t u64() { return load<std::uint64_t>(); }
  // The next `count` items of `width` bytes each, in place (no copy). The
  // size check cannot overflow, whatever count a damaged field claims.
  std::span<const std::uint8_t> view(std::uint64_t count,
                                     std::size_t width = 1);
  void skip(std::uint64_t k) { view(k); }

 private:
  template <class T>
  T load() {
    T v{};
    std::memcpy(&v, view(sizeof v).data(), sizeof v);
    return v;
  }

  const std::uint8_t* p_;
  std::size_t left_;
  const char* context_;
};

}  // namespace dapsp
