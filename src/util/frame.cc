#include "util/frame.h"

#include <stdexcept>
#include <string>

namespace dapsp {

std::uint64_t fnv1a64(std::span<const std::uint8_t> bytes,
                      std::uint64_t h) noexcept {
  for (const std::uint8_t b : bytes) {
    h ^= b;
    h *= 0x100000001b3ULL;
  }
  return h;
}

const char* to_string(CheckpointError e) noexcept {
  switch (e) {
    case CheckpointError::kNone:
      return "none";
    case CheckpointError::kMissing:
      return "missing";
    case CheckpointError::kTruncated:
      return "truncated";
    case CheckpointError::kBadMagic:
      return "bad-magic";
    case CheckpointError::kVersionMismatch:
      return "version-mismatch";
    case CheckpointError::kChecksumMismatch:
      return "checksum-mismatch";
    case CheckpointError::kBadPayload:
      return "bad-payload";
  }
  return "?";
}

CheckpointError check_tag(std::span<const std::uint8_t> blob,
                          const FrameTag& tag) noexcept {
  if (blob.size() < kFrameTagBytes) return CheckpointError::kTruncated;
  if (std::memcmp(blob.data(), tag.magic, 4) != 0) {
    return CheckpointError::kBadMagic;
  }
  if (std::memcmp(blob.data() + 4, tag.version, 4) != 0) {
    return CheckpointError::kVersionMismatch;
  }
  return CheckpointError::kNone;
}

void put_tag(std::vector<std::uint8_t>& out, const FrameTag& tag) {
  out.insert(out.end(), tag.magic, tag.magic + 4);
  out.insert(out.end(), tag.version, tag.version + 4);
}

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  const std::array<std::uint8_t, 8> b = le_bytes(v);
  out.insert(out.end(), b.begin(), b.begin() + 4);
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  const std::array<std::uint8_t, 8> b = le_bytes(v);
  out.insert(out.end(), b.begin(), b.end());
}

void put_u32s(std::vector<std::uint8_t>& out,
              std::span<const std::uint32_t> vs) {
  const auto* p = reinterpret_cast<const std::uint8_t*>(vs.data());
  out.insert(out.end(), p, p + vs.size_bytes());
}

void seal(std::vector<std::uint8_t>& out) { put_u64(out, fnv1a64(out)); }

bool seal_ok(std::span<const std::uint8_t> blob) noexcept {
  // The size check keeps every read below in bounds: nothing can throw.
  if (blob.size() < 8) return false;
  ByteReader r(blob.last(8), "seal");
  return r.u64() == fnv1a64(blob.first(blob.size() - 8));
}

std::span<const std::uint8_t> ByteReader::view(std::uint64_t count,
                                               std::size_t width) {
  if (count > left_ / width) {
    throw std::runtime_error(std::string(context_) + ": truncated input");
  }
  const std::size_t k = static_cast<std::size_t>(count) * width;
  const std::span<const std::uint8_t> out(p_, k);
  p_ += k;
  left_ -= k;
  return out;
}

}  // namespace dapsp
