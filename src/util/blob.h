// Shared blob-file conventions: read-only memory mapping and atomic writes.
//
// Every on-disk artifact in this repo (DSVC checkpoints, DJRN journals and
// DQRY query snapshots) is a framed byte blob (util/frame.h). This module
// supplies the two file-level operations those formats share:
//
//   * MappedBlob — a read-only view of a file's bytes, mmap'd when the
//     platform allows it (zero-copy: the query tier serves point lookups
//     straight off the page cache) with a plain read-into-memory fallback.
//     The view is immutable and stable for the object's lifetime, which is
//     exactly the contract the lock-free snapshot store needs.
//
//   * write_blob_atomic — tmp + rename within the target directory, the same
//     never-tear discipline as the durable layer's checkpoint rotation: a
//     reader (or a crash) can only ever observe the old bytes or the whole
//     new bytes, never a prefix.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace dapsp {

class MappedBlob {
 public:
  MappedBlob() = default;
  ~MappedBlob() { reset(); }

  MappedBlob(MappedBlob&& other) noexcept { *this = std::move(other); }
  MappedBlob& operator=(MappedBlob&& other) noexcept;
  MappedBlob(const MappedBlob&) = delete;
  MappedBlob& operator=(const MappedBlob&) = delete;

  // Maps `path` read-only. Throws std::runtime_error when the file cannot be
  // opened; an empty file maps to an empty span. Falls back to reading the
  // bytes into memory when mmap is unavailable.
  static MappedBlob map_file(const std::string& path);

  std::span<const std::uint8_t> bytes() const noexcept {
    return {data_, size_};
  }
  bool empty() const noexcept { return size_ == 0; }
  // True when the bytes are a live mmap view rather than an owned copy.
  bool is_mapped() const noexcept { return mapped_; }

 private:
  void reset() noexcept;

  const std::uint8_t* data_ = nullptr;
  std::size_t size_ = 0;
  bool mapped_ = false;                // munmap on destruction
  std::vector<std::uint8_t> owned_;    // fallback storage
};

// Writes `bytes` to `path` via a sibling temp file + rename. Throws
// std::runtime_error on any I/O failure; on failure the target is untouched.
void write_blob_atomic(const std::string& path,
                       std::span<const std::uint8_t> bytes);

}  // namespace dapsp
