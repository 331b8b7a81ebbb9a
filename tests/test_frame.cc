// The framed-blob codec (util/frame.h) and the three formats built on it:
// byte-identity pins of fixed DJRN, DSVC and DQRY encodings, and a seeded,
// structure-aware adversarial sweep over one small blob of each format.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "core/distance_labels.h"
#include "core/query.h"
#include "core/service.h"
#include "graph/delta.h"
#include "graph/generators.h"
#include "util/frame.h"
#include "util/journal.h"
#include "util/rng.h"

namespace dapsp::core {
namespace {

namespace fs = std::filesystem;

std::string temp_path(const std::string& name) {
  return (fs::path(::testing::TempDir()) / name).string();
}

std::vector<std::uint8_t> read_all(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(in), {});
}

// A fixed batch sequence touching every ChurnBatch field.
std::vector<ChurnBatch> pinned_batches() {
  ChurnBatch a;
  a.deltas = {{DeltaKind::kEdgeInsert, 0, 5}, {DeltaKind::kEdgeRemove, 0, 1}};
  ChurnBatch b;
  b.deltas = {{DeltaKind::kNodeLeave, 7, 7}, {DeltaKind::kNodeJoin, 7, 7}};
  b.crashes = {3, 11};
  b.corrupt_flips = 2;
  b.corrupt_seed = 0x1234567890abcdefULL;
  return {a, b, ChurnBatch{}};
}

std::vector<std::uint8_t> pinned_journal() {
  const std::string path = temp_path("pin.wal");
  fs::remove(path);
  {
    JournalWriter w(path, FileSink::Mode::kTruncate);
    for (const ChurnBatch& b : pinned_batches()) {
      w.append(encode_churn_batch(b));
    }
  }
  return read_all(path);
}

// grid(4, 4) after edge-only churn: no node ever leaves.
DapspService pinned_service() {
  DapspService svc(gen::grid(4, 4), {});
  ChurnBatch a;
  a.deltas = {{DeltaKind::kEdgeRemove, 0, 1}, {DeltaKind::kEdgeInsert, 0, 5}};
  svc.step(a);
  ChurnBatch b;
  b.deltas = {{DeltaKind::kEdgeRemove, 5, 6}, {DeltaKind::kEdgeInsert, 3, 12}};
  svc.step(b);
  return svc;
}

// ------------------------------------------------------- byte-identity pins

// fnv1a64 of fixed encodings of every format. A change to any of these
// values moves bytes on disk: bump that format's version instead.
TEST(FramePin, JournalBytes) {
  const std::vector<std::uint8_t> j = pinned_journal();
  EXPECT_EQ(j.size(), 148u);
  EXPECT_EQ(fnv1a64(j), 0xb74d4a936307e864ULL);
}

TEST(FramePin, CheckpointBytes) {
  DapspService svc = pinned_service();
  const std::uint64_t words[] = {7, 0xfeedfacecafebeefULL};
  const std::vector<std::uint8_t> blob = svc.checkpoint_blob(words);
  EXPECT_EQ(blob.size(), 4380u);
  EXPECT_EQ(fnv1a64(blob), 0x8efff6d6f7e579eeULL);
}

TEST(FramePin, QueryBytes) {
  const DapspService svc = pinned_service();
  const std::vector<std::uint8_t> plain =
      encode_query_snapshot(svc, /*sequence=*/3, /*degraded=*/true);
  EXPECT_EQ(plain.size(), 2128u);
  EXPECT_EQ(fnv1a64(plain), 0x946ea0abb489a00fULL);

  const DistanceLabeling lab =
      build_distance_labels(svc.dynamic_graph().snapshot(), 1);
  const std::vector<std::uint8_t> labeled =
      encode_query_snapshot(svc, /*sequence=*/4, /*degraded=*/false, &lab);
  EXPECT_EQ(labeled.size(), 2672u);
  EXPECT_EQ(fnv1a64(labeled), 0xd3e7126a9817a218ULL);
}

// ------------------------------------------------------------ the codec

TEST(Frame, TagCheckTellsTruncationMagicAndVersionApart) {
  const FrameTag tag{{'T', 'E', 'S', 'T'}, {1, 0, 0, 0}};
  std::vector<std::uint8_t> b;
  put_tag(b, tag);
  EXPECT_EQ(check_tag(b, tag), CheckpointError::kNone);
  EXPECT_EQ(check_tag(std::span(b).first(7), tag), CheckpointError::kTruncated);
  b[4] = 2;
  EXPECT_EQ(check_tag(b, tag), CheckpointError::kVersionMismatch);
  b[0] = 'X';
  EXPECT_EQ(check_tag(b, tag), CheckpointError::kBadMagic);
}

TEST(Frame, WriterAndReaderRoundTripLittleEndian) {
  std::vector<std::uint8_t> b;
  put_u32(b, 0x04030201u);
  put_u64(b, 0x0c0b0a0908070605ULL);
  const std::uint32_t row[] = {0x100f0e0du, 0x14131211u};
  put_u32s(b, row);
  for (std::size_t i = 0; i < b.size(); ++i) EXPECT_EQ(b[i], i + 1);
  ByteReader r(b, "test");
  EXPECT_EQ(r.u32(), 0x04030201u);
  EXPECT_EQ(r.u64(), 0x0c0b0a0908070605ULL);
  EXPECT_EQ(r.view(2, 4).size(), 8u);
  EXPECT_EQ(r.left(), 0u);
  EXPECT_THROW(r.u8(), std::runtime_error);
  ByteReader huge(b, "test");
  EXPECT_THROW(huge.view(~std::uint64_t{0}, 8), std::runtime_error);
}

TEST(Frame, SealCoversEveryByteBeforeIt) {
  std::vector<std::uint8_t> b = {1, 2, 3};
  seal(b);
  EXPECT_TRUE(seal_ok(b));
  for (std::size_t i = 0; i < b.size(); ++i) {
    std::vector<std::uint8_t> bad = b;
    bad[i] ^= 0x01;
    EXPECT_FALSE(seal_ok(bad)) << "byte " << i;
  }
  EXPECT_FALSE(seal_ok(std::span(b).first(7)));
}

// ----------------------------------------------------- adversarial sweep
//
// One seeded, structure-aware sweep over a small blob of each format: every
// header bit flipped, every length or count field lied about, and two files
// spliced at every byte — DSVC and DQRY mutants re-sealed as well, so field
// validation is reached. Every input must classify without a crash; a DSVC
// or DQRY blob that classifies kNone must restore or bind, which shows that
// the classify walk and the parse walk agree.

using Blob = std::vector<std::uint8_t>;

struct CountField {
  std::size_t at;
  std::size_t width;  // 4 or 8
};

void overwrite(Blob& b, const CountField& f, std::uint64_t v) {
  const std::array<std::uint8_t, 8> le = le_bytes(v);
  std::copy_n(le.begin(), f.width, b.begin() + static_cast<long>(f.at));
}

void reseal(Blob& b) {
  b.erase(b.end() - 8, b.end());
  seal(b);
}

// Calls `check` on every mutant of `blob` (and, when `sealed`, on its
// re-sealed twin).
void sweep(const Blob& blob, const Blob& other, std::size_t header_bytes,
           const std::vector<CountField>& counts, bool sealed,
           std::uint64_t seed, const std::function<void(const Blob&)>& check) {
  const auto emit = [&](Blob b) {
    check(b);
    if (sealed && b.size() >= 8) {
      reseal(b);
      check(b);
    }
  };
  for (std::size_t bit = 0; bit < 8 * header_bytes; ++bit) {
    Blob b = blob;
    b[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    emit(b);
  }
  Rng rng(seed);
  for (const CountField& f : counts) {
    const std::uint64_t max = f.width == 4 ? 0xffffffffULL : ~0ULL;
    ByteReader r{std::span(blob).subspan(f.at), "test"};
    const std::uint64_t v = f.width == 4 ? r.u32() : r.u64();
    std::vector<std::uint64_t> lies = {
        0, 1, v - 1, v + 1, 2 * v, v + 8, max, max / 2 + 1, max / 16 + 1};
    for (int i = 0; i < 8; ++i) lies.push_back(rng() % (4 * v + 16));
    for (int i = 0; i < 4; ++i) lies.push_back(rng());
    for (const std::uint64_t lie : lies) {
      Blob b = blob;
      overwrite(b, f, lie & max);
      emit(b);
    }
  }
  for (std::size_t k = 0; k <= std::min(blob.size(), other.size()); ++k) {
    Blob b(blob.begin(), blob.begin() + static_cast<long>(k));
    b.insert(b.end(), other.begin() + static_cast<long>(k), other.end());
    emit(b);
  }
}

std::uint64_t read_u64(const Blob& b, std::size_t at) {
  ByteReader r{std::span(b).subspan(at), "test"};
  return r.u64();
}

TEST(FrameSweep, JournalScansEveryMutantAndRepairsTornOnes) {
  const Blob a = pinned_journal();
  const std::string spliced = temp_path("sweep.wal");
  fs::remove(spliced);
  {
    JournalWriter w(spliced, FileSink::Mode::kTruncate);
    ChurnBatch b;
    b.deltas = {{DeltaKind::kEdgeRemove, 2, 9}};
    for (int i = 0; i < 3; ++i) w.append(encode_churn_batch(b));
  }
  const Blob other = read_all(spliced);
  std::vector<CountField> counts;
  for (std::size_t at = kJournalHeaderBytes; at < a.size();) {
    counts.push_back({at, 4});
    ByteReader r{std::span(a).subspan(at), "test"};
    at += 12 + r.u32();
  }
  ASSERT_EQ(counts.size(), 3u);

  const std::string path = temp_path("mutant.wal");
  std::size_t torn = 0;
  sweep(a, other, kJournalHeaderBytes, counts, /*sealed=*/false, 15,
        [&](const Blob& b) {
          {
            std::ofstream out(path, std::ios::binary | std::ios::trunc);
            out.write(reinterpret_cast<const char*>(b.data()),
                      static_cast<std::streamsize>(b.size()));
          }
          const JournalScan s = scan_journal(path);
          switch (s.error) {
            case JournalError::kNone:
              for (const Blob& rec : s.records) {
                EXPECT_NO_THROW(decode_churn_batch(rec));
              }
              break;
            case JournalError::kBadMagic:
            case JournalError::kVersionMismatch:
              EXPECT_THROW(repair_journal(path), std::runtime_error);
              break;
            case JournalError::kTornHeader:
            case JournalError::kTornTail: {
              ++torn;
              EXPECT_TRUE(repair_journal(path));
              const JournalError after = scan_journal(path).error;
              EXPECT_TRUE(after == JournalError::kNone ||
                          after == JournalError::kMissing)
                  << to_string(after);
              break;
            }
            case JournalError::kMissing:
              ADD_FAILURE() << "a written file scans as missing";
              break;
          }
        });
  EXPECT_GT(torn, 0u);
}

TEST(FrameSweep, CheckpointClassifiesEveryMutantAndKNoneRestores) {
  DapspService svc = pinned_service();
  const std::uint64_t words[] = {7, 9};
  const Blob a = svc.checkpoint_blob(words);
  // Same universe and edge count, different edges, epoch and words.
  ChurnBatch swap;
  swap.deltas = {{DeltaKind::kEdgeRemove, 10, 11},
                 {DeltaKind::kEdgeInsert, 2, 13}};
  svc.step(swap);
  const std::uint64_t other_words[] = {1, 2};
  const Blob other = svc.checkpoint_blob(other_words);
  ASSERT_EQ(a.size(), other.size());

  const std::size_t n = 16, user_count = 2;
  const std::size_t edges_at = 28 + 8 * user_count + n;
  ASSERT_EQ(read_u64(a, 20), user_count);
  const std::vector<CountField> counts = {{8, 4}, {20, 8}, {edges_at, 8}};
  std::size_t none = 0, bad_payload = 0;
  sweep(a, other, 28, counts, /*sealed=*/true, 15, [&](const Blob& b) {
    const CheckpointError err = classify_checkpoint_blob(b);
    CheckpointError tried = CheckpointError::kMissing;
    std::vector<std::uint64_t> got;
    const std::optional<DapspService> back =
        DapspService::try_restore_blob(b, {}, &got, &tried);
    EXPECT_EQ(tried, err) << to_string(tried) << " vs " << to_string(err);
    EXPECT_EQ(back.has_value(), err == CheckpointError::kNone);
    none += err == CheckpointError::kNone;
    bad_payload += err == CheckpointError::kBadPayload;
  });
  EXPECT_GT(none, 0u);
  EXPECT_GT(bad_payload, 0u);
}

void expect_binds(const Blob& b, std::size_t& none) {
  const CheckpointError err = classify_query_blob(b);
  if (err != CheckpointError::kNone) {
    EXPECT_THROW(QuerySnapshot::from_blob(b), std::runtime_error);
    return;
  }
  ++none;
  const QuerySnapshot snap = QuerySnapshot::from_blob(b);
  for (NodeId u = 0; u < snap.n(); ++u) {
    snap.p2p(u, snap.n() - 1 - u);
    snap.k_nearest(u, 3);
    snap.eccentricity(u);
    if (snap.has_labels()) snap.label_estimate(u, 0);
  }
}

TEST(FrameSweep, QueryClassifiesEveryMutantAndKNoneBinds) {
  const DapspService svc = pinned_service();
  const DistanceLabeling lab =
      build_distance_labels(svc.dynamic_graph().snapshot(), 1);
  const Blob a = encode_query_snapshot(svc, 3, false, &lab);
  DapspService moved = pinned_service();
  ChurnBatch swap;
  swap.deltas = {{DeltaKind::kEdgeRemove, 10, 11},
                 {DeltaKind::kEdgeInsert, 2, 13}};
  moved.step(swap);
  const DistanceLabeling lab2 =
      build_distance_labels(moved.dynamic_graph().snapshot(), 1);
  const Blob other = encode_query_snapshot(moved, 4, true, &lab2);

  const std::vector<CountField> counts = {{8, 4}, {36, 4}};
  std::size_t none = 0;
  sweep(a, other, 40, counts, /*sealed=*/true, 15,
        [&](const Blob& b) { expect_binds(b, none); });
  // Without labels too: the label section's absence is its own shape.
  const Blob plain = encode_query_snapshot(svc, 3, false);
  const Blob plain_other = encode_query_snapshot(moved, 4, true);
  sweep(plain, plain_other, 40, counts, /*sealed=*/true, 16,
        [&](const Blob& b) { expect_binds(b, none); });
  EXPECT_GT(none, 0u);
}

}  // namespace
}  // namespace dapsp::core
