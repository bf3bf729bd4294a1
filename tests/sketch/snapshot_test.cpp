// Snapshot round-trip and corruption tests (DESIGN.md §5.9, docs/FORMATS.md).
//
// The contract under test: load(save(S)) is bit-for-bit S — identical query
// results, identical tracked/peak space, and identical behavior when
// ingestion CONTINUES past the restore point (cutoff, eviction order, arena free
// lists, and table geometry all survive). Fuzzed over random streams, with
// explicit budgets that cross saturation mid-stream, for every sketch type.
// Corrupt, truncated, and version-patched images must fail loudly — an
// error through the reader, never a crash or a silently wrong sketch.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <optional>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "core/subsample_sketch.hpp"
#include "core/weighted_sketch.hpp"
#include "serve/file_pass.hpp"
#include "sketch/l0_kcover.hpp"
#include "sketch/substrate/edge_arena.hpp"
#include "sketch/substrate/snapshot.hpp"
#include "stream/arrival_order.hpp"
#include "stream/file_stream.hpp"
#include "util/rng.hpp"
#include "workloads/generators.hpp"
#include "scratch_dir.hpp"

namespace covstream {
namespace {

template <typename T>
std::vector<std::uint8_t> to_bytes(const T& object) {
  SnapshotWriter writer(T::kSnapshotType);
  object.save(writer);
  return writer.finish();
}

template <typename T>
std::optional<T> from_bytes(std::vector<std::uint8_t> bytes,
                            std::string* error = nullptr) {
  SnapshotReader reader(std::move(bytes));
  std::optional<T> loaded;
  if (reader.ok() && reader.type() == T::kSnapshotType) {
    loaded = T::load_snapshot(reader);
  } else if (reader.ok()) {
    reader.fail("snapshot holds a different object type");
  }
  if (loaded && !reader.at_end()) loaded.reset();
  if (!reader.ok()) loaded.reset();
  if (error != nullptr) *error = reader.error();
  return loaded;
}

SketchParams small_params(SetId n, std::uint64_t seed, std::size_t budget) {
  SketchParams params;
  params.num_sets = n;
  params.k = 4;
  params.eps = 0.3;
  params.budget_mode = BudgetMode::kExplicit;
  params.explicit_budget = budget;
  params.hash_seed = seed;
  return params;
}

std::vector<Edge> fuzz_edges(Rng& rng, SetId n, std::size_t count) {
  std::vector<Edge> edges;
  edges.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    edges.push_back(Edge{static_cast<SetId>(rng.next_below(std::uint64_t{n})),
                         rng.next_below(std::uint64_t{1} << 16)});
  }
  return edges;
}

/// The strongest equality there is: serialize both and compare images.
/// Covers every queryable field plus the space counters at once.
template <typename T>
void expect_image_equal(const T& a, const T& b, const char* what) {
  ASSERT_EQ(to_bytes(a), to_bytes(b)) << what;
}

// ------------------------------------------------------------ round trips ----

TEST(Snapshot, SubsampleRoundTripFuzz) {
  Rng rng(0x5AFE5AFEULL);
  for (int trial = 0; trial < 20; ++trial) {
    const SetId n = 5 + static_cast<SetId>(rng.next_below(std::uint64_t{40}));
    // Budgets small enough that most trials saturate (the interesting case:
    // finite cutoff, eviction queue built, arena churn) but some stay
    // unsaturated.
    const std::size_t budget = 8 + rng.next_below(std::uint64_t{400});
    const SketchParams params = small_params(n, rng.next(), budget);
    const std::vector<Edge> edges =
        fuzz_edges(rng, n, 50 + rng.next_below(std::uint64_t{3000}));
    const std::size_t split = edges.size() / 2;

    SubsampleSketch original(params);
    original.update_chunk(std::span<const Edge>(edges.data(), split));

    std::optional<SubsampleSketch> loaded =
        from_bytes<SubsampleSketch>(to_bytes(original));
    ASSERT_TRUE(loaded) << "trial " << trial;

    // Identical queries and space at the restore point...
    ASSERT_EQ(loaded->retained_elements(), original.retained_elements());
    ASSERT_EQ(loaded->stored_edges(), original.stored_edges());
    ASSERT_EQ(loaded->p_star(), original.p_star());
    ASSERT_EQ(loaded->space_words(), original.space_words());
    ASSERT_EQ(loaded->peak_space_words(), original.peak_space_words());
    for (int q = 0; q < 8; ++q) {
      std::vector<SetId> family;
      for (SetId s = 0; s < n; ++s) {
        if (rng.next_bool(0.3)) family.push_back(s);
      }
      ASSERT_EQ(loaded->estimate_coverage(family),
                original.estimate_coverage(family))
          << "trial " << trial;
    }
    expect_image_equal(original, *loaded, "re-serialized image");

    // ...and identical behavior when ingestion continues past it (this is
    // what proves cutoff/keys/free lists were restored, not just the view).
    original.update_chunk(std::span<const Edge>(edges.data() + split,
                                                edges.size() - split));
    loaded->update_chunk(std::span<const Edge>(edges.data() + split,
                                               edges.size() - split));
    expect_image_equal(original, *loaded, "image after continued ingest");
  }
}

TEST(Snapshot, SubsampleMidSaturationRoundTrip) {
  // Snapshot taken exactly in the regime the paper lives in: budget blown,
  // evictions ongoing, cutoff finite.
  Rng rng(0x0DDBA11ULL);
  const SketchParams params = small_params(20, 99, /*budget=*/32);
  const std::vector<Edge> edges = fuzz_edges(rng, 20, 4000);
  SubsampleSketch sketch(params);
  for (std::size_t i = 0; i < edges.size(); ++i) {
    sketch.update(edges[i]);
    if (sketch.saturated() && i >= edges.size() / 3) break;
  }
  ASSERT_TRUE(sketch.saturated());
  std::optional<SubsampleSketch> loaded =
      from_bytes<SubsampleSketch>(to_bytes(sketch));
  ASSERT_TRUE(loaded);
  expect_image_equal(sketch, *loaded, "mid-saturation image");
  for (const Edge& edge : edges) {  // keep churning evictions on both
    sketch.update(edge);
    loaded->update(edge);
  }
  expect_image_equal(sketch, *loaded, "post-churn image");
}

TEST(Snapshot, WeightedRoundTripFuzz) {
  Rng rng(0x3E1674EDULL);
  for (int trial = 0; trial < 12; ++trial) {
    const SetId n = 5 + static_cast<SetId>(rng.next_below(std::uint64_t{30}));
    const SketchParams params =
        small_params(n, rng.next(), 8 + rng.next_below(std::uint64_t{300}));
    std::vector<WeightedEdge> edges;
    for (std::size_t i = 0; i < 50 + rng.next_below(std::uint64_t{2000}); ++i) {
      const ElemId elem = rng.next_below(std::uint64_t{1} << 14);
      // Weight must be a function of the element across arrivals.
      edges.push_back(WeightedEdge{
          static_cast<SetId>(rng.next_below(std::uint64_t{n})), elem,
          0.25 + static_cast<double>(elem % 16)});
    }
    const std::size_t split = edges.size() / 2;
    WeightedSubsampleSketch original(params);
    original.update_chunk(std::span<const WeightedEdge>(edges.data(), split));

    std::optional<WeightedSubsampleSketch> loaded =
        from_bytes<WeightedSubsampleSketch>(to_bytes(original));
    ASSERT_TRUE(loaded) << "trial " << trial;
    ASSERT_EQ(loaded->tau_star(), original.tau_star());
    ASSERT_EQ(loaded->space_words(), original.space_words());
    for (int q = 0; q < 6; ++q) {
      std::vector<SetId> family;
      for (SetId s = 0; s < n; ++s) {
        if (rng.next_bool(0.3)) family.push_back(s);
      }
      ASSERT_EQ(loaded->estimate_weighted_coverage(family),
                original.estimate_weighted_coverage(family));
    }
    original.update_chunk(std::span<const WeightedEdge>(edges.data() + split,
                                                        edges.size() - split));
    loaded->update_chunk(std::span<const WeightedEdge>(edges.data() + split,
                                                       edges.size() - split));
    expect_image_equal(original, *loaded, "weighted continued-ingest image");
  }
}

TEST(Snapshot, L0KCoverRoundTrip) {
  Rng rng(0x10C0FE4ULL);
  const SetId n = 16;
  L0KCover original(n, /*sketch_capacity=*/32, /*seed=*/11);
  for (const Edge& edge : fuzz_edges(rng, n, 6000)) original.update(edge);

  std::optional<L0KCover> loaded = from_bytes<L0KCover>(to_bytes(original));
  ASSERT_TRUE(loaded);
  ASSERT_EQ(loaded->space_words(), original.space_words());
  for (int q = 0; q < 8; ++q) {
    std::vector<SetId> family;
    for (SetId s = 0; s < n; ++s) {
      if (rng.next_bool(0.4)) family.push_back(s);
    }
    ASSERT_EQ(loaded->estimate_coverage(family),
              original.estimate_coverage(family));
  }
  expect_image_equal(original, *loaded, "l0 bank image");
}

TEST(Snapshot, IngestCheckpointRoundTrip) {
  Rng rng(0xC4EC4ULL);
  SubsampleSketch sketch(small_params(12, 5, 64));
  const std::vector<Edge> edges = fuzz_edges(rng, 12, 800);
  sketch.update_chunk(edges);
  const IngestCheckpoint original{
      StreamEngine::ResumePoint{12345, 800, 800}, sketch};
  std::optional<IngestCheckpoint> loaded =
      from_bytes<IngestCheckpoint>(to_bytes(original));
  ASSERT_TRUE(loaded);
  EXPECT_EQ(loaded->resume.stream_position, 12345u);
  EXPECT_EQ(loaded->resume.edges_read, 800u);
  EXPECT_EQ(loaded->resume.edges_kept, 800u);
  expect_image_equal(original.sketch, loaded->sketch, "checkpoint sketch");
}

TEST(Snapshot, FileRoundTrip) {
  Rng rng(0xF11EULL);
  SubsampleSketch sketch(small_params(10, 3, 48));
  sketch.update_chunk(fuzz_edges(rng, 10, 900));
  const std::string path = scratch_path("covstream_snapshot_test.snap");
  std::string error;
  ASSERT_TRUE(save_snapshot(sketch, path, &error)) << error;
  std::optional<SubsampleSketch> loaded =
      load_snapshot<SubsampleSketch>(path, &error);
  ASSERT_TRUE(loaded) << error;
  expect_image_equal(sketch, *loaded, "file round trip");
  std::remove(path.c_str());
}

// --------------------------------------------------------- loud failures ----

std::vector<std::uint8_t> sample_image() {
  Rng rng(0xBADF00DULL);
  SubsampleSketch sketch(small_params(14, 21, 40));
  sketch.update_chunk(fuzz_edges(rng, 14, 1200));
  return to_bytes(sketch);
}

TEST(Snapshot, CorruptBytesFailLoudly) {
  const std::vector<std::uint8_t> image = sample_image();
  // Flip one byte at a spread of offsets: header, early payload, deep
  // payload, checksum. Every single-byte corruption must be rejected (the
  // frame checks or the checksum catch it) — and never crash.
  for (const std::size_t at :
       {std::size_t{0}, std::size_t{9}, std::size_t{13}, std::size_t{40},
        image.size() / 2, image.size() - 1}) {
    std::vector<std::uint8_t> corrupt = image;
    corrupt[at] ^= 0x40;
    std::string error;
    EXPECT_FALSE(from_bytes<SubsampleSketch>(std::move(corrupt), &error))
        << "offset " << at;
    EXPECT_FALSE(error.empty()) << "offset " << at;
  }
}

TEST(Snapshot, TruncationFailsLoudly) {
  const std::vector<std::uint8_t> image = sample_image();
  for (const std::size_t keep :
       {std::size_t{0}, std::size_t{7}, std::size_t{31}, std::size_t{100},
        image.size() / 2, image.size() - 1}) {
    std::vector<std::uint8_t> truncated(image.begin(), image.begin() + keep);
    std::string error;
    EXPECT_FALSE(from_bytes<SubsampleSketch>(std::move(truncated), &error))
        << "kept " << keep;
    EXPECT_NE(error.find("truncated"), std::string::npos) << error;
  }
}

TEST(Snapshot, VersionMismatchNamesTheVersion) {
  std::vector<std::uint8_t> image = sample_image();
  const std::uint32_t future = kSnapshotVersion + 1;
  std::memcpy(image.data() + 8, &future, sizeof future);
  std::string error;
  EXPECT_FALSE(from_bytes<SubsampleSketch>(std::move(image), &error));
  EXPECT_NE(error.find("version"), std::string::npos) << error;
}

TEST(Snapshot, WrongObjectTypeFails) {
  std::string error;
  EXPECT_FALSE(from_bytes<WeightedSubsampleSketch>(sample_image(), &error));
  EXPECT_NE(error.find("different object type"), std::string::npos) << error;
}

TEST(Snapshot, MissingFileFails) {
  std::string error;
  EXPECT_FALSE(load_snapshot<SubsampleSketch>(
      scratch_path("does_not_exist.snap"), &error));
  EXPECT_FALSE(error.empty());
}

TEST(Snapshot, ForgedPayloadWithValidChecksumFails) {
  // Re-frame a tampered payload with a RECOMPUTED checksum: the structural
  // validators (not the checksum) must catch it. Corrupt the stored-edges
  // count inside the core section.
  Rng rng(0xF02A6EDULL);
  SubsampleSketch sketch(small_params(14, 21, 40));
  sketch.update_chunk(fuzz_edges(rng, 14, 1200));
  std::vector<std::uint8_t> image = to_bytes(sketch);
  // Locate the 'CORE' section tag, then skip tag+len+cap+budget+inf+cutoff+
  // queue_built to the stored_edges field and bump it.
  const std::uint32_t core_tag = snapshot_tag('C', 'O', 'R', 'E');
  std::size_t core_at = 0;
  for (std::size_t i = 32; i + 4 <= image.size(); ++i) {
    std::uint32_t tag;
    std::memcpy(&tag, image.data() + i, sizeof tag);
    if (tag == core_tag) {
      core_at = i;
      break;
    }
  }
  ASSERT_NE(core_at, 0u);
  const std::size_t stored_edges_at = core_at + 4 + 8 + 8 + 8 + 8 + 8 + 1;
  image[stored_edges_at] ^= 0x1;
  const std::uint64_t checksum = snapshot_checksum(
      std::span<const std::uint8_t>(image.data(), image.size() - 8));
  std::memcpy(image.data() + image.size() - 8, &checksum, sizeof checksum);
  std::string error;
  EXPECT_FALSE(from_bytes<SubsampleSketch>(std::move(image), &error));
  EXPECT_NE(error.find("minhash core"), std::string::npos) << error;
}

TEST(Snapshot, VersionOneImageIsRefused) {
  // Version 1 stored dedupe_edges in PRMS and knew no bitmap spans; its
  // bytes are refused by the frame check, never reinterpreted.
  std::vector<std::uint8_t> image = sample_image();
  const std::uint32_t version_one = 1;
  std::memcpy(image.data() + 8, &version_one, sizeof version_one);
  std::string error;
  EXPECT_FALSE(from_bytes<SubsampleSketch>(std::move(image), &error));
  EXPECT_NE(error.find("version 1"), std::string::npos) << error;
}

TEST(Snapshot, VersionTwoImageIsRefused) {
  // Version 2 kept a saturated core's keys in a 'HEAP' section and no flat
  // keys; its bytes are refused by the frame check, never reinterpreted.
  std::vector<std::uint8_t> image = sample_image();
  const std::uint32_t version_two = 2;
  std::memcpy(image.data() + 8, &version_two, sizeof version_two);
  std::string error;
  EXPECT_FALSE(from_bytes<SubsampleSketch>(std::move(image), &error));
  EXPECT_NE(error.find("version 2"), std::string::npos) << error;
}

// ------------------------------------------------------- forged edge lists ----

/// An image whose lists take all three forms — n = 150, so inline up to 2
/// sets, sorted up to the 8-word bitmap block, bitmap past it — plus byte
/// offsets into it for forging span records and slab words.
struct ForgeTarget {
  std::vector<std::uint8_t> image;
  std::size_t spans_at = 0;    // first 14-byte span record in 'CORE'
  std::size_t span_count = 0;
  std::size_t slab_at = 0;     // first u32 of the 'ARNA' slab

  struct Span {
    std::size_t at;  // offset of the record
    std::uint32_t block, size;
    std::uint8_t form, cap_log2;
  };

  /// The first live span record of `form` holding at least `min_size` sets.
  Span span(std::uint8_t form, std::uint32_t min_size) const {
    for (std::size_t i = 0; i < span_count; ++i) {
      Span found{spans_at + 14 * i, 0, 0, 0, 0};
      std::memcpy(&found.block, image.data() + found.at, 4);
      std::memcpy(&found.size, image.data() + found.at + 8, 4);
      found.form = image[found.at + 12];
      found.cap_log2 = image[found.at + 13];
      if (found.form == form && found.size >= min_size) return found;
    }
    ADD_FAILURE() << "no span of form " << int{form};
    return {};
  }

  /// Byte offset of slab word `word` of a span's block.
  std::size_t slab_word(const Span& span, std::uint32_t word) const {
    return slab_at + 4 * (std::size_t{span.block} + word);
  }
};

std::size_t find_tag(const std::vector<std::uint8_t>& image, std::uint32_t tag,
                     std::size_t from) {
  for (std::size_t i = from; i + 4 <= image.size(); ++i) {
    std::uint32_t at;
    std::memcpy(&at, image.data() + i, sizeof at);
    if (at == tag) return i;
  }
  ADD_FAILURE() << "section tag not found";
  return 0;
}

std::uint64_t read_u64(const std::vector<std::uint8_t>& image, std::size_t at) {
  std::uint64_t value;
  std::memcpy(&value, image.data() + at, sizeof value);
  return value;
}

ForgeTarget forge_target() {
  SketchParams params = small_params(150, 0xF0F0, 1 << 16);
  params.enforce_degree_cap = false;
  SubsampleSketch sketch(params);
  for (ElemId e = 0; e < 60; ++e) {
    for (SetId s = 0; s <= e % 20; ++s) {
      sketch.update({static_cast<SetId>((7 * s + e) % 150), e});
    }
  }
  ForgeTarget target;
  target.image = to_bytes(sketch);
  const std::vector<std::uint8_t>& image = target.image;
  // CORE: tag, length, then cap, budget, infinite key, cutoff (8 bytes
  // each), queue_built (1), stored edges and the three space counters (8
  // each) — then arr<u64> elem, span_count, the span records.
  const std::size_t core_at = find_tag(image, snapshot_tag('C', 'O', 'R', 'E'), 32);
  const std::size_t elem_at = core_at + 12 + 4 * 8 + 1 + 4 * 8;
  const std::size_t span_count_at = elem_at + 8 + 8 * read_u64(image, elem_at);
  target.span_count = read_u64(image, span_count_at);
  target.spans_at = span_count_at + 8;
  // Past the spans: arr<u32> free slots, the keys by slot, then the
  // 'TBLE' section (skipped by its length) and 'ARNA', whose body opens
  // with the slab's arr<u32>.
  const std::size_t free_at = target.spans_at + 14 * target.span_count;
  const std::size_t keys_at = free_at + 8 + 4 * read_u64(image, free_at);
  const std::size_t table_at = keys_at + 8 + 8 * read_u64(image, keys_at);
  const std::size_t arena_at = table_at + 12 + read_u64(image, table_at + 4);
  std::uint32_t tag;
  std::memcpy(&tag, image.data() + arena_at, sizeof tag);
  EXPECT_EQ(tag, snapshot_tag('A', 'R', 'N', 'A'));
  target.slab_at = arena_at + 12 + 8;
  return target;
}

/// Re-frames `image` with a recomputed checksum and loads it: the forgery
/// must be refused by a structural check; returns the reader's error.
std::string forged_load_error(std::vector<std::uint8_t> image) {
  const std::uint64_t checksum = snapshot_checksum(
      std::span<const std::uint8_t>(image.data(), image.size() - 8));
  std::memcpy(image.data() + image.size() - 8, &checksum, sizeof checksum);
  std::string error;
  EXPECT_FALSE(from_bytes<SubsampleSketch>(std::move(image), &error));
  return error;
}

/// Byte offset of CORE's key-store mode byte: after the section tag and
/// length, cap, budget, infinite key and cutoff.
std::size_t core_mode_offset(const std::vector<std::uint8_t>& image) {
  return find_tag(image, snapshot_tag('C', 'O', 'R', 'E'), 32) + 4 + 8 * 5;
}

TEST(Snapshot, ForgedQueueFlagFails) {
  // The sample sketch is saturated (mode 1); any other value than 0 or 1 is
  // refused, not read as "queue".
  const std::vector<std::uint8_t> image = sample_image();
  const std::size_t mode_at = core_mode_offset(image);
  ASSERT_EQ(image[mode_at], 1u);
  for (const std::uint8_t forged : {std::uint8_t{2}, std::uint8_t{255}}) {
    std::vector<std::uint8_t> bad = image;
    bad[mode_at] = forged;
    const std::string error = forged_load_error(std::move(bad));
    EXPECT_NE(error.find("key-store mode"), std::string::npos) << error;
  }
}

// ------------------------------------------- images of an earlier build ----

/// CORE's tracked space counter in `image`: after the mode byte, the
/// stored edges and the base words.
std::uint64_t core_tracked_words(const std::vector<std::uint8_t>& image) {
  return read_u64(image, core_mode_offset(image) + 1 + 8 + 8);
}

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

TEST(Snapshot, ImagesOfTheFlatKeyStoreBuildLoad) {
  // Written by covstream_cli built at commit 67abc76, the last build that
  // kept a never-evicted core's keys in a flat per-slot store (CORE mode
  // byte 0) and moved them into the eviction queue at the first overflow
  // (mode 1), from tests/data:
  //   covstream_cli --cmd=generate --family=zipf --n=12 --m=600
  //       --min_size=20 --max_size=200 --seed=5 --out=compat_edges.bin
  //   covstream_cli --cmd=ingest --input=compat_edges.bin --n=12 --k=3
  //       --eps=0.1 --seed=1 --out=compat_never_evicted.snap
  //   covstream_cli --cmd=ingest --input=compat_edges.bin --n=12 --k=3
  //       --eps=0.5 --seed=1 --out=compat_saturated.snap
  // A saturated image is what this build writes, byte for byte. A
  // never-evicted one loads re-metered with the queue's key store, and
  // then is what this build writes for the same edges.
  const std::string dir = COVSTREAM_TEST_DATA_DIR;
  const std::vector<std::uint8_t> saturated =
      read_file(dir + "/compat_saturated.snap");
  const std::vector<std::uint8_t> never_evicted =
      read_file(dir + "/compat_never_evicted.snap");
  ASSERT_FALSE(saturated.empty());
  ASSERT_FALSE(never_evicted.empty());
  ASSERT_EQ(saturated[core_mode_offset(saturated)], 1u);
  ASSERT_EQ(never_evicted[core_mode_offset(never_evicted)], 0u);

  std::string error;
  const std::optional<SubsampleSketch> evicted =
      from_bytes<SubsampleSketch>(saturated, &error);
  ASSERT_TRUE(evicted) << error;
  EXPECT_TRUE(evicted->saturated());
  EXPECT_EQ(to_bytes(*evicted), saturated);

  const std::optional<SubsampleSketch> migrated =
      from_bytes<SubsampleSketch>(never_evicted, &error);
  ASSERT_TRUE(migrated) << error;
  EXPECT_FALSE(migrated->saturated());
  // save() writes the tracked counter as it stands.
  EXPECT_EQ(core_tracked_words(to_bytes(*migrated)), migrated->space_words());
  SubsampleSketch rebuilt(migrated->params());
  BinaryFileStream edges(dir + "/compat_edges.bin");
  rebuilt.consume(edges);
  ASSERT_EQ(rebuilt.stored_edges(), 442u);
  EXPECT_EQ(to_bytes(*migrated), to_bytes(rebuilt));
}

TEST(Snapshot, ForgeTargetLoadsUnforged) {
  // The forgeries below start from this image: it must load as it stands,
  // and hold all three list forms.
  const ForgeTarget target = forge_target();
  EXPECT_TRUE(from_bytes<SubsampleSketch>(target.image));
  EXPECT_EQ(target.span(EdgeArena::kInline, 2).size, 2u);
  EXPECT_GE(target.span(EdgeArena::kSorted, 3).size, 3u);
  EXPECT_GT(target.span(EdgeArena::kBitmap, 9).size, 8u);
}

TEST(Snapshot, ForgedRepeatedSetInAListFails) {
  ForgeTarget target = forge_target();
  const ForgeTarget::Span inline_pair = target.span(EdgeArena::kInline, 2);
  std::memcpy(target.image.data() + inline_pair.at + 4,
              target.image.data() + inline_pair.at, 4);  // words[1] = words[0]
  const std::string error = forged_load_error(target.image);
  EXPECT_NE(error.find("not strictly ascending"), std::string::npos) << error;
}

TEST(Snapshot, ForgedUnsortedListFails) {
  ForgeTarget target = forge_target();
  const ForgeTarget::Span sorted = target.span(EdgeArena::kSorted, 3);
  std::swap_ranges(target.image.begin() + target.slab_word(sorted, 0),
                   target.image.begin() + target.slab_word(sorted, 1),
                   target.image.begin() + target.slab_word(sorted, 1));
  const std::string error = forged_load_error(target.image);
  EXPECT_NE(error.find("not strictly ascending"), std::string::npos) << error;
}

TEST(Snapshot, ForgedUnknownSpanFormFails) {
  ForgeTarget target = forge_target();
  target.image[target.span(EdgeArena::kSorted, 3).at + 12] = 3;
  const std::string error = forged_load_error(target.image);
  EXPECT_NE(error.find("unknown span form"), std::string::npos) << error;
}

TEST(Snapshot, ForgedNonCanonicalFormFails) {
  // A sorted-size list tagged as a bitmap, and a bitmap-size one tagged as
  // a sorted list: each form is legal only for its own size range.
  for (const auto& [form, min_size, forged] :
       {std::tuple{EdgeArena::kSorted, 3u, EdgeArena::kBitmap},
        std::tuple{EdgeArena::kBitmap, 9u, EdgeArena::kSorted}}) {
    ForgeTarget target = forge_target();
    target.image[target.span(form, min_size).at + 12] = forged;
    const std::string error = forged_load_error(target.image);
    EXPECT_NE(error.find("not the canonical one"), std::string::npos) << error;
  }
}

TEST(Snapshot, ForgedBitmapSizeClassFails) {
  ForgeTarget target = forge_target();
  const ForgeTarget::Span bitmap = target.span(EdgeArena::kBitmap, 9);
  ASSERT_EQ(bitmap.cap_log2, 3u);  // ⌈150/32⌉ = 5 words, rounded up to 8
  target.image[bitmap.at + 13] = 2;
  const std::string error = forged_load_error(target.image);
  EXPECT_NE(error.find("size class"), std::string::npos) << error;
}

TEST(Snapshot, ForgedSetOutsideTheUniverseFails) {
  // Set 150 of a 150-set universe: bit 22 of the bitmap's fifth word, a bit
  // in its power-of-two padding (word 6), or a sorted list's last id.
  const auto set_bit = [](ForgeTarget& target, std::uint32_t word,
                          std::uint32_t bit) {
    const ForgeTarget::Span bitmap = target.span(EdgeArena::kBitmap, 9);
    target.image[target.slab_word(bitmap, word) + bit / 8] |=
        static_cast<std::uint8_t>(1u << (bit % 8));
  };
  ForgeTarget tail = forge_target();
  set_bit(tail, 4, 22);
  ForgeTarget padding = forge_target();
  set_bit(padding, 6, 0);
  ForgeTarget list = forge_target();
  const ForgeTarget::Span sorted = list.span(EdgeArena::kSorted, 3);
  const std::uint32_t past = 150;
  std::memcpy(list.image.data() + list.slab_word(sorted, sorted.size - 1),
              &past, sizeof past);
  for (ForgeTarget* target : {&tail, &padding, &list}) {
    const std::string error = forged_load_error(target->image);
    EXPECT_NE(error.find("outside the sketch's universe"), std::string::npos)
        << error;
  }
}

TEST(Snapshot, ForgedBitmapPopcountFails) {
  ForgeTarget target = forge_target();
  const ForgeTarget::Span bitmap = target.span(EdgeArena::kBitmap, 9);
  // Clear the lowest set bit of the block: one set fewer than `size`.
  for (std::uint32_t word = 0; word < 8; ++word) {
    std::uint32_t bits;
    const std::size_t at = target.slab_word(bitmap, word);
    std::memcpy(&bits, target.image.data() + at, sizeof bits);
    if (bits == 0) continue;
    bits &= bits - 1;
    std::memcpy(target.image.data() + at, &bits, sizeof bits);
    break;
  }
  const std::string error = forged_load_error(target.image);
  EXPECT_NE(error.find("popcount"), std::string::npos) << error;
}

}  // namespace
}  // namespace covstream
