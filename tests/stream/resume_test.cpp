// Checkpoint/resume equivalence (DESIGN.md §5.9): for every stream backend
// (VectorStream, TextFileStream, BinaryFileStream), a pass that stops at a
// checkpoint and is picked up by a NEW process-worth of state (sketch
// restored from snapshot bytes, stream reopened and seeked) must equal the
// uninterrupted pass bit-for-bit — same sketch image, same cumulative pass
// stats. Also pins the stream position/seek tokens themselves: seeking to a
// recorded position replays exactly the unconsumed suffix.
#include <gtest/gtest.h>

#include <cstdio>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/subsample_sketch.hpp"
#include "serve/file_pass.hpp"
#include "serve/sketch_fleet.hpp"
#include "sketch/substrate/snapshot.hpp"
#include "stream/file_stream.hpp"
#include "stream/stream_engine.hpp"
#include "util/rng.hpp"
#include "scratch_dir.hpp"

namespace covstream {
namespace {

constexpr SetId kNumSets = 40;

SketchParams resume_params(std::uint64_t seed) {
  SketchParams params;
  params.num_sets = kNumSets;
  params.k = 4;
  params.eps = 0.3;
  params.budget_mode = BudgetMode::kExplicit;
  params.explicit_budget = 300;  // saturates mid-stream
  params.hash_seed = seed;
  return params;
}

std::vector<Edge> make_edges(std::size_t count) {
  Rng rng(0x2E5C3EULL);
  std::vector<Edge> edges;
  for (std::size_t i = 0; i < count; ++i) {
    edges.push_back(
        Edge{static_cast<SetId>(rng.next_below(std::uint64_t{kNumSets})),
             rng.next_below(std::uint64_t{1} << 14)});
  }
  return edges;
}

template <typename T>
std::vector<std::uint8_t> to_bytes(const T& object) {
  SnapshotWriter writer(T::kSnapshotType);
  object.save(writer);
  return writer.finish();
}

/// Simulates the crash-and-restart cycle against `make_stream` (a factory,
/// because the "restarted process" must reopen its own stream object):
/// 1. run uninterrupted -> reference sketch;
/// 2. run with a checkpoint every `every` chunks, keeping only the LAST
///    checkpoint's serialized bytes (as a file on disk would);
/// 3. restore sketch + resume point from those bytes into fresh objects and
///    finish the pass on a freshly opened stream;
/// 4. the resumed sketch image and stats must equal the uninterrupted ones.
void expect_resume_equals_uninterrupted(
    const std::function<std::unique_ptr<EdgeStream>()>& make_stream,
    const char* what) {
  const StreamEngine engine({/*batch_edges=*/512, nullptr});
  const SketchParams params = resume_params(77);

  SubsampleSketch uninterrupted(params);
  const auto full_stream = make_stream();
  const StreamEngine::PassStats full_stats = engine.run(
      *full_stream, {},
      [&](std::span<const Edge> chunk) { uninterrupted.update_chunk(chunk); });

  // Checkpointed run (the "crashing" process). The sketch state is captured
  // as serialized bytes at the boundary — exactly what a checkpoint file
  // holds — not as a live object.
  SubsampleSketch first_try(params);
  std::vector<std::uint8_t> checkpoint_bytes;
  StreamEngine::CheckpointOptions checkpoint;
  checkpoint.every_chunks = 3;
  checkpoint.on_checkpoint = [&](const StreamEngine::ResumePoint& point) {
    checkpoint_bytes = to_bytes(IngestCheckpoint{point, first_try});
  };
  const auto crash_stream = make_stream();
  engine.run_resumable(
      *crash_stream, {},
      [&](std::span<const Edge> chunk) { first_try.update_chunk(chunk); },
      nullptr, checkpoint);
  ASSERT_FALSE(checkpoint_bytes.empty()) << what;

  // Restart: everything comes back from the checkpoint bytes.
  SnapshotReader reader(std::move(checkpoint_bytes));
  ASSERT_TRUE(reader.ok()) << what << ": " << reader.error();
  std::optional<IngestCheckpoint> restored =
      IngestCheckpoint::load_snapshot(reader);
  ASSERT_TRUE(restored) << what << ": " << reader.error();
  ASSERT_LT(restored->resume.edges_kept, full_stats.edges_kept) << what;

  const auto resumed_stream = make_stream();
  const StreamEngine::PassStats resumed_stats = engine.run_resumable(
      *resumed_stream, {},
      [&](std::span<const Edge> chunk) {
        restored->sketch.update_chunk(chunk);
      },
      &restored->resume);

  EXPECT_EQ(resumed_stats.edges_read, full_stats.edges_read) << what;
  EXPECT_EQ(resumed_stats.edges_kept, full_stats.edges_kept) << what;
  EXPECT_EQ(to_bytes(restored->sketch), to_bytes(uninterrupted)) << what;
}

TEST(Resume, VectorStreamEqualsUninterrupted) {
  const std::vector<Edge> edges = make_edges(6000);
  expect_resume_equals_uninterrupted(
      [&] { return std::make_unique<VectorStream>(edges); }, "vector");
}

TEST(Resume, BinaryFileStreamEqualsUninterrupted) {
  const std::string path = scratch_path("covstream_resume.bin");
  write_binary_edges(path, make_edges(6000));
  expect_resume_equals_uninterrupted(
      [&] { return std::make_unique<BinaryFileStream>(path); }, "binary");
  std::remove(path.c_str());
}

TEST(Resume, TextFileStreamEqualsUninterrupted) {
  const std::string path = scratch_path("covstream_resume.txt");
  write_text_edges(path, make_edges(6000));
  expect_resume_equals_uninterrupted(
      [&] { return std::make_unique<TextFileStream>(path); }, "text");
  std::remove(path.c_str());
}

TEST(Resume, TextSeekLandsOnLineStarts) {
  // Messy file: comments, blank lines, malformed lines between records. The
  // position token must still replay exactly the unconsumed suffix.
  const std::string path = scratch_path("covstream_resume_messy.txt");
  {
    std::FILE* file = std::fopen(path.c_str(), "w");
    ASSERT_NE(file, nullptr);
    std::fprintf(file, "# header comment\n");
    for (int i = 0; i < 500; ++i) {
      if (i % 7 == 0) std::fprintf(file, "\n");
      if (i % 11 == 0) std::fprintf(file, "not an edge\n");
      std::fprintf(file, "%d %d\n", i % 9, i);
    }
    std::fclose(file);
  }
  TextFileStream stream(path);
  stream.reset();
  Edge edge;
  std::vector<Edge> head;
  for (int i = 0; i < 123; ++i) {
    ASSERT_TRUE(stream.next(edge));
    head.push_back(edge);
  }
  const std::uint64_t token = stream.position();
  std::vector<Edge> tail_a;
  while (stream.next(edge)) tail_a.push_back(edge);

  TextFileStream reopened(path);
  reopened.reset();
  ASSERT_TRUE(reopened.seek(token));
  std::vector<Edge> tail_b;
  while (reopened.next(edge)) tail_b.push_back(edge);
  EXPECT_EQ(tail_a, tail_b);
  std::remove(path.c_str());
}

TEST(Resume, BinarySeekRejectsMisalignedTokens) {
  const std::string path = scratch_path("covstream_resume_align.bin");
  write_binary_edges(path, make_edges(100));
  BinaryFileStream stream(path);
  stream.reset();
  EXPECT_FALSE(stream.seek(0));       // inside the header
  EXPECT_FALSE(stream.seek(17));      // mid-record
  EXPECT_FALSE(stream.seek(16 + 101 * 12));  // past the last record
  EXPECT_TRUE(stream.seek(16 + 12 * 50));
  Edge edge;
  ASSERT_TRUE(stream.next(edge));
  std::remove(path.c_str());
}

TEST(Resume, VectorSeekBounds) {
  VectorStream stream(make_edges(10));
  stream.reset();
  EXPECT_TRUE(stream.seek(10));  // end-of-pass position is valid
  Edge edge;
  EXPECT_FALSE(stream.next(edge));
  EXPECT_FALSE(stream.seek(11));
}

TEST(Resume, ServerResumesFromCheckpointFile) {
  // End to end through a fleet tenant: a file pass checkpoints to a file,
  // the process "crashes", a new fleet adopts the checkpoint's sketch and
  // resumes the pass, and the result equals the uninterrupted pass.
  const std::vector<Edge> edges = make_edges(6000);
  const std::string ck_path = scratch_path("covstream_server_ck.snap");

  const SketchParams params = resume_params(77);
  SubsampleSketch uninterrupted(params);
  {
    VectorStream stream(edges);
    const StreamEngine engine({512, nullptr});
    engine.run(stream, {}, [&](std::span<const Edge> chunk) {
      uninterrupted.update_chunk(chunk);
    });
  }

  std::string error;
  {
    SketchFleet first({});
    ASSERT_TRUE(first.create("t", params, &error)) << error;
    FilePass pass;
    pass.batch_edges = 512;
    pass.checkpoint_every = 3;
    pass.checkpoint_path = ck_path;
    VectorStream stream(edges);
    ASSERT_TRUE(run_file_pass(first, "t", stream, pass, &error)) << error;
  }
  std::optional<IngestCheckpoint> checkpoint =
      load_snapshot<IngestCheckpoint>(ck_path, &error);
  ASSERT_TRUE(checkpoint) << error;
  ASSERT_LT(checkpoint->resume.edges_kept, edges.size());

  SketchFleet resumed({});
  const StreamEngine::ResumePoint resume = checkpoint->resume;
  ASSERT_TRUE(resumed.adopt("t", std::move(checkpoint->sketch),
                            resume.edges_kept, &error))
      << error;
  ASSERT_NE(resumed.handle("t", &error), nullptr);  // queryable before restart
  FilePass pass;
  pass.batch_edges = 512;
  pass.resume = &resume;
  VectorStream stream(edges);
  ASSERT_TRUE(run_file_pass(resumed, "t", stream, pass, &error)) << error;
  EXPECT_EQ(pass.edges.load(), edges.size());
  EXPECT_EQ(to_bytes(*resumed.handle("t", &error)), to_bytes(uninterrupted));
  std::remove(ck_path.c_str());
}

}  // namespace
}  // namespace covstream
