// run_file_pass: a file pass feeding a fleet tenant while readers query it
// (DESIGN.md §5.9, §5.12). The suite keeps the name SketchServer, after the
// single-sketch server these properties were first pinned on, so the CI
// sanitizer filters keep selecting it.
//
// The properties under test:
//  * queries run WHILE the pass runs — every answer comes from one
//    version's immutable view, and a sketch handle() returns never mutates
//    after it is taken (a torn read would trip the ASan/TSan CI legs or
//    produce an impossible estimate);
//  * the final handle equals a directly-built sketch bit-for-bit;
//  * a stopped pass leaves a checkpoint that, adopted by a new fleet and
//    resumed, equals the uninterrupted pass;
//  * each admitted chunk is one tenant version;
//  * a refused chunk ends the pass and leaves the last good checkpoint.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "serve/file_pass.hpp"
#include "serve/sketch_fleet.hpp"
#include "sketch/substrate/snapshot.hpp"
#include "stream/edge_stream.hpp"
#include "stream/stream_engine.hpp"
#include "util/rng.hpp"

namespace covstream {
namespace {

constexpr SetId kNumSets = 32;
constexpr char kTenant[] = "t";

SketchParams serve_params() {
  SketchParams params;
  params.num_sets = kNumSets;
  params.k = 4;
  params.eps = 0.3;
  params.budget_mode = BudgetMode::kExplicit;
  params.explicit_budget = 400;
  params.hash_seed = 1234;
  return params;
}

std::vector<Edge> make_edges(std::size_t count) {
  Rng rng(0x5E44E4ULL);
  std::vector<Edge> edges;
  for (std::size_t i = 0; i < count; ++i) {
    edges.push_back(
        Edge{static_cast<SetId>(rng.next_below(std::uint64_t{kNumSets})),
             rng.next_below(std::uint64_t{1} << 13)});
  }
  return edges;
}

template <typename T>
std::vector<std::uint8_t> to_bytes(const T& object) {
  SnapshotWriter writer(T::kSnapshotType);
  object.save(writer);
  return writer.finish();
}

/// The same stream through a plain engine pass.
SubsampleSketch reference_sketch(const std::vector<Edge>& edges,
                                 std::size_t batch_edges) {
  SubsampleSketch reference(serve_params());
  VectorStream stream(edges);
  const StreamEngine engine({batch_edges, nullptr});
  engine.run(stream, {}, [&](std::span<const Edge> chunk) {
    reference.update_chunk(chunk);
  });
  return reference;
}

void create_tenant(SketchFleet& fleet) {
  std::string error;
  ASSERT_TRUE(fleet.create(kTenant, serve_params(), &error)) << error;
}

std::shared_ptr<const SubsampleSketch> handle_of(SketchFleet& fleet) {
  std::string error;
  std::shared_ptr<const SubsampleSketch> handle = fleet.handle(kTenant, &error);
  EXPECT_NE(handle, nullptr) << error;
  return handle;
}

/// Runs the pass on its own thread; the future is true once it finished
/// without an admission error.
std::future<bool> start_pass(SketchFleet& fleet, EdgeStream& stream,
                             FilePass& pass) {
  return std::async(std::launch::async, [&fleet, &stream, &pass] {
    std::string error;
    return run_file_pass(fleet, kTenant, stream, pass, &error);
  });
}

/// A restarted process: adopts the checkpoint's sketch as the tenant of
/// `fleet` and finishes the pass over `edges`. Returns the pass's edges.
std::uint64_t resume_from(SketchFleet& fleet, IngestCheckpoint checkpoint,
                          const std::vector<Edge>& edges,
                          std::size_t batch_edges) {
  std::string error;
  const StreamEngine::ResumePoint resume = checkpoint.resume;
  EXPECT_TRUE(fleet.adopt(kTenant, std::move(checkpoint.sketch),
                          resume.edges_kept, &error))
      << error;
  FilePass pass;
  pass.batch_edges = batch_edges;
  pass.resume = &resume;
  VectorStream stream(edges);
  EXPECT_TRUE(run_file_pass(fleet, kTenant, stream, pass, &error)) << error;
  return pass.edges.load();
}

TEST(SketchServer, QueriesDuringIngestAndFinalEquality) {
  const std::vector<Edge> edges = make_edges(60000);
  const std::vector<SetId> family = {1, 5, 9, 20, 31};
  const SubsampleSketch reference = reference_sketch(edges, 1024);

  SketchFleet fleet({});
  create_tenant(fleet);
  FilePass pass;
  pass.batch_edges = 1024;
  VectorStream stream(edges);

  std::atomic<bool> stop{false};
  std::atomic<std::size_t> queries{0};
  std::atomic<bool> saw_bad_estimate{false};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      // Every handle is a consistent prefix sketch: a well-defined,
      // non-negative estimate, queried concurrently with the pass.
      std::string error;
      const std::optional<double> estimate =
          fleet.estimate(kTenant, family, &error);
      if (!estimate.has_value() || *estimate < 0.0) {
        saw_bad_estimate.store(true);
      }
      queries.fetch_add(1, std::memory_order_relaxed);
    }
  });

  std::future<bool> done = start_pass(fleet, stream, pass);
  EXPECT_TRUE(done.get());
  // The pass can outrun the reader on a fast machine; the final version
  // stays readable, so let the reader land at least one query before stopping
  // (under the sanitizer jobs the pass is slow enough that many of these
  // queries genuinely overlap it).
  while (queries.load(std::memory_order_relaxed) == 0) std::this_thread::yield();
  stop.store(true);
  reader.join();

  EXPECT_EQ(pass.edges.load(), edges.size());
  EXPECT_GT(queries.load(), 0u);
  EXPECT_FALSE(saw_bad_estimate.load());

  const std::shared_ptr<const SubsampleSketch> final_handle = handle_of(fleet);
  ASSERT_NE(final_handle, nullptr);
  EXPECT_EQ(final_handle->estimate_coverage(family),
            reference.estimate_coverage(family));
  EXPECT_EQ(to_bytes(*final_handle), to_bytes(reference));
}

TEST(SketchServer, HandlesAreImmutableAfterPublication) {
  const std::vector<Edge> edges = make_edges(30000);
  SketchFleet fleet({});
  create_tenant(fleet);
  FilePass pass;
  pass.batch_edges = 512;
  VectorStream stream(edges);
  std::future<bool> done = start_pass(fleet, stream, pass);

  // Take a sketch once the pass admitted a chunk (create's empty tenant is
  // version 1) and serialize it twice, before and after the pass finishes:
  // a sketch handle() returned must never change underneath its holder.
  while (fleet.tenant_stats(kTenant)->version < 2) std::this_thread::yield();
  const std::shared_ptr<const SubsampleSketch> early = handle_of(fleet);
  ASSERT_NE(early, nullptr);
  const std::vector<std::uint8_t> at_grab = to_bytes(*early);
  EXPECT_TRUE(done.get());
  EXPECT_EQ(to_bytes(*early), at_grab);
}

TEST(SketchServer, StopEndsEarlyAndLeavesResumableCheckpoint) {
  const std::vector<Edge> edges = make_edges(50000);
  const std::string ck_path =
      testing::TempDir() + "covstream_server_stop_ck.snap";
  SketchFleet fleet({});
  create_tenant(fleet);
  FilePass pass;
  pass.batch_edges = 256;
  pass.checkpoint_every = 1;
  pass.checkpoint_path = ck_path;
  // Stop requested before the pass starts: it ends at its first chunk
  // boundary (deterministic, unlike a racy mid-pass stop) — far short of the
  // stream.
  pass.stop.store(true);
  VectorStream stream(edges);
  std::string error;
  ASSERT_TRUE(run_file_pass(fleet, kTenant, stream, pass, &error)) << error;
  EXPECT_LT(pass.edges.load(), edges.size());
  EXPECT_GT(pass.edges.load(), 0u);

  // The stop boundary left a durable checkpoint; a new fleet that adopts it
  // and drains the rest equals the uninterrupted pass.
  std::optional<IngestCheckpoint> checkpoint =
      load_snapshot<IngestCheckpoint>(ck_path, &error);
  ASSERT_TRUE(checkpoint) << error;
  EXPECT_EQ(checkpoint->resume.edges_kept, pass.edges.load());
  SketchFleet restarted({});
  EXPECT_EQ(resume_from(restarted, std::move(*checkpoint), edges, 256),
            edges.size());
  EXPECT_EQ(to_bytes(*handle_of(restarted)),
            to_bytes(reference_sketch(edges, 256)));
  std::remove(ck_path.c_str());
}

TEST(SketchServer, RefusedChunkKeepsTheLastGoodCheckpoint) {
  // A set id outside the universe in the fourth chunk: the fleet refuses
  // that chunk and the pass fails there. The engine still offers the
  // boundary after it, and a checkpoint saved there would count the refused
  // chunk as done — a resume would skip it silently. The checkpoint on disk
  // must stay the one taken after the third chunk.
  std::vector<Edge> edges = make_edges(4000);
  edges[3 * 256 + 10].set = kNumSets;
  const std::string ck_path =
      testing::TempDir() + "covstream_server_refused_ck.snap";
  SketchFleet fleet({});
  create_tenant(fleet);
  FilePass pass;
  pass.batch_edges = 256;
  pass.checkpoint_every = 1;
  pass.checkpoint_path = ck_path;
  VectorStream stream(edges);
  std::string error;
  EXPECT_FALSE(run_file_pass(fleet, kTenant, stream, pass, &error));
  EXPECT_NE(error.find("outside universe"), std::string::npos) << error;
  EXPECT_EQ(pass.edges.load(), 3u * 256);

  std::optional<IngestCheckpoint> checkpoint =
      load_snapshot<IngestCheckpoint>(ck_path, &error);
  ASSERT_TRUE(checkpoint) << error;
  EXPECT_EQ(checkpoint->resume.edges_read, 3u * 256);
  EXPECT_EQ(checkpoint->resume.edges_kept, 3u * 256);
  EXPECT_EQ(to_bytes(checkpoint->sketch),
            to_bytes(reference_sketch(
                std::vector<Edge>(edges.begin(), edges.begin() + 3 * 256), 256)));
  std::remove(ck_path.c_str());
}

TEST(SketchServer, SolveIsolatedFromConcurrentIngest) {
  // A solve answer is computed from one immutable handle: a burst of
  // ingestion between two solves on the SAME handle cannot change a byte of
  // the answer (snapshot-handle isolation), and the fleet's solve answers
  // from the freshest handle without ever blocking the admit path.
  const std::vector<Edge> edges = make_edges(40000);
  SketchFleet fleet({});
  create_tenant(fleet);
  std::string error;

  // First pass: a prefix of the stream; grab its handle and solve.
  FilePass first;
  first.batch_edges = 512;
  VectorStream prefix(std::vector<Edge>(edges.begin(), edges.begin() + 8000));
  ASSERT_TRUE(run_file_pass(fleet, kTenant, prefix, first, &error)) << error;
  const std::shared_ptr<const SubsampleSketch> handle = handle_of(fleet);
  ASSERT_NE(handle, nullptr);
  const KCoverResult before = kcover_on_sketch(*handle, 4);

  // Concurrent ingest burst: the rest of the stream lands while the caller
  // still holds (and re-solves) the old handle.
  FilePass second;
  second.batch_edges = 512;
  VectorStream rest(std::vector<Edge>(edges.begin() + 8000, edges.end()));
  std::future<bool> done = start_pass(fleet, rest, second);
  const KCoverResult during = kcover_on_sketch(*handle, 4);
  EXPECT_TRUE(done.get());
  const KCoverResult after = kcover_on_sketch(*handle, 4);

  EXPECT_EQ(during.solution, before.solution);
  EXPECT_EQ(during.estimated_coverage, before.estimated_coverage);
  EXPECT_EQ(after.solution, before.solution);
  EXPECT_EQ(after.estimated_coverage, before.estimated_coverage);

  // The fleet's own solve now answers from the freshest handle and equals
  // a direct solve of a reference sketch over the whole stream.
  const std::optional<KCoverResult> final_solve = fleet.solve(kTenant, 4, &error);
  ASSERT_TRUE(final_solve.has_value()) << error;
  const KCoverResult expected = kcover_on_sketch(reference_sketch(edges, 512), 4);
  EXPECT_EQ(final_solve->solution, expected.solution);
  EXPECT_EQ(final_solve->estimated_coverage, expected.estimated_coverage);
}

TEST(SketchServer, SolveBeforeFirstPublishIsEmpty) {
  // Nothing answers before the tenant exists; a created tenant answers at
  // once from its empty sketch, which solves to an empty cover.
  SketchFleet fleet({});
  std::string error;
  EXPECT_FALSE(fleet.solve(kTenant, 4, &error).has_value());
  EXPECT_NE(error.find("unknown tenant"), std::string::npos) << error;
  create_tenant(fleet);
  const std::optional<KCoverResult> empty = fleet.solve(kTenant, 4, &error);
  ASSERT_TRUE(empty.has_value()) << error;
  EXPECT_TRUE(empty->solution.empty());
  EXPECT_EQ(empty->estimated_coverage, 0.0);
}

TEST(SketchServer, SaveResumeSolveMatchesUninterrupted) {
  // checkpoint -> adopt -> resume -> solve must answer exactly like a
  // never-interrupted pass: the snapshot layer round-trips the sketch bit
  // for bit, so the solver sees identical views.
  const std::vector<Edge> edges = make_edges(50000);
  const std::string ck_path =
      testing::TempDir() + "covstream_server_solve_ck.snap";
  SketchFleet fleet({});
  create_tenant(fleet);
  FilePass pass;
  pass.batch_edges = 256;
  pass.checkpoint_every = 1;
  pass.checkpoint_path = ck_path;
  pass.stop.store(true);  // deterministic first-chunk stop (see above)
  VectorStream stream(edges);
  std::string error;
  ASSERT_TRUE(run_file_pass(fleet, kTenant, stream, pass, &error)) << error;
  ASSERT_LT(pass.edges.load(), edges.size());

  std::optional<IngestCheckpoint> checkpoint =
      load_snapshot<IngestCheckpoint>(ck_path, &error);
  ASSERT_TRUE(checkpoint) << error;
  SketchFleet restarted({});
  resume_from(restarted, std::move(*checkpoint), edges, 256);

  const std::optional<KCoverResult> resumed_solve =
      restarted.solve(kTenant, 6, &error);
  ASSERT_TRUE(resumed_solve.has_value()) << error;
  const KCoverResult expected = kcover_on_sketch(reference_sketch(edges, 256), 6);
  EXPECT_EQ(resumed_solve->solution, expected.solution);
  EXPECT_EQ(resumed_solve->estimated_coverage, expected.estimated_coverage);
  EXPECT_EQ(resumed_solve->p_star, expected.p_star);
  std::remove(ck_path.c_str());
}

TEST(SketchServer, StatsAdvanceAndFinish) {
  const std::vector<Edge> edges = make_edges(20000);
  SketchFleet fleet({});
  create_tenant(fleet);
  FilePass pass;
  pass.batch_edges = 256;
  VectorStream stream(edges);
  std::string error;
  ASSERT_TRUE(run_file_pass(fleet, kTenant, stream, pass, &error)) << error;
  EXPECT_EQ(pass.edges.load(), edges.size());
  EXPECT_EQ(pass.checkpoint_failures.load(), 0u);

  const std::optional<SketchFleet::TenantStats> stats =
      fleet.tenant_stats(kTenant);
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->edges_ingested, edges.size());
  // One version per admitted chunk, on top of create()'s.
  EXPECT_EQ(stats->version, 1 + (edges.size() + 255) / 256);
  const std::shared_ptr<const SubsampleSketch> handle = handle_of(fleet);
  ASSERT_NE(handle, nullptr);
  EXPECT_EQ(stats->retained_elements, handle->retained_elements());
  EXPECT_EQ(stats->stored_edges, handle->stored_edges());
  EXPECT_EQ(stats->p_star, handle->p_star());
}

// A VectorStream wrapper whose batches are withheld until the test says go —
// makes "still ingesting" deterministic for the bounded-timeout wait test.
// (Wrapper, not subclass: VectorStream is final.)
class GatedStream final : public EdgeStream {
 public:
  explicit GatedStream(std::vector<Edge> edges) : inner_(std::move(edges)) {}

  void release() {
    {
      const std::lock_guard<std::mutex> lock(gate_mutex_);
      released_ = true;
    }
    gate_.notify_all();
  }

  void reset() override {
    inner_.reset();
    note_pass();
  }

  bool next(Edge& edge) override {
    wait_gate();
    return inner_.next(edge);
  }

  std::size_t next_batch(Edge* out, std::size_t cap) override {
    wait_gate();
    return inner_.next_batch(out, cap);
  }

  std::size_t edges_per_pass() const override {
    return inner_.edges_per_pass();
  }

 private:
  void wait_gate() {
    std::unique_lock<std::mutex> lock(gate_mutex_);
    gate_.wait(lock, [this] { return released_; });
  }

  VectorStream inner_;
  std::mutex gate_mutex_;
  std::condition_variable gate_;
  bool released_ = false;
};

TEST(SketchServer, WaitForIsBoundedAndObservesCompletion) {
  // The stdin transport's `wait <ms>` is a bounded wait on the pass's
  // future; this pins the pass side of it.
  SketchFleet fleet({});
  create_tenant(fleet);
  FilePass pass;
  pass.batch_edges = 256;
  const std::vector<Edge> edges = make_edges(20000);
  GatedStream stream(edges);
  std::future<bool> done = start_pass(fleet, stream, pass);

  // The stream's gate is shut: the pass cannot finish, a bounded wait comes
  // back after its timeout, and the tenant still answers from its handle.
  EXPECT_EQ(done.wait_for(std::chrono::milliseconds(50)),
            std::future_status::timeout);
  EXPECT_EQ(pass.edges.load(), 0u);
  std::string error;
  EXPECT_TRUE(
      fleet.estimate(kTenant, std::vector<SetId>{1, 2}, &error).has_value())
      << error;

  stream.release();
  // Gate open: the pass drains and the bounded wait turns ready well within
  // the bound.
  EXPECT_EQ(done.wait_for(std::chrono::seconds(30)), std::future_status::ready);
  EXPECT_TRUE(done.get());
  EXPECT_EQ(pass.edges.load(), edges.size());
}

}  // namespace
}  // namespace covstream
