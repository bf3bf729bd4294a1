// File ingest into a fleet tenant, with durable checkpoints (DESIGN.md §5.9).
//
// The paper's sketch answers coverage queries from O~(n) words while the
// stream is still arriving. run_file_pass feeds one resumable StreamEngine
// pass into a SketchFleet tenant: every chunk is admitted with
// SketchFleet::ingest, which bumps the tenant's version and copies nothing,
// and every reader — a stdin line, a TCP connection, an embedding thread —
// answers through the fleet while the pass runs, from a view of the chunks
// admitted so far that the version's first read builds. Publication, warm
// solvers and the wire grammar are the fleet's; this file adds only the
// pass and its recovery point. It is the one file-ingest path: the CLI's
// `ingest` and the stdin `serve` transport both run it.
//
// With a checkpoint path set, an IngestCheckpoint (the tenant's sketch plus
// the StreamEngine::ResumePoint of the chunk boundary it was taken at, one
// snapshot file) is written every `checkpoint_every` chunks and once more
// when the pass is stopped. A restarted process adopts the checkpoint's
// sketch as the tenant and resumes the pass from it — equal, bit for bit, to
// never having stopped (tests/stream/resume_test.cpp).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>

#include "core/subsample_sketch.hpp"
#include "serve/sketch_fleet.hpp"
#include "sketch/substrate/snapshot.hpp"
#include "stream/stream_engine.hpp"

namespace covstream {

/// One durable recovery point: the sketch state plus where its pass stopped.
/// Saved/loaded through the usual snapshot helpers as a single file.
struct IngestCheckpoint {
  static constexpr SnapshotType kSnapshotType = SnapshotType::kIngestCheckpoint;

  StreamEngine::ResumePoint resume;
  SubsampleSketch sketch;

  /// Serializes the resume point then the embedded sketch (docs/FORMATS.md
  /// §3 'CKPT').
  void save(SnapshotWriter& writer) const;

  /// Restores a save()d checkpoint; nullopt (reader error set) on failure.
  static std::optional<IngestCheckpoint> load_snapshot(SnapshotReader& reader);
};

/// Writes one checkpoint file straight from a sketch, so a periodic
/// checkpoint never deep-copies an O(sketch) IngestCheckpoint just so save()
/// can read it. Same file format, same load_snapshot<IngestCheckpoint>
/// reads it back.
bool save_ingest_checkpoint(const StreamEngine::ResumePoint& resume,
                            const SubsampleSketch& sketch,
                            const std::string& path,
                            std::string* error = nullptr);

/// A file pass's settings, plus the counters it advances at chunk
/// boundaries. Other threads may set `stop` and read the counters while
/// run_file_pass runs.
struct FilePass {
  /// Engine chunk size (0 = engine default); each chunk is one tenant
  /// version, so this also sets how far a reader can trail the pass.
  std::size_t batch_edges = 0;
  /// Continue a checkpointed pass: the tenant must already hold the
  /// checkpoint's sketch (SketchFleet::adopt). Null starts at the head.
  const StreamEngine::ResumePoint* resume = nullptr;
  /// Where checkpoints go (empty = nowhere): every `checkpoint_every`
  /// chunks (0 = no periodic ones), and once when the pass is stopped.
  std::string checkpoint_path;
  std::size_t checkpoint_every = 0;

  /// Ends the pass at the next chunk boundary.
  std::atomic<bool> stop{false};
  /// Edges admitted so far; a resumed pass counts the checkpoint's prefix.
  std::atomic<std::uint64_t> edges{0};
  /// Checkpoint writes that failed (disk full, I/O error). The pass keeps
  /// going: a checkpoint speeds up recovery, it does not gate correctness.
  std::atomic<std::uint64_t> checkpoint_failures{0};
};

/// Runs `pass` over `stream` into fleet tenant `tenant` until the stream
/// ends or `pass.stop` is set. The tenant must exist. Returns false (with
/// *error) when an admission failed — a set id outside the tenant's
/// universe, the tenant was dropped, or the fleet is degraded — and the pass
/// ended at that chunk; the checkpoint on disk is then the last one taken
/// before it.
bool run_file_pass(SketchFleet& fleet, const std::string& tenant,
                   EdgeStream& stream, FilePass& pass, std::string* error);

}  // namespace covstream
