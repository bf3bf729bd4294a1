#include "serve/file_pass.hpp"

#include <memory>
#include <span>
#include <utility>

#include "util/log.hpp"

namespace covstream {

namespace {

void write_checkpoint_sections(SnapshotWriter& writer,
                               const StreamEngine::ResumePoint& resume,
                               const SubsampleSketch& sketch) {
  writer.begin_section(snapshot_tag('C', 'K', 'P', 'T'));
  writer.u64(resume.stream_position);
  writer.u64(resume.edges_read);
  writer.u64(resume.edges_kept);
  sketch.save(writer);
  writer.end_section();
}

}  // namespace

void IngestCheckpoint::save(SnapshotWriter& writer) const {
  write_checkpoint_sections(writer, resume, sketch);
}

bool save_ingest_checkpoint(const StreamEngine::ResumePoint& resume,
                            const SubsampleSketch& sketch,
                            const std::string& path, std::string* error) {
  SnapshotWriter writer(IngestCheckpoint::kSnapshotType);
  write_checkpoint_sections(writer, resume, sketch);
  return writer.write_file(path, error);
}

std::optional<IngestCheckpoint> IngestCheckpoint::load_snapshot(
    SnapshotReader& reader) {
  if (!reader.begin_section(snapshot_tag('C', 'K', 'P', 'T'))) return std::nullopt;
  StreamEngine::ResumePoint resume;
  resume.stream_position = reader.u64();
  resume.edges_read = reader.u64();
  resume.edges_kept = reader.u64();
  if (!reader.ok()) return std::nullopt;
  if (resume.edges_kept > resume.edges_read) {
    reader.fail("ingest checkpoint: kept more edges than were read");
    return std::nullopt;
  }
  std::optional<SubsampleSketch> sketch = SubsampleSketch::load_snapshot(reader);
  if (!sketch || !reader.end_section()) return std::nullopt;
  return IngestCheckpoint{resume, std::move(*sketch)};
}

bool run_file_pass(SketchFleet& fleet, const std::string& tenant,
                   EdgeStream& stream, FilePass& pass, std::string* error) {
  pass.edges.store(pass.resume != nullptr ? pass.resume->edges_kept : 0,
                   std::memory_order_relaxed);
  bool admit_failed = false;
  const auto write_checkpoint = [&](const StreamEngine::ResumePoint& point) {
    // The engine offers the boundary after a refused chunk too; its resume
    // point counts that chunk, so saving it would skip the chunk on resume
    // and overwrite the last good checkpoint.
    if (admit_failed) return;
    // handle() copies the tenant's sketch under its work mutex — every chunk
    // admitted up to this boundary — and the copy is written with no lock
    // held.
    std::string why;
    const std::shared_ptr<const SubsampleSketch> sketch =
        fleet.handle(tenant, &why);
    if (sketch == nullptr ||
        !save_ingest_checkpoint(point, *sketch, pass.checkpoint_path, &why)) {
      pass.checkpoint_failures.fetch_add(1, std::memory_order_relaxed);
      COVSTREAM_WARN("file pass: checkpoint failed: " + why);
    }
  };
  StreamEngine::CheckpointOptions durable;
  if (!pass.checkpoint_path.empty()) {
    durable.every_chunks = pass.checkpoint_every;
    durable.on_checkpoint = write_checkpoint;
  }
  durable.stop_requested = [&] {
    return admit_failed || pass.stop.load(std::memory_order_relaxed);
  };
  const StreamEngine engine({pass.batch_edges, nullptr});
  const StreamEngine::PassStats stats = engine.run_resumable(
      stream, /*filter=*/{},
      [&](std::span<const Edge> chunk) {
        if (!fleet.ingest(tenant, chunk, error)) {
          admit_failed = true;  // stop_requested ends the pass here
          return;
        }
        pass.edges.fetch_add(chunk.size(), std::memory_order_relaxed);
      },
      pass.resume, durable);
  if (admit_failed) return false;
  // A stopped pass still leaves a durable recovery point: the stream
  // position at the stop boundary resumes the remainder later.
  if (pass.stop.load(std::memory_order_relaxed) && durable.on_checkpoint) {
    const std::uint64_t at = stream.position();
    if (at != EdgeStream::kNoPosition) {
      write_checkpoint({at, stats.edges_read, stats.edges_kept});
    }
  }
  return true;
}

}  // namespace covstream
