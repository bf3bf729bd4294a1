#include "stream/stream_engine.hpp"

#include <algorithm>
#include <memory>

#include "hash/hash64.hpp"
#include "parallel/parallel_for.hpp"

namespace covstream {

StreamEngine::StreamEngine(EngineOptions options)
    : batch_(options.batch_edges == 0 ? kDefaultBatchEdges : options.batch_edges),
      pool_(options.pool) {}

StreamEngine::PassStats StreamEngine::run(EdgeStream& stream,
                                          const EdgeFilter& filter,
                                          const ChunkSink& sink) const {
  return run_resumable(stream, filter, sink, nullptr);
}

StreamEngine::PassStats StreamEngine::run_resumable(
    EdgeStream& stream, const EdgeFilter& filter, const ChunkSink& sink,
    const ResumePoint* resume_from, const CheckpointOptions& checkpoint) const {
  stream.reset();
  PassStats stats;
  if (resume_from != nullptr) {
    // The resumed pass skips the consumed prefix and reports cumulatively,
    // so downstream accounting matches an uninterrupted pass bit-for-bit.
    COVSTREAM_CHECK(stream.seek(resume_from->stream_position));
    stats.edges_read = static_cast<std::size_t>(resume_from->edges_read);
    stats.edges_kept = static_cast<std::size_t>(resume_from->edges_kept);
  }
  // One fixed buffer for the whole pass (2x batch: a filtered tail below one
  // batch plus a fresh full read); `len` tracks the logical fill so no
  // per-chunk resize/value-initialization lands on the hot path.
  const std::size_t cap = 2 * batch_;
  const std::unique_ptr<Edge[]> buffer(new Edge[cap]);
  std::size_t len = 0;
  std::size_t chunks_delivered = 0;
  for (;;) {
    // len < batch_ here (a full chunk is always delivered below), so a whole
    // batch fits.
    const std::size_t got = stream.next_batch(buffer.get() + len, batch_);
    stats.edges_read += got;
    if (filter && got > 0) {
      std::size_t kept = len;
      for (std::size_t i = len; i < len + got; ++i) {
        if (filter(buffer[i])) buffer[kept++] = buffer[i];
      }
      len = kept;
    } else {
      len += got;
    }
    const bool end_of_pass = got == 0;
    // Deliver once the chunk is full (filters can leave it short of one
    // batch) or the pass ended.
    if (len >= batch_ || (end_of_pass && len > 0)) {
      stats.edges_kept += len;
      sink(std::span<const Edge>(buffer.get(), len));
      len = 0;
      ++chunks_delivered;
      // A chunk boundary is the one spot where every edge read has been
      // either filtered out or handed to the consumer, so the stream's
      // position token captures the consumer state exactly. The end-of-pass
      // boundary is skipped: the pass is finishing anyway, and the consumer
      // saves its final state itself.
      if (checkpoint.every_chunks > 0 && !end_of_pass &&
          chunks_delivered % checkpoint.every_chunks == 0 &&
          checkpoint.on_checkpoint) {
        const std::uint64_t at = stream.position();
        if (at != EdgeStream::kNoPosition) {
          checkpoint.on_checkpoint(
              ResumePoint{at, stats.edges_read, stats.edges_kept});
        }
      }
      // Cooperative cancellation: chunk boundaries are also the one spot a
      // pass can end early with the buffer empty, so the stream position is
      // a valid resume token for finishing later.
      if (checkpoint.stop_requested && checkpoint.stop_requested()) break;
    }
    if (end_of_pass) break;
  }
  return stats;
}

StreamEngine::PassStats StreamEngine::run_partitioned(
    EdgeStream& stream, const EdgeFilter& filter, std::size_t shards,
    const Router& router, const ShardSink& sink, const Barrier& barrier) const {
  COVSTREAM_CHECK(shards >= 1);
  const std::size_t every = barrier.on_barrier ? barrier.every_edges : 0;
  std::vector<std::vector<Edge>> buffers(shards);
  std::size_t routed = 0;       // kept edges dealt so far (router index)
  std::size_t buffered = 0;     // edges awaiting a flush
  auto flush = [&] {
    parallel_for_blocked(
        pool_, shards,
        [&](std::size_t begin, std::size_t end) {
          for (std::size_t s = begin; s < end; ++s) {
            if (!buffers[s].empty()) sink(s, buffers[s]);
            buffers[s].clear();
          }
        },
        /*grain=*/1);
    buffered = 0;
  };
  PassStats stats = run(stream, filter, [&](std::span<const Edge> chunk) {
    std::size_t i = 0;
    while (i < chunk.size()) {
      // Route up to the next barrier position, or to the chunk's end.
      const std::size_t end =
          every == 0 ? chunk.size()
                     : std::min(chunk.size(), i + (every - routed % every));
      buffered += end - i;
      for (; i < end; ++i) {
        const std::size_t shard = router(chunk[i], routed++);
        COVSTREAM_CHECK(shard < shards);
        buffers[shard].push_back(chunk[i]);
      }
      if (every != 0 && routed % every == 0) {
        flush();
        barrier.on_barrier();
      }
    }
    if (buffered >= shards * batch_) flush();
  });
  flush();
  return stats;
}

StreamEngine::Router StreamEngine::round_robin(std::size_t shards) {
  COVSTREAM_CHECK(shards >= 1);
  return [shards](const Edge&, std::size_t index) { return index % shards; };
}

StreamEngine::Router StreamEngine::by_element_hash(std::size_t shards,
                                                   std::uint64_t seed) {
  COVSTREAM_CHECK(shards >= 1);
  return [shards, hash = Mix64Hash(seed)](const Edge& edge, std::size_t) {
    return static_cast<std::size_t>(hash(edge.elem) % shards);
  };
}

}  // namespace covstream
