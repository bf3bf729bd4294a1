// The batched ingestion pipeline: one engine drives every single- and
// multi-pass stream consumer in the library (DESIGN.md §5.7).
//
// A pass runs chunk-at-a-time: the engine pulls blocks off the stream via
// EdgeStream::next_batch (one virtual call per block, buffered I/O for file
// streams), applies an optional per-edge filter ONCE per chunk (Algorithm 6's
// covered-element mask used to be re-evaluated inside every consumer), and
// hands the surviving edges to consumer shards:
//
//  * run            — one consumer, whole chunks in arrival order (since
//                     the batched-admission rework the Algorithm 5 ladder
//                     consumes this way and fans rungs out itself, so its
//                     per-chunk hash sweep runs once — DESIGN.md §5.8);
//  * run_partitioned— a router owns each edge to exactly one shard (the
//                     distributed builder's hash partitioning by element,
//                     or a round-robin deal by arrival index); an optional
//                     barrier hook runs a cross-shard step at fixed stream
//                     positions (the builder's shared cutoff bound).
//
// With a ThreadPool, shards are updated concurrently — one task per shard
// per chunk, barrier between chunks. Shards own disjoint state and each
// shard's edge sequence is the serial arrival order (restricted to its own
// edges), so pool-parallel output is bit-for-bit equal to serial execution —
// the same guarantee DESIGN.md §5.5 gives for the ladder and sharded
// builder, now enforced in one place. A partitioned barrier fires at routed-
// edge counts the caller fixes, never at chunk boundaries, so the shard
// states it sees are independent of pool and batch size as well.
#pragma once

#include <cstddef>
#include <functional>
#include <span>
#include <vector>

#include "parallel/thread_pool.hpp"
#include "stream/edge_stream.hpp"

namespace covstream {

/// Per-edge admission predicate; an empty function keeps everything.
using EdgeFilter = std::function<bool(const Edge&)>;

struct EngineOptions {
  /// Edges per chunk (0 = kDefaultBatchEdges). Chunk size affects only
  /// buffering granularity, never consumer-visible edge order.
  std::size_t batch_edges = 0;
  /// Pool for fanning chunks out across shards (nullptr = serial).
  ThreadPool* pool = nullptr;
};

class StreamEngine {
 public:
  static constexpr std::size_t kDefaultBatchEdges = 1 << 15;

  explicit StreamEngine(EngineOptions options = {});

  struct PassStats {
    std::size_t edges_read = 0;  // pulled off the stream
    std::size_t edges_kept = 0;  // survived the filter
  };

  /// Where a pass can be picked up again (DESIGN.md §5.9): the stream's
  /// opaque resume token plus the cumulative stats at that point. Checkpoints
  /// fire only at chunk boundaries, where the engine's buffer is empty — so
  /// the token covers exactly the edges the consumer has absorbed.
  struct ResumePoint {
    std::uint64_t stream_position = 0;
    std::uint64_t edges_read = 0;
    std::uint64_t edges_kept = 0;
  };

  /// Periodic checkpointing for run_resumable: every `every_chunks` delivered
  /// chunks, `on_checkpoint` receives the current ResumePoint (the consumer
  /// snapshots its sketch there — the engine stays consumer-agnostic).
  /// `stop_requested` (when set) is polled after every delivered chunk: a
  /// true return ends the pass early at that boundary — the cooperative
  /// cancellation the serve mode's `quit` uses. A stopped pass's stats cover
  /// what was actually delivered, and the stream's position() at return is a
  /// valid resume token for finishing the pass later.
  struct CheckpointOptions {
    std::size_t every_chunks = 0;  // 0 = never
    std::function<void(const ResumePoint&)> on_checkpoint;
    std::function<bool()> stop_requested;
  };

  /// Consumer shard: receives (shard index, chunk of edges in arrival order).
  using ShardSink = std::function<void(std::size_t, std::span<const Edge>)>;
  /// Single-consumer sink: receives whole chunks in arrival order.
  using ChunkSink = std::function<void(std::span<const Edge>)>;
  /// Maps (edge, index of the edge among kept edges) to its owning shard.
  using Router = std::function<std::size_t(const Edge&, std::size_t)>;

  /// A cross-shard step for run_partitioned: after every `every_edges`
  /// routed edges the engine flushes every shard buffer and then calls
  /// `on_barrier` on the calling thread, with no shard task in flight. The
  /// positions are counts of routed edges, so they never move with the
  /// batch size: at each one, every shard has consumed exactly its share of
  /// the same stream prefix (DESIGN.md §5.7).
  struct Barrier {
    std::size_t every_edges = 0;  // 0 = never
    std::function<void()> on_barrier;
  };

  /// One pass, one consumer, batched delivery (resets the stream first, as
  /// all run* calls do).
  PassStats run(EdgeStream& stream, const EdgeFilter& filter,
                const ChunkSink& sink) const;

  /// run() with crash-recovery hooks (DESIGN.md §5.9): when `resume_from` is
  /// non-null the pass seeks past the already-consumed prefix (the stream
  /// must support seek(); aborts otherwise — resuming on a backend that
  /// cannot is a caller bug) and the returned stats are cumulative, so a
  /// resumed pass reports exactly what an uninterrupted one would. When
  /// `checkpoint.every_chunks` > 0, on_checkpoint fires at every Nth chunk
  /// boundary with the point a future run can resume from. Consumer-visible
  /// edge order is identical to run().
  ///
  /// The ResumePoint carries stream position and counters ONLY — a stateful
  /// filter (Algorithm 6's covered-element mask) restarts empty on resume,
  /// so checkpointed passes must use stateless filters (or none), or the
  /// caller must persist and restore the filter's state alongside the
  /// consumer's.
  PassStats run_resumable(EdgeStream& stream, const EdgeFilter& filter,
                          const ChunkSink& sink, const ResumePoint* resume_from,
                          const CheckpointOptions& checkpoint) const;

  /// Resume without periodic checkpointing (a nested class's defaulted
  /// member initializers cannot serve as a default argument, hence the
  /// overload instead of `= {}`).
  PassStats run_resumable(EdgeStream& stream, const EdgeFilter& filter,
                          const ChunkSink& sink,
                          const ResumePoint* resume_from) const {
    return run_resumable(stream, filter, sink, resume_from, CheckpointOptions());
  }

  /// One pass dealt across `shards` partitioned consumers: the router assigns
  /// each surviving edge to exactly one shard; a shard sees its own edges in
  /// arrival order. Shard buffers are flushed together (one pool task per
  /// shard) every `shards * batch_edges` routed edges, and at every barrier
  /// position. No barrier fires at the end of the pass.
  PassStats run_partitioned(EdgeStream& stream, const EdgeFilter& filter,
                            std::size_t shards, const Router& router,
                            const ShardSink& sink, const Barrier& barrier) const;

  /// Without a barrier (see run_resumable's overload for why not `= {}`).
  PassStats run_partitioned(EdgeStream& stream, const EdgeFilter& filter,
                            std::size_t shards, const Router& router,
                            const ShardSink& sink) const {
    return run_partitioned(stream, filter, shards, router, sink, Barrier());
  }

  std::size_t batch_edges() const { return batch_; }
  ThreadPool* pool() const { return pool_; }

  /// Round-robin router by kept-edge index (SHRD routing 0). Exact only while
  /// the degree cap cannot bind; no CLI path and no builder selects it.
  static Router round_robin(std::size_t shards);
  /// Routes all edges of an element to one shard (hash partition); requires
  /// no dedupe across shards since an element never splits.
  static Router by_element_hash(std::size_t shards, std::uint64_t seed);

 private:
  std::size_t batch_;
  ThreadPool* pool_;
};

}  // namespace covstream
