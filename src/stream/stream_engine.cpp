#include "stream/stream_engine.hpp"

#include <algorithm>
#include <condition_variable>
#include <limits>
#include <memory>
#include <mutex>

#include "hash/hash64.hpp"

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

namespace {

/// One routed chunk: its edges dealt into per-shard slices, and the barrier
/// positions reached inside it with every slice's length at each.
struct ChunkSlot {
  std::vector<std::vector<Edge>> slices;  // per shard, arrival order
  std::vector<std::size_t> positions;     // ascending
  std::vector<std::size_t> cuts;          // positions.size() x shards
};

/// run_partitioned's pipeline: a ring of chunk slots the reader fills in
/// order and every worker drains in order, plus the count of returned
/// barrier hooks that orders one position's hooks after the last one's.
/// With no pool tasks the reader is the one worker and drains each slot
/// as soon as it is routed, so one slot suffices.
class ShardPipeline {
 public:
  /// Chunk slots in flight between the reader and the pool workers.
  static constexpr std::size_t kRingSlots = 4;

  ShardPipeline(std::size_t shards, std::size_t tasks,
                const StreamEngine::ShardSink& sink,
                const StreamEngine::Barrier& barrier)
      : shards_(shards),
        tasks_(tasks),
        workers_(std::max<std::size_t>(tasks, 1)),
        ring_(tasks == 0 ? 1 : kRingSlots),
        drained_(workers_, 0),
        sink_(sink),
        barrier_(barrier) {
    for (ChunkSlot& slot : ring_) slot.slices.resize(shards);
  }

  /// Closes the ring and waits for every pool task to end, on every path
  /// out of run_partitioned: the tasks hold this object's address.
  ~ShardPipeline() {
    std::unique_lock lock(mutex_);
    closed_ = true;
    slot_ready_.notify_all();
    reader_wake_.wait(lock, [this] { return finished_ == tasks_; });
  }

  ShardPipeline(const ShardPipeline&) = delete;
  ShardPipeline& operator=(const ShardPipeline&) = delete;

  /// Reader: the next slot to fill, emptied, once every worker has drained
  /// the chunk it last held.
  ChunkSlot& acquire() {
    std::unique_lock lock(mutex_);
    reader_wake_.wait(lock, [this] {
      return published_ < ring_.size() ||
             *std::min_element(drained_.begin(), drained_.end()) >
                 published_ - ring_.size();
    });
    ChunkSlot& slot = ring_[published_ % ring_.size()];
    lock.unlock();
    for (std::vector<Edge>& slice : slot.slices) slice.clear();
    slot.positions.clear();
    slot.cuts.clear();
    return slot;
  }

  /// Reader: hands the acquired slot to the workers; returns its number.
  std::size_t publish() {
    std::size_t number = 0;
    {
      std::lock_guard lock(mutex_);
      number = published_++;
    }
    slot_ready_.notify_all();
    return number;
  }

  /// Pool task: drains every slot for worker `w`'s shards until the reader
  /// finishes.
  void work(std::size_t w) {
    for (std::size_t number = 0;; ++number) {
      {
        std::unique_lock lock(mutex_);
        slot_ready_.wait(lock, [&] { return published_ > number || closed_; });
        if (published_ == number) break;
      }
      drain(number, w);
    }
    // Notified under the lock: the destructor may finish as soon as it
    // sees the count.
    std::lock_guard lock(mutex_);
    ++finished_;
    reader_wake_.notify_one();
  }

  /// Sinks slot `number`'s slices of worker `w`'s shards, stopping at each
  /// barrier position inside it for the shards' hooks.
  void drain(std::size_t number, std::size_t w) {
    const ChunkSlot& slot = ring_[number % ring_.size()];
    const std::size_t marks = slot.positions.size();
    for (std::size_t p = 0; p <= marks; ++p) {
      for (std::size_t s = w; s < shards_; s += workers_) {
        const std::size_t begin = p == 0 ? 0 : slot.cuts[(p - 1) * shards_ + s];
        const std::size_t end =
            p < marks ? slot.cuts[p * shards_ + s] : slot.slices[s].size();
        if (end > begin) {
          sink_(s, std::span<const Edge>(slot.slices[s].data() + begin, end - begin));
        }
      }
      if (p < marks) barrier(slot.positions[p], w);
    }
    {
      std::lock_guard lock(mutex_);
      ++drained_[w];
    }
    reader_wake_.notify_one();
  }

 private:
  /// Runs worker `w`'s hooks for position j once every hook for j−1 has
  /// returned. Hooks return position by position, so that is the moment
  /// (j−1)·shards of them have.
  void barrier(std::size_t j, std::size_t w) {
    {
      std::unique_lock lock(mutex_);
      hooks_done_.wait(lock, [&] { return hooks_returned_ >= (j - 1) * shards_; });
    }
    std::size_t owned = 0;
    for (std::size_t s = w; s < shards_; s += workers_, ++owned) {
      barrier_.on_barrier(s, j);
    }
    {
      std::lock_guard lock(mutex_);
      hooks_returned_ += owned;
    }
    hooks_done_.notify_all();
  }

  const std::size_t shards_;
  const std::size_t tasks_;    // pool tasks draining the ring
  const std::size_t workers_;  // tasks, or the reader alone
  std::vector<ChunkSlot> ring_;
  std::mutex mutex_;
  std::condition_variable slot_ready_;   // workers: a slot or the end
  std::condition_variable reader_wake_;  // reader: a drained slot or worker
  std::condition_variable hooks_done_;   // workers: hooks returned
  std::size_t published_ = 0;            // slots handed to the workers
  std::vector<std::size_t> drained_;     // per worker, slots drained
  std::size_t hooks_returned_ = 0;
  std::size_t finished_ = 0;             // workers ended
  bool closed_ = false;
  const StreamEngine::ShardSink& sink_;
  const StreamEngine::Barrier& barrier_;
};

}  // namespace

StreamEngine::PassStats StreamEngine::run_partitioned(
    EdgeStream& stream, const EdgeFilter& filter, std::size_t shards,
    const Router& router, const ShardSink& sink, const Barrier& barrier) const {
  COVSTREAM_CHECK(shards >= 1);
  const std::size_t every = barrier.on_barrier ? barrier.every_edges : 0;
  const std::size_t tasks =
      pool_ == nullptr ? 0 : std::min(pool_->thread_count(), shards);
  ShardPipeline pipeline(shards, tasks, sink, barrier);
  for (std::size_t w = 0; w < tasks; ++w) {
    pool_->submit([&pipeline, w] { pipeline.work(w); });
  }
  std::size_t routed = 0;  // kept edges dealt so far (router index)
  std::size_t next_position =
      every == 0 ? std::numeric_limits<std::size_t>::max() : every;
  // The pipeline outlives the pass: its destructor waits for the tasks.
  return run(stream, filter, [&](std::span<const Edge> chunk) {
    ChunkSlot& slot = pipeline.acquire();
    std::size_t i = 0;
    while (i < chunk.size()) {
      // Route up to the next barrier position, or to the chunk's end.
      const std::size_t end = i + std::min(chunk.size() - i, next_position - routed);
      for (; i < end; ++i) {
        const std::size_t shard = router(chunk[i], routed++);
        COVSTREAM_CHECK(shard < shards);
        slot.slices[shard].push_back(chunk[i]);
      }
      if (routed == next_position) {
        slot.positions.push_back(routed / every);
        for (const std::vector<Edge>& slice : slot.slices) {
          slot.cuts.push_back(slice.size());
        }
        next_position += every;
      }
    }
    const std::size_t number = pipeline.publish();
    if (tasks == 0) pipeline.drain(number, 0);
  });
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
