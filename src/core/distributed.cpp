#include "core/distributed.hpp"

#include <algorithm>
#include <bit>
#include <utility>

namespace covstream {

std::string to_string(ShardRouting routing) {
  switch (routing) {
    case ShardRouting::kRoundRobin: return "rr";
    case ShardRouting::kByElementHash: return "hash";
  }
  return "?";
}

std::uint64_t shard_router_seed(const SketchParams& params) {
  return params.hash_seed ^ 0x5eedfeedULL;
}

StreamEngine::Router make_shard_router(ShardRouting routing,
                                       std::size_t shard_count,
                                       std::uint64_t router_seed) {
  COVSTREAM_CHECK(shard_count >= 1);
  return routing == ShardRouting::kRoundRobin
             ? StreamEngine::round_robin(shard_count)
             : StreamEngine::by_element_hash(shard_count, router_seed);
}

EdgeFilter shard_ownership_filter(const ShardManifest& manifest) {
  COVSTREAM_CHECK(manifest.shard_id < manifest.shard_count);
  // The counter advances on EVERY edge the filter sees — exactly the kept
  // index run_partitioned would feed the router with no filter installed —
  // so W workers filtering the same stream partition it identically to one
  // in-process partitioned pass.
  return [router = make_shard_router(manifest.routing, manifest.shard_count,
                                     manifest.router_seed),
          shard = static_cast<std::size_t>(manifest.shard_id),
          kept = std::size_t{0}](const Edge& edge) mutable {
    return router(edge, kept++) == shard;
  };
}

void ShardSnapshot::save(SnapshotWriter& writer) const {
  writer.begin_section(snapshot_tag('S', 'H', 'R', 'D'));
  writer.u32(manifest.shard_id);
  writer.u32(manifest.shard_count);
  writer.u32(static_cast<std::uint32_t>(manifest.routing));
  writer.u64(manifest.router_seed);
  writer.u64(manifest.edges_ingested);
  sketch.save(writer);
  writer.end_section();
}

std::optional<ShardSnapshot> ShardSnapshot::load_snapshot(SnapshotReader& reader) {
  if (!reader.begin_section(snapshot_tag('S', 'H', 'R', 'D'))) return std::nullopt;
  ShardManifest manifest;
  manifest.shard_id = reader.u32();
  manifest.shard_count = reader.u32();
  const std::uint32_t routing = reader.u32();
  manifest.router_seed = reader.u64();
  manifest.edges_ingested = reader.u64();
  if (manifest.shard_count == 0) {
    reader.fail("shard manifest: shard count is zero");
    return std::nullopt;
  }
  if (manifest.shard_id >= manifest.shard_count) {
    reader.fail("shard manifest: shard id out of range");
    return std::nullopt;
  }
  if (routing > static_cast<std::uint32_t>(ShardRouting::kByElementHash)) {
    reader.fail("shard manifest: unknown routing mode");
    return std::nullopt;
  }
  manifest.routing = static_cast<ShardRouting>(routing);
  std::optional<SubsampleSketch> sketch = SubsampleSketch::load_snapshot(reader);
  if (!sketch) return std::nullopt;
  if (manifest.router_seed != shard_router_seed(sketch->params())) {
    reader.fail("shard manifest: router seed does not match the sketch seed");
    return std::nullopt;
  }
  if (!reader.end_section()) return std::nullopt;
  return ShardSnapshot{manifest, std::move(*sketch)};
}

bool validate_shard_set(const std::vector<ShardSnapshot>& shards,
                        std::string* error) {
  const auto fail = [error](std::string message) {
    if (error != nullptr) *error = std::move(message);
    return false;
  };
  if (shards.empty()) return fail("shard set is empty: no shard snapshots to merge");
  const ShardManifest& head = shards.front().manifest;
  const SketchParams& head_params = shards.front().sketch.params();
  for (std::size_t i = 1; i < shards.size(); ++i) {
    const ShardManifest& m = shards[i].manifest;
    if (m.shard_count != head.shard_count) {
      return fail("shard-count mismatch: shard " + std::to_string(m.shard_id) +
                  " declares " + std::to_string(m.shard_count) +
                  " shards but shard " + std::to_string(head.shard_id) +
                  " declares " + std::to_string(head.shard_count));
    }
    if (m.routing != head.routing) {
      return fail("routing mismatch: shard " + std::to_string(m.shard_id) +
                  " used '" + to_string(m.routing) + "' but shard " +
                  std::to_string(head.shard_id) + " used '" +
                  to_string(head.routing) + "'");
    }
    if (m.router_seed != head.router_seed) {
      return fail("router-seed mismatch: shard " + std::to_string(m.shard_id) +
                  " partitioned with a different seed than shard " +
                  std::to_string(head.shard_id));
    }
    if (!(shards[i].sketch.params() == head_params)) {
      return fail("params mismatch: shard " + std::to_string(m.shard_id) +
                  " was built with different SketchParams than shard " +
                  std::to_string(head.shard_id) + " (refusing to merge)");
    }
  }
  if (shards.size() > head.shard_count) {
    return fail("too many shards: " + std::to_string(shards.size()) +
                " snapshots for a " + std::to_string(head.shard_count) +
                "-shard partition");
  }
  std::vector<bool> seen(head.shard_count, false);
  for (const ShardSnapshot& shard : shards) {
    if (seen[shard.manifest.shard_id]) {
      return fail("duplicate shard id " + std::to_string(shard.manifest.shard_id) +
                  ": two snapshots claim the same shard");
    }
    seen[shard.manifest.shard_id] = true;
  }
  for (std::uint32_t id = 0; id < head.shard_count; ++id) {
    if (!seen[id]) {
      return fail("missing shard " + std::to_string(id) + " of " +
                  std::to_string(head.shard_count) + " (have " +
                  std::to_string(shards.size()) + " snapshots)");
    }
  }
  return true;
}

SubsampleSketch hierarchical_merge(std::vector<SubsampleSketch> sketches,
                                   std::size_t fan_in, ThreadPool* pool) {
  COVSTREAM_CHECK(!sketches.empty());
  COVSTREAM_CHECK(fan_in >= 2);
  while (sketches.size() > 1) {
    const std::size_t groups = (sketches.size() + fan_in - 1) / fan_in;
    const auto merge_group = [&sketches, fan_in](std::size_t g) {
      const std::size_t begin = g * fan_in;
      const std::size_t end = std::min(begin + fan_in, sketches.size());
      for (std::size_t i = begin + 1; i < end; ++i) {
        sketches[begin].merge_from(sketches[i]);
      }
    };
    if (pool != nullptr && groups > 1) {
      // Groups touch disjoint sketches, so pool fan-out == serial bit for
      // bit (the §5.5 disjoint-state argument).
      for (std::size_t g = 0; g < groups; ++g) {
        pool->submit([&merge_group, g] { merge_group(g); });
      }
      pool->wait_idle();
    } else {
      for (std::size_t g = 0; g < groups; ++g) merge_group(g);
    }
    std::vector<SubsampleSketch> next;
    next.reserve(groups);
    for (std::size_t g = 0; g < groups; ++g) {
      next.push_back(std::move(sketches[g * fan_in]));
    }
    sketches = std::move(next);
  }
  return std::move(sketches.front());
}

std::optional<SubsampleSketch> merge_shard_set(std::vector<ShardSnapshot> shards,
                                               std::size_t fan_in,
                                               ThreadPool* pool,
                                               std::string* error) {
  if (!validate_shard_set(shards, error)) return std::nullopt;
  // Ascending shard-id order makes the reduction independent of the order
  // the coordinator happened to collect the files in.
  std::sort(shards.begin(), shards.end(),
            [](const ShardSnapshot& a, const ShardSnapshot& b) {
              return a.manifest.shard_id < b.manifest.shard_id;
            });
  std::vector<SubsampleSketch> sketches;
  sketches.reserve(shards.size());
  for (ShardSnapshot& shard : shards) {
    sketches.push_back(std::move(shard.sketch));
  }
  return hierarchical_merge(std::move(sketches), fan_in, pool);
}

ShardedSketchBuilder::ShardedSketchBuilder(SketchParams params, std::size_t shards,
                                           ThreadPool* pool)
    : pool_(pool),
      budget_(params.edge_budget()),
      bound_every_(budget_ / 16 + (budget_ % 16 != 0)) {
  COVSTREAM_CHECK(shards >= 1);
  shards_.reserve(shards);
  for (std::size_t s = 0; s < shards; ++s) {
    shards_.emplace_back(params);
  }
}

void ShardedSketchBuilder::consume(EdgeStream& stream, std::size_t batch_edges) {
  const StreamEngine engine({batch_edges, pool_});
  const StreamEngine::Router router =
      make_shard_router(ShardRouting::kByElementHash, shards_.size(),
                        shard_router_seed(shards_.front().params()));
  // Position 0 is the shards as they stand, without a histogram.
  for (std::vector<ShardRecord>& records : records_) {
    records.assign(shards_.size(), ShardRecord{});
  }
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    publish(s, records_[0][s], /*histogram=*/false, 0);
  }
  engine.run_partitioned(
      stream, {}, shards_.size(), router,
      [this](std::size_t s, std::span<const Edge> chunk) {
        shards_[s].update_chunk(chunk);
      },
      {bound_every_,
       [this](std::size_t s, std::size_t position) { share_cutoff(s, position); }});
}

void ShardedSketchBuilder::share_cutoff(std::size_t s, std::size_t position) {
  // Every hook of this position reads the same records of the last one, so
  // each derives the same bound on its own.
  const std::vector<ShardRecord>& last = records_[(position - 1) % 2];
  std::size_t edges = 0;
  std::size_t elements = 0;
  std::uint64_t top = 0;
  for (const ShardRecord& record : last) {
    edges += record.edges;
    elements += record.elements;
    top = std::max(top, record.cutoff);
  }
  // Hash routing gives each element's capped, arrival-ordered edge list to
  // exactly one shard, so every edge the histograms counted is one the
  // single-stream sketch also held at the last position, and capped counts
  // only grow. Once those with key below x exceed the budget, the final
  // hash prefix (§5.1) excludes every key at or above x, so applying x a
  // period late is as exact as applying it then. One element alone may
  // exceed the budget (it is never evicted); bounding it would mark an
  // unsaturated sketch saturated.
  std::uint64_t cutoff = top;
  if (edges > budget_ && elements >= 2 && !last.front().histogram.empty()) {
    // The bucket where the running total first exceeds the budget; its
    // upper edge keeps the minimum key, which lies in this bucket or an
    // earlier one. The last bucket's edge is at or above the top cutoff:
    // nothing to lower.
    std::size_t below = 0;
    std::size_t bucket = 0;
    for (; bucket < kBoundBuckets; ++bucket) {
      for (const ShardRecord& record : last) below += record.histogram[bucket];
      if (below > budget_) break;
    }
    if (bucket + 1 < kBoundBuckets) {
      cutoff = std::min(top, std::uint64_t{bucket + 1} << last.front().shift);
    }
  }
  shards_[s].lower_admission_cutoff(cutoff);
  if (s == 0 && cutoff < top) ++bounds_applied_;
  // A period adds at most bound_every_ stored edges, so only then can the
  // shards hold more than the budget at this position. Every shard's live
  // keys now lie below `cutoff`: buckets of 2^shift cover them in 4096.
  const int shift =
      std::max(0, static_cast<int>(std::bit_width(cutoff)) - kBoundBucketBits);
  publish(s, records_[position % 2][s], edges + bound_every_ > budget_, shift);
}

void ShardedSketchBuilder::publish(std::size_t s, ShardRecord& record,
                                   bool histogram, int shift) const {
  const SubsampleSketch& shard = shards_[s];
  record.edges = shard.stored_edges();
  record.elements = shard.retained_elements();
  record.cutoff = shard.admission_cutoff();
  record.shift = shift;
  record.histogram.clear();
  if (!histogram) return;
  record.histogram.resize(kBoundBuckets, 0);
  shard.for_each_retained([&](std::uint64_t key, std::size_t n) {
    record.histogram[std::min<std::uint64_t>(key >> shift, kBoundBuckets - 1)] += n;
  });
}

std::size_t ShardedSketchBuilder::max_shard_space_words() const {
  std::size_t peak = 0;
  for (const SubsampleSketch& shard : shards_) {
    peak = std::max(peak, shard.peak_space_words());
  }
  return peak;
}

SubsampleSketch ShardedSketchBuilder::finalize() {
  // The fan_in=2 hierarchical tree groups shards pairwise level by level —
  // exactly the reduction order the pre-distributed builder used, so
  // finalize() output is unchanged. The pool parallelizes groups (disjoint
  // state, bit-for-bit equal to serial).
  SubsampleSketch result = hierarchical_merge(std::move(shards_), 2, pool_);
  shards_.clear();
  return result;
}

}  // namespace covstream
