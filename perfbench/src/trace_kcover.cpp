// Traced replay of file_kcover: the same job `covstream_cli --cmd=kcover`
// runs (streaming_kcover's serial and pooled paths), rebuilt from the
// layers' public calls so each call can be spanned from here.
//
// Span tree (serial; the pooled tree adds core.merge and runs core.admit
// on the pool threads):
//
//   kcover
//     stream.engine            StreamEngine::run / run_partitioned
//       stream.read            EdgeStream::next_batch on the file
//       core.admit             SubsampleSketch::update_chunk
//     core.merge               SubsampleSketch::merge_from (pooled only)
//     solve.view               SubsampleSketch::view
//     solve.greedy             Solver + greedy pick
#include <malloc.h>

#include <filesystem>
#include <memory>
#include <optional>

#include "core/distributed.hpp"
#include "core/streaming_kcover.hpp"
#include "parallel/thread_pool.hpp"
#include "sketch/substrate/snapshot.hpp"
#include "stream/file_stream.hpp"
#include "stream/stream_engine.hpp"
#include "tool.hpp"

namespace perfbench {
namespace {

using covstream::KCoverResult;
using covstream::SketchParams;
using covstream::SketchView;
using covstream::Solver;
using covstream::StreamEngine;
using covstream::SubsampleSketch;

/// Timing decorator over the file stream: every next_batch is a span.
class TimedStream final : public covstream::EdgeStream {
 public:
  TimedStream(const std::string& path, Tracer* tracer)
      : inner_(path), tracer_(tracer) {}
  void reset() override {
    note_pass();
    inner_.reset();
  }
  bool next(Edge& edge) override { return inner_.next(edge); }
  std::size_t next_batch(Edge* out, std::size_t cap) override {
    const Scope span(tracer_, "stream.read", parent);
    const std::size_t got = inner_.next_batch(out, cap);
    edges += got;
    return got;
  }
  std::size_t edges_per_pass() const override { return inner_.edges_per_pass(); }

  std::uint64_t parent = 0;
  std::size_t edges = 0;

 private:
  covstream::BinaryFileStream inner_;
  Tracer* tracer_;
};

struct Replay {
  KCoverResult result;
  double wall_s = 0.0;
  std::size_t edges = 0;
  std::vector<double> shard_admit_s;  // pooled only
  std::optional<SubsampleSketch> sketch;
};

/// One k-cover job; `tracer` null runs it untraced (every Scope a no-op).
Replay replay(const std::string& input, const SketchParams& params,
              std::uint32_t k, std::size_t threads, Tracer* tracer) {
  Replay out;
  const std::int64_t start = now_ns();
  {
    const Scope root(tracer, "kcover", 0);
    TimedStream stream(input, tracer);
    std::optional<covstream::ThreadPool> pool;
    if (threads > 1) pool.emplace(threads);
    covstream::ThreadPool* pool_ptr = pool ? &*pool : nullptr;
    if (threads > 1) {
      std::vector<SubsampleSketch> shards(threads, SubsampleSketch(params));
      out.shard_admit_s.assign(threads, 0.0);
      {
        const Scope engine(tracer, "stream.engine", root.id());
        stream.parent = engine.id();
        const StreamEngine::Router router = covstream::make_shard_router(
            covstream::ShardRouting::kRoundRobin, threads,
            covstream::shard_router_seed(params));
        StreamEngine({0, pool_ptr})
            .run_partitioned(stream, {}, threads, router,
                             [&](std::size_t s, std::span<const Edge> chunk) {
                               const Scope span(tracer, "core.admit", engine.id());
                               const std::int64_t t0 = now_ns();
                               shards[s].update_chunk(chunk);
                               out.shard_admit_s[s] +=
                                   static_cast<double>(now_ns() - t0) * 1e-9;
                             });
      }
      {
        // ShardedSketchBuilder::finalize's pairwise tree, one pool task per
        // disjoint pair per level.
        const Scope merge(tracer, "core.merge", root.id());
        for (std::size_t step = 1; step < shards.size(); step *= 2) {
          for (std::size_t i = 0; i + step < shards.size(); i += 2 * step) {
            pool->submit([&, i, step] {
              const Scope pair(tracer, "core.merge", merge.id());
              shards[i].merge_from(shards[i + step]);
            });
          }
          pool->wait_idle();
        }
      }
      out.sketch.emplace(std::move(shards[0]));
    } else {
      out.sketch.emplace(params);
      const Scope engine(tracer, "stream.engine", root.id());
      stream.parent = engine.id();
      StreamEngine({0, nullptr}).run(stream, {}, [&](std::span<const Edge> chunk) {
        const Scope span(tracer, "core.admit", engine.id());
        out.sketch->update_chunk(chunk);
      });
    }
    std::optional<SketchView> view;
    {
      const Scope span(tracer, "solve.view", root.id());
      view.emplace(out.sketch->view());
    }
    {
      const Scope span(tracer, "solve.greedy", root.id());
      Solver solver(*view, pool_ptr);
      out.result = covstream::kcover_with_solver(*out.sketch, *view, solver, k);
    }
    out.edges = stream.edges;
  }
  out.wall_s = static_cast<double>(now_ns() - start) * 1e-9;
  return out;
}

std::string self_json(const Tracer& tracer) {
  JsonOut out;
  for (const auto& [name, seconds] : tracer.self_seconds()) out.num(name, seconds);
  return out.done();
}

template <typename Fn>
double median_ms(int reps, Fn&& fn) {
  std::vector<double> ms;
  for (int i = 0; i < reps; ++i) ms.push_back(time_ms(fn));
  return median(ms);
}

/// Each thread count is replayed kReps times untraced and kReps times
/// traced, alternately, so a slow spell of the host lands on both sides.
constexpr int kReps = 3;

struct Side {
  Replay first;       // the first replay: answer, sketch, shard admit times
  bool agree = true;  // every replay printed first's answer
  std::vector<double> untraced_s;
  std::vector<double> traced_s;
  std::vector<std::unique_ptr<Tracer>> traces;  // one per traced replay

  const Tracer& median_trace() const {
    std::vector<std::size_t> order(traces.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) { return traced_s[a] < traced_s[b]; });
    return *traces[order[order.size() / 2]];
  }
};

Side replay_side(const std::string& input, const SketchParams& params,
                 std::uint32_t k, std::size_t threads) {
  Side side;
  for (int rep = 0; rep < kReps; ++rep) {
    side.traces.push_back(std::make_unique<Tracer>());
    for (Tracer* tracer : {static_cast<Tracer*>(nullptr), side.traces.back().get()}) {
      Replay r = replay(input, params, k, threads, tracer);
      (tracer == nullptr ? side.untraced_s : side.traced_s).push_back(r.wall_s);
      if (rep == 0 && tracer == nullptr) {
        side.first = std::move(r);
      } else {
        side.agree = side.agree && r.result.solution == side.first.result.solution &&
                     r.result.estimated_coverage == side.first.result.estimated_coverage;
      }
    }
  }
  return side;
}

}  // namespace

int cmd_trace_kcover(Flags& flags) {
  const std::string input = flags.str("input");
  const KCoverWorkload w = kcover_workload(flags.str("scale"));
  const std::uint64_t seed = flags.u64("seed");
  const std::string spans = flags.str("spans");
  const std::string tmp = flags.str("tmp");
  flags.finish();

  // A fresh CLI process maps (and page-faults) every large block it
  // allocates. glibc would otherwise keep the first replay's freed blocks
  // on the heap and hand them, already faulted in, to the later replays,
  // which would then skip a cost the CLI job pays. A fixed mmap threshold
  // returns each replay's large blocks to the kernel when freed.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);

  // streaming_kcover's parameters: Algorithm 3 drives the sketch at eps/12.
  covstream::StreamingOptions options;
  options.eps = w.eps;
  options.seed = seed;
  const SketchParams params = options.sketch_params(w.shape.num_sets, w.k, w.eps / 12.0);

  const Side serial = replay_side(input, params, w.k, 1);
  const Side pooled = replay_side(input, params, w.k, w.pooled_threads);
  if (!(serial.median_trace().write_json(spans + ".serial.json") &&
        pooled.median_trace().write_json(spans + ".pooled.json"))) {
    die("cannot write spans under " + spans);
  }

  const SubsampleSketch& sketch = *serial.first.sketch;
  const std::vector<SetId>& solution = serial.first.result.solution;
  // Layer costs on the finished sketch, which file_kcover never pays: the
  // serve layers' publish copy and estimate scan, and the snapshot layer.
  // They are controls here (predicted unchanged by admission work).
  double sink = 0.0;
  const double publish_ms = median_ms(5, [&] {
    const SubsampleSketch copy(sketch);
    sink += static_cast<double>(copy.stored_edges());
  });
  const double scan_ms = median_ms(5, [&] { sink += sketch.estimate_coverage(solution); });
  const std::string snap = (std::filesystem::path(tmp) / "kcover.snap").string();
  const double spill_ms = median_ms(3, [&] {
    if (!covstream::save_snapshot(sketch, snap)) die("save_snapshot failed");
  });
  const double reload_ms = median_ms(3, [&] {
    if (!covstream::load_snapshot<SubsampleSketch>(snap)) die("load_snapshot failed");
  });
  std::filesystem::remove(snap);

  const std::vector<double>& shard_s = pooled.first.shard_admit_s;
  double admit_sum = 0.0;
  double admit_max = 0.0;
  for (const double s : shard_s) {
    admit_sum += s;
    admit_max = std::max(admit_max, s);
  }
  const double skew =
      admit_sum > 0 ? admit_max / (admit_sum / static_cast<double>(shard_s.size())) : 1.0;
  const auto walls = [](const std::vector<double>& values) {
    std::string text = "[";
    for (std::size_t i = 0; i < values.size(); ++i) {
      text += (i ? ", " : "") + std::to_string(values[i]);
    }
    return text + "]";
  };
  std::printf(
      "%s\n",
      JsonOut()
          .num("edges", static_cast<double>(serial.first.edges))
          .num("replays_agree", serial.agree && pooled.agree ? 1.0 : 0.0)
          .str("serial_solution", family_text(solution))
          .str("pooled_solution", family_text(pooled.first.result.solution))
          .num("serial_estimate", serial.first.result.estimated_coverage)
          .num("pooled_estimate", pooled.first.result.estimated_coverage)
          .raw("serial_untraced_s", walls(serial.untraced_s))
          .raw("serial_traced_s", walls(serial.traced_s))
          .raw("pooled_untraced_s", walls(pooled.untraced_s))
          .raw("pooled_traced_s", walls(pooled.traced_s))
          .raw("serial_self_s", self_json(serial.median_trace()))
          .raw("pooled_self_s", self_json(pooled.median_trace()))
          .num("shard_skew", skew)
          .num("peak_space_words", static_cast<double>(serial.first.result.space_words))
          .num("p_star", serial.first.result.p_star)
          .num("stored_edges", static_cast<double>(sketch.stored_edges()))
          .num("publish_ms", publish_ms)
          .num("publish_bytes", static_cast<double>(sketch.space_words()) * 8.0)
          .num("estimate_scan_ms", scan_ms)
          .num("spill_ms", spill_ms)
          .num("reload_ms", reload_ms)
          .num("sink", sink > 0 ? 1.0 : 0.0)
          .done()
          .c_str());
  return 0;
}

}  // namespace perfbench
