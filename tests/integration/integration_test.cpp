// Cross-module pipelines: the full Table 1 comparison logic on one instance,
// end-to-end multi-pass runs, and space-metering consistency.
#include <gtest/gtest.h>

#include <cmath>

#include "baselines/offline_greedy.hpp"
#include "baselines/saha_getoor.hpp"
#include "baselines/sieve_streaming.hpp"
#include "core/setcover_multipass.hpp"
#include "core/setcover_outliers.hpp"
#include "core/streaming_kcover.hpp"
#include "sketch/l0_kcover.hpp"
#include "stream/arrival_order.hpp"
#include "stream/edge_stream.hpp"
#include "stream/file_stream.hpp"
#include "workloads/generators.hpp"
#include "scratch_dir.hpp"

namespace covstream {
namespace {

TEST(Integration, KCoverOrderingAcrossAlgorithms) {
  // greedy(G) >= ours >= sieve-ish >= saha-getoor-ish >= random-ish, modulo
  // noise: assert the paper's qualitative ordering loosely — ours within 10%
  // of offline greedy, and at least as good as both set-arrival baselines
  // minus slack.
  const GeneratedInstance gen = make_zipf(100, 5000, 20, 200, 0.8, 1.1, 42);
  const std::uint32_t k = 8;

  const OfflineGreedyResult offline = greedy_kcover(gen.graph, k);

  StreamingOptions options;
  options.eps = 0.15;
  options.seed = 7;
  VectorStream edge_stream(ordered_edges(gen.graph, ArrivalOrder::kRandom, 1));
  const KCoverResult ours = streaming_kcover(edge_stream, 100, k, options);
  const std::size_t ours_covered = gen.graph.coverage(ours.solution);

  VectorStream set_stream1(
      ordered_edges(gen.graph, ArrivalOrder::kSetMajorShuffled, 2));
  const SwapKCoverResult swap =
      saha_getoor_kcover(set_stream1, 100, gen.graph.num_elems(), k);

  VectorStream set_stream2(
      ordered_edges(gen.graph, ArrivalOrder::kSetMajorShuffled, 2));
  const SieveResult sieve =
      sieve_streaming_kcover(set_stream2, 100, gen.graph.num_elems(), k, 0.1);

  EXPECT_GE(static_cast<double>(ours_covered),
            0.9 * static_cast<double>(offline.covered));
  EXPECT_GE(static_cast<double>(ours_covered),
            0.9 * static_cast<double>(sieve.covered));
  EXPECT_GE(static_cast<double>(ours_covered),
            0.9 * static_cast<double>(swap.covered));
}

TEST(Integration, EdgeArrivalBreaksSetArrivalBaselinesNotUs) {
  const GeneratedInstance gen = make_planted_kcover(80, 4, 100, 0.3, 43);
  const std::uint32_t k = 4;

  // Round-robin interleaving: pure edge arrival.
  VectorStream stream1(ordered_edges(gen.graph, ArrivalOrder::kRoundRobin, 3));
  StreamingOptions options;
  options.eps = 0.2;
  options.seed = 11;
  const KCoverResult ours = streaming_kcover(stream1, 80, k, options);
  const double ours_ratio =
      static_cast<double>(gen.graph.coverage(ours.solution)) /
      static_cast<double>(*gen.opt_kcover);
  EXPECT_GE(ours_ratio, 1.0 - 1.0 / std::exp(1.0) - 0.2);

  VectorStream stream2(ordered_edges(gen.graph, ArrivalOrder::kRoundRobin, 3));
  const SwapKCoverResult swap =
      saha_getoor_kcover(stream2, 80, gen.graph.num_elems(), k);
  EXPECT_TRUE(swap.fragmented);
}

TEST(Integration, L0BaselineUsesMoreSpaceThanSketchForLargeK) {
  // The Appendix D baseline pays Theta(t) per set with t ~ k log n / eps^2;
  // the blow-up shows once sets are large enough to saturate their sketches.
  const GeneratedInstance gen = make_planted_kcover(200, 40, 2000, 0.5, 44);
  const std::uint32_t k = 40;

  StreamingOptions options;
  options.eps = 0.3;
  options.seed = 21;
  options.budget_mode = BudgetMode::kExplicit;
  options.explicit_budget = 10000;  // O~(n)-scale budget; plenty for k-cover
  VectorStream stream1(ordered_edges(gen.graph, ArrivalOrder::kRandom, 4));
  const KCoverResult ours = streaming_kcover(stream1, 200, k, options);

  L0KCover l0(200, L0KCover::capacity_for(200, k, 0.3), 22);
  VectorStream stream2(ordered_edges(gen.graph, ArrivalOrder::kRandom, 4));
  l0.consume(stream2);

  EXPECT_GT(l0.space_words(), 2 * ours.space_words);
}

TEST(Integration, OutliersThenMultipassConsistent) {
  // The one-pass outlier algorithm leaves <= lambda uncovered; the multipass
  // algorithm finishes the job. Both run on the same stream object.
  const GeneratedInstance gen = make_planted_setcover(90, 6, 70, 0.4, 45);
  VectorStream stream(ordered_edges(gen.graph, ArrivalOrder::kRandom, 5));

  OutliersOptions out_options;
  out_options.stream.eps = 0.5;
  out_options.stream.seed = 31;
  out_options.lambda = 0.1;
  const OutliersResult outliers = streaming_setcover_outliers(stream, 90, out_options);
  ASSERT_TRUE(outliers.feasible);
  const double fraction = static_cast<double>(gen.graph.coverage(outliers.solution)) /
                          static_cast<double>(gen.graph.num_covered_by_all());
  EXPECT_GE(fraction, 0.85);

  MultipassOptions mp_options;
  mp_options.stream.eps = 0.5;
  mp_options.stream.seed = 32;
  mp_options.rounds = 3;
  const MultipassResult full =
      streaming_setcover_multipass(stream, 90, gen.graph.num_elems(), mp_options);
  EXPECT_TRUE(full.covered_everything);
  EXPECT_GE(full.solution.size(), outliers.solution.size() / 4);
}

TEST(Integration, PassAccountingAcrossSequentialRuns) {
  const GeneratedInstance gen = make_planted_setcover(40, 3, 30, 0.4, 46);
  VectorStream stream(ordered_edges(gen.graph, ArrivalOrder::kRandom, 6));

  StreamingOptions options;
  options.eps = 0.3;
  options.seed = 41;
  streaming_kcover(stream, 40, 3, options);
  EXPECT_EQ(stream.passes_started(), 1u);

  MultipassOptions mp;
  mp.stream = options;
  mp.rounds = 2;
  streaming_setcover_multipass(stream, 40, gen.graph.num_elems(), mp);
  EXPECT_EQ(stream.passes_started(), 3u);  // 1 + 2
}

TEST(Integration, DuplicatedStreamMatchesCleanStream) {
  // Feeding each edge twice must not change the sketch-based solution: a
  // repeated (set, element) arrival stores nothing.
  const GeneratedInstance gen = make_planted_kcover(50, 4, 60, 0.3, 47);
  std::vector<Edge> clean = ordered_edges(gen.graph, ArrivalOrder::kRandom, 7);
  std::vector<Edge> doubled;
  for (const Edge& edge : clean) {
    doubled.push_back(edge);
    doubled.push_back(edge);
  }
  StreamingOptions options;
  options.eps = 0.2;
  options.seed = 51;
  VectorStream s1(clean), s2(doubled);
  const KCoverResult a = streaming_kcover(s1, 50, 4, options);
  const KCoverResult b = streaming_kcover(s2, 50, 4, options);
  EXPECT_EQ(a.solution, b.solution);
  EXPECT_EQ(a.sketch_edges, b.sketch_edges);
}

TEST(Integration, FileStreamEndToEnd) {
  // Write an instance to disk in both formats; run the full streaming
  // pipeline straight off the files; results must match the in-memory run.
  const GeneratedInstance gen = make_planted_kcover(40, 4, 80, 0.4, 99);
  const auto edges = ordered_edges(gen.graph, ArrivalOrder::kRandom, 9);
  const std::string text_path = scratch_path("e2e.txt");
  const std::string bin_path = scratch_path("e2e.bin");
  write_text_edges(text_path, edges);
  write_binary_edges(bin_path, edges);

  StreamingOptions options;
  options.eps = 0.2;
  options.seed = 71;
  VectorStream memory_stream(edges);
  const KCoverResult from_memory = streaming_kcover(memory_stream, 40, 4, options);

  TextFileStream text_stream(text_path);
  const KCoverResult from_text = streaming_kcover(text_stream, 40, 4, options);
  BinaryFileStream bin_stream(bin_path);
  const KCoverResult from_bin = streaming_kcover(bin_stream, 40, 4, options);

  EXPECT_EQ(from_text.solution, from_memory.solution);
  EXPECT_EQ(from_bin.solution, from_memory.solution);
  EXPECT_EQ(from_text.sketch_edges, from_memory.sketch_edges);
}

TEST(Integration, MultipassOverBinaryFile) {
  const GeneratedInstance gen = make_planted_setcover(50, 4, 60, 0.4, 98);
  const auto edges = ordered_edges(gen.graph, ArrivalOrder::kRandom, 8);
  const std::string path = scratch_path("mp.bin");
  write_binary_edges(path, edges);

  BinaryFileStream stream(path);
  MultipassOptions options;
  options.stream.eps = 0.5;
  options.stream.seed = 72;
  options.rounds = 3;
  const MultipassResult result =
      streaming_setcover_multipass(stream, 50, gen.graph.num_elems(), options);
  EXPECT_TRUE(result.covered_everything);
  EXPECT_EQ(result.passes, 3u);
  EXPECT_EQ(gen.graph.coverage(result.solution), gen.graph.num_covered_by_all());
}

TEST(Integration, CommunitiesWorkloadEndToEnd) {
  const GeneratedInstance gen = make_communities(120, 6000, 12, 40, 0.05, 48);
  StreamingOptions options;
  options.eps = 0.2;
  options.seed = 61;
  VectorStream stream(ordered_edges(gen.graph, ArrivalOrder::kRandom, 8));
  const KCoverResult result = streaming_kcover(stream, 120, 12, options);
  const OfflineGreedyResult offline = greedy_kcover(gen.graph, 12);
  EXPECT_GE(static_cast<double>(gen.graph.coverage(result.solution)),
            0.85 * static_cast<double>(offline.covered));
}

}  // namespace
}  // namespace covstream
