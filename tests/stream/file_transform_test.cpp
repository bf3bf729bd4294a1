#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <string>

#include "stream/arrival_order.hpp"
#include "stream/edge_stream.hpp"
#include "stream/file_stream.hpp"
#include "workloads/generators.hpp"
#include "scratch_dir.hpp"

namespace covstream {
namespace {

std::string temp_path(const std::string& name) {
  return scratch_path(name);
}

std::vector<Edge> drain(EdgeStream& stream) {
  std::vector<Edge> edges;
  run_pass(stream, [&](const Edge& edge) { edges.push_back(edge); });
  return edges;
}

TEST(TextFile, RoundTrip) {
  const std::vector<Edge> edges{{0, 5}, {7, 123456789012345ULL}, {2, 0}};
  const std::string path = temp_path("roundtrip.txt");
  EXPECT_EQ(write_text_edges(path, edges), 3u);
  TextFileStream stream(path);
  EXPECT_EQ(drain(stream), edges);
  EXPECT_EQ(stream.malformed_lines(), 0u);
}

TEST(TextFile, SkipsCommentsAndMalformedLines) {
  const std::string path = temp_path("messy.txt");
  std::FILE* f = std::fopen(path.c_str(), "w");
  std::fprintf(f, "# header\n\n1 10\nnot an edge\n  # indented comment\n2 20\n");
  std::fclose(f);
  TextFileStream stream(path);
  const auto edges = drain(stream);
  EXPECT_EQ(edges, (std::vector<Edge>{{1, 10}, {2, 20}}));
  EXPECT_EQ(stream.malformed_lines(), 1u);
}

TEST(TextFile, MultiplePassesReread) {
  const std::vector<Edge> edges{{1, 2}, {3, 4}};
  const std::string path = temp_path("multipass.txt");
  write_text_edges(path, edges);
  TextFileStream stream(path);
  EXPECT_EQ(drain(stream), edges);
  EXPECT_EQ(drain(stream), edges);
  EXPECT_EQ(stream.passes_started(), 2u);
}

TEST(BinaryFile, RoundTripAndCount) {
  const GeneratedInstance gen = make_uniform(20, 100, 8, 5);
  const std::vector<Edge> edges = ordered_edges(gen.graph, ArrivalOrder::kRandom, 1);
  const std::string path = temp_path("roundtrip.bin");
  write_binary_edges(path, edges);
  BinaryFileStream stream(path);
  EXPECT_EQ(stream.edges_per_pass(), edges.size());
  EXPECT_EQ(drain(stream), edges);
}

TEST(BinaryFile, EmptyFileHasZeroEdges) {
  const std::string path = temp_path("empty.bin");
  write_binary_edges(path, {});
  BinaryFileStream stream(path);
  EXPECT_EQ(stream.edges_per_pass(), 0u);
  Edge edge;
  stream.reset();
  EXPECT_FALSE(stream.next(edge));
}

std::vector<Edge> drain_batched(EdgeStream& stream, std::size_t cap) {
  stream.reset();
  std::vector<Edge> edges;
  std::vector<Edge> block(cap);
  std::size_t got = 0;
  while ((got = stream.next_batch(block.data(), cap)) > 0) {
    edges.insert(edges.end(), block.begin(), block.begin() + got);
  }
  return edges;
}

std::string write_messy_file(const std::string& name) {
  const std::string path = temp_path(name);
  std::FILE* f = std::fopen(path.c_str(), "w");
  std::fprintf(f, "# comment-heavy, malformed-heavy input\n");
  std::fprintf(f, "\n\n");
  std::fprintf(f, "1 10\n");
  std::fprintf(f, "not an edge\n");
  std::fprintf(f, "   \t  # indented comment\n");
  std::fprintf(f, "2 20 trailing junk is ignored\n");
  std::fprintf(f, "3\n");                       // missing elem -> malformed
  std::fprintf(f, "99999999999999999999 1\n");  // set id overflows -> malformed
  std::fprintf(f, "\t 4 40\n");
  std::fprintf(f, "# one more comment\n");
  std::fprintf(f, "5 50");  // unterminated final line
  std::fclose(f);
  return path;
}

TEST(TextFile, BlockModeMatchesPerLineModeOnMessyInput) {
  const std::string path = write_messy_file("block_vs_line.txt");
  const std::vector<Edge> expected{{1, 10}, {2, 20}, {4, 40}, {5, 50}};

  TextFileStream per_line(path);
  EXPECT_EQ(drain(per_line), expected);
  const std::size_t malformed_per_line = per_line.malformed_lines();
  EXPECT_EQ(malformed_per_line, 3u);

  for (const std::size_t cap :
       {std::size_t{1}, std::size_t{2}, std::size_t{3}, std::size_t{256}}) {
    TextFileStream block(path);
    EXPECT_EQ(drain_batched(block, cap), expected) << "cap=" << cap;
    EXPECT_EQ(block.malformed_lines(), malformed_per_line) << "cap=" << cap;
  }
}

TEST(TextFile, MalformedCountResetsPerPass) {
  const std::string path = write_messy_file("malformed_reset.txt");
  TextFileStream stream(path);
  drain(stream);
  EXPECT_EQ(stream.malformed_lines(), 3u);
  drain_batched(stream, 64);
  EXPECT_EQ(stream.malformed_lines(), 3u) << "same count on a block-mode pass";
}

TEST(TextFile, LinesLongerThanTheReadBufferParse) {
  const std::string path = temp_path("long_lines.txt");
  std::FILE* f = std::fopen(path.c_str(), "w");
  // A valid edge padded past the 64 KiB read buffer, and an equally long
  // garbage line: the buffer must grow to keep whole-line parsing.
  std::fprintf(f, "7 70");
  for (int i = 0; i < (1 << 16) + 500; ++i) std::fputc(' ', f);
  std::fprintf(f, "\n");
  for (int i = 0; i < (1 << 16) + 500; ++i) std::fputc('x', f);
  std::fprintf(f, "\n8 80\n");
  std::fclose(f);

  TextFileStream stream(path);
  EXPECT_EQ(drain(stream), (std::vector<Edge>{{7, 70}, {8, 80}}));
  EXPECT_EQ(stream.malformed_lines(), 1u);
}

TEST(BinaryFile, BatchBoundariesNeverSplitRecords) {
  const GeneratedInstance gen = make_uniform(25, 400, 12, 21);
  const std::vector<Edge> edges = ordered_edges(gen.graph, ArrivalOrder::kRandom, 9);
  const std::string path = temp_path("batch_boundary.bin");
  write_binary_edges(path, edges);

  BinaryFileStream stream(path);
  for (const std::size_t cap : {std::size_t{1}, std::size_t{7},
                                std::size_t{4096}, edges.size()}) {
    EXPECT_EQ(drain_batched(stream, cap), edges) << "cap=" << cap;
  }
}

TEST(BinaryFile, TruncatedTrailingRecordIsDropped) {
  const std::vector<Edge> edges{{1, 11}, {2, 22}, {3, 33}};
  const std::string path = temp_path("truncated.bin");
  write_binary_edges(path, edges);
  // Chop the last 6 bytes: record 3 becomes a partial record.
  std::FILE* f = std::fopen(path.c_str(), "r+");
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fclose(f);
  ASSERT_EQ(truncate(path.c_str(), size - 6), 0);

  BinaryFileStream stream(path);
  EXPECT_EQ(drain(stream), (std::vector<Edge>{{1, 11}, {2, 22}}));
  BinaryFileStream batched(path);
  EXPECT_EQ(drain_batched(batched, 2), (std::vector<Edge>{{1, 11}, {2, 22}}));
}

}  // namespace
}  // namespace covstream
