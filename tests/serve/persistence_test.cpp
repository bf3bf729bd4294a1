// Durable fleet: persistent mode and graceful degradation (DESIGN.md §5.13).
//
// FleetPersistence pins the crash-recovery contract: a fleet booted from an
// existing spill dir answers estimates and solves exactly like the fleet that
// wrote it (bit-for-bit on the serialized handles), never-flushed tenants
// come back empty (their durable state IS empty), and anything unreadable or
// unexpected in the spill dir is quarantined — set aside with a reason, never
// deleted, never able to wedge the boot.
//
// FleetDegraded pins the overload contract: when the eviction arbiter cannot
// spill (disk full) while over budget, the fleet refuses NEW ingest with a
// "degraded" error but keeps serving reads, and recovers on its own the
// moment a spill succeeds again.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/streaming_kcover.hpp"
#include "serve/sketch_fleet.hpp"
#include "sketch/substrate/snapshot.hpp"
#include "util/fault_injection.hpp"
#include "util/rng.hpp"
#include "scratch_dir.hpp"

namespace covstream {
namespace {

namespace fs = std::filesystem;

constexpr SetId kNumSets = 48;

SketchParams fleet_params() {
  SketchParams params;
  params.num_sets = kNumSets;
  params.k = 4;
  params.eps = 0.3;
  params.budget_mode = BudgetMode::kExplicit;
  params.explicit_budget = 400;
  params.hash_seed = 4321;
  return params;
}

std::vector<Edge> make_edges(std::size_t count, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Edge> edges;
  for (std::size_t i = 0; i < count; ++i) {
    edges.push_back(
        Edge{static_cast<SetId>(rng.next_below(std::uint64_t{kNumSets})),
             rng.next_below(std::uint64_t{1} << 12)});
  }
  return edges;
}

template <typename T>
std::vector<std::uint8_t> to_bytes(const T& object) {
  SnapshotWriter writer(T::kSnapshotType);
  object.save(writer);
  return writer.finish();
}

class FleetPersistenceTest : public testing::Test {
 protected:
  void SetUp() override {
    FaultInjector::instance().clear();
    dir_ = fs::path(scratch_dir()) /
           ("covstream_persist_" +
            std::string(testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name()));
    fs::remove_all(dir_);
  }
  void TearDown() override {
    FaultInjector::instance().clear();
    fs::remove_all(dir_);
  }

  SketchFleet::Options persistent_options() const {
    SketchFleet::Options options;
    options.spill_dir = dir_.string();
    options.persistent = true;
    return options;
  }

  fs::path dir_;
};

TEST_F(FleetPersistenceTest, RebootAnswersExactlyLikeTheFleetThatWrote) {
  const std::vector<Edge> alpha_edges = make_edges(6000, 0xA1);
  const std::vector<Edge> beta_edges = make_edges(4000, 0xB2);
  std::string error;
  {
    SketchFleet fleet(persistent_options());
    ASSERT_TRUE(fleet.create("alpha", fleet_params(), &error)) << error;
    ASSERT_TRUE(fleet.create("beta", fleet_params(), &error)) << error;
    ASSERT_TRUE(fleet.ingest("alpha", alpha_edges, &error)) << error;
    ASSERT_TRUE(fleet.ingest("beta", beta_edges, &error)) << error;
    std::size_t flushed = 0;
    ASSERT_TRUE(fleet.flush_all(&flushed, &error)) << error;
    EXPECT_EQ(flushed, 2u);
    // A second flush is a no-op: everything is already durable.
    ASSERT_TRUE(fleet.flush_all(&flushed, &error)) << error;
    EXPECT_EQ(flushed, 0u);
  }

  // The never-restarted twin: same creates, same ingests, no disk round trip.
  SketchFleet twin({});
  ASSERT_TRUE(twin.create("alpha", fleet_params(), &error)) << error;
  ASSERT_TRUE(twin.create("beta", fleet_params(), &error)) << error;
  ASSERT_TRUE(twin.ingest("alpha", alpha_edges, &error)) << error;
  ASSERT_TRUE(twin.ingest("beta", beta_edges, &error)) << error;

  SketchFleet rebooted(persistent_options());
  EXPECT_EQ(rebooted.boot_report().restored, 2u);
  EXPECT_EQ(rebooted.boot_report().quarantined, 0u);
  EXPECT_EQ(rebooted.tenant_names(),
            (std::vector<std::string>{"alpha", "beta"}));
  // Restored tenants load lazily: non-resident until first touched.
  ASSERT_TRUE(rebooted.tenant_stats("alpha").has_value());
  EXPECT_FALSE(rebooted.tenant_stats("alpha")->resident);

  const std::vector<SetId> family = {1, 7, 13, 40};
  for (const char* name : {"alpha", "beta"}) {
    const std::optional<double> got = rebooted.estimate(name, family, &error);
    const std::optional<double> want = twin.estimate(name, family, &error);
    ASSERT_TRUE(got.has_value() && want.has_value()) << error;
    EXPECT_EQ(*got, *want) << name;

    const std::optional<KCoverResult> solve_got =
        rebooted.solve(name, 4, &error);
    const std::optional<KCoverResult> solve_want = twin.solve(name, 4, &error);
    ASSERT_TRUE(solve_got.has_value() && solve_want.has_value()) << error;
    EXPECT_EQ(solve_got->solution, solve_want->solution) << name;
    EXPECT_EQ(solve_got->estimated_coverage, solve_want->estimated_coverage)
        << name;

    const std::shared_ptr<const SubsampleSketch> handle_got =
        rebooted.handle(name, &error);
    const std::shared_ptr<const SubsampleSketch> handle_want =
        twin.handle(name, &error);
    ASSERT_NE(handle_got, nullptr) << error;
    ASSERT_NE(handle_want, nullptr) << error;
    EXPECT_EQ(to_bytes(*handle_got), to_bytes(*handle_want))
        << name << " did not survive the reboot bit-for-bit";
  }
}

TEST_F(FleetPersistenceTest, NeverFlushedTenantComesBackEmpty) {
  std::string error;
  {
    SketchFleet fleet(persistent_options());
    ASSERT_TRUE(fleet.create("gamma", fleet_params(), &error)) << error;
    // Ingest WITHOUT flushing: the live state dies with the process; the
    // manifest alone (written at create) is what survives.
    ASSERT_TRUE(fleet.ingest("gamma", make_edges(2000, 0xC3), &error)) << error;
  }
  SketchFleet rebooted(persistent_options());
  EXPECT_EQ(rebooted.boot_report().recreated_empty, 1u);
  EXPECT_EQ(rebooted.tenant_names(), (std::vector<std::string>{"gamma"}));
  const std::vector<SetId> family = {1, 7};
  const std::optional<double> estimate =
      rebooted.estimate("gamma", family, &error);
  ASSERT_TRUE(estimate.has_value()) << error;
  EXPECT_EQ(*estimate, 0.0) << "an unflushed tenant's durable state is empty";
}

TEST_F(FleetPersistenceTest, CorruptSpillFileIsQuarantinedNotFatal) {
  std::string error;
  {
    SketchFleet fleet(persistent_options());
    ASSERT_TRUE(fleet.create("alpha", fleet_params(), &error)) << error;
    ASSERT_TRUE(fleet.create("beta", fleet_params(), &error)) << error;
    ASSERT_TRUE(fleet.ingest("alpha", make_edges(3000, 0xD4), &error)) << error;
    ASSERT_TRUE(fleet.ingest("beta", make_edges(3000, 0xE5), &error)) << error;
    ASSERT_TRUE(fleet.flush_all(nullptr, &error)) << error;
  }
  // Flip one payload byte: the checksum catches it at the boot probe.
  const fs::path victim = dir_ / "alpha.spill.snap";
  {
    std::fstream file(victim, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(file.is_open());
    file.seekg(100);
    const int byte = file.get();
    ASSERT_NE(byte, EOF);
    file.seekp(100);
    file.put(static_cast<char>(byte ^ 0xFF));
  }

  SketchFleet rebooted(persistent_options());
  EXPECT_EQ(rebooted.boot_report().restored, 1u);
  EXPECT_EQ(rebooted.boot_report().quarantined, 1u);
  EXPECT_EQ(rebooted.tenant_names(), (std::vector<std::string>{"beta"}));
  EXPECT_EQ(rebooted.stats().quarantined, 1u);
  // Quarantine sets aside, never deletes.
  EXPECT_FALSE(fs::exists(victim));
  EXPECT_TRUE(fs::exists(dir_ / "quarantine" / "alpha.spill.snap"));
  // Beta still answers.
  EXPECT_TRUE(rebooted.estimate("beta", std::vector<SetId>{1}, &error)
                  .has_value())
      << error;

  // The post-scan manifest rewrite means the dropped tenant stays dropped:
  // a second reboot is clean.
  SketchFleet again(persistent_options());
  EXPECT_EQ(again.boot_report().restored, 1u);
  EXPECT_EQ(again.boot_report().quarantined, 0u);
}

TEST_F(FleetPersistenceTest, OrphanSpillFileIsQuarantined) {
  std::string error;
  {
    SketchFleet fleet(persistent_options());
    ASSERT_TRUE(fleet.create("alpha", fleet_params(), &error)) << error;
    ASSERT_TRUE(fleet.ingest("alpha", make_edges(3000, 0xF6), &error)) << error;
    ASSERT_TRUE(fleet.flush_all(nullptr, &error)) << error;
  }
  // A valid sketch file whose tenant the manifest never heard of.
  fs::copy_file(dir_ / "alpha.spill.snap", dir_ / "ghost.spill.snap");

  SketchFleet rebooted(persistent_options());
  EXPECT_EQ(rebooted.boot_report().restored, 1u);
  EXPECT_EQ(rebooted.boot_report().quarantined, 1u);
  EXPECT_EQ(rebooted.tenant_names(), (std::vector<std::string>{"alpha"}));
  EXPECT_FALSE(fs::exists(dir_ / "ghost.spill.snap"));
  EXPECT_TRUE(fs::exists(dir_ / "quarantine" / "ghost.spill.snap"));
}

TEST_F(FleetPersistenceTest, ManifestlessSpillDirIsAdopted) {
  const std::vector<Edge> edges = make_edges(5000, 0x17);
  std::string error;
  {
    SketchFleet fleet(persistent_options());
    ASSERT_TRUE(fleet.create("alpha", fleet_params(), &error)) << error;
    ASSERT_TRUE(fleet.ingest("alpha", edges, &error)) << error;
    ASSERT_TRUE(fleet.flush_all(nullptr, &error)) << error;
  }
  fs::remove(dir_ / "fleet.manifest.snap");

  SketchFleet twin({});
  ASSERT_TRUE(twin.create("alpha", fleet_params(), &error)) << error;
  ASSERT_TRUE(twin.ingest("alpha", edges, &error)) << error;

  SketchFleet rebooted(persistent_options());
  EXPECT_EQ(rebooted.boot_report().adopted, 1u);
  EXPECT_EQ(rebooted.tenant_names(), (std::vector<std::string>{"alpha"}));
  const std::vector<SetId> family = {2, 9, 31};
  const std::optional<double> got = rebooted.estimate("alpha", family, &error);
  const std::optional<double> want = twin.estimate("alpha", family, &error);
  ASSERT_TRUE(got.has_value() && want.has_value()) << error;
  EXPECT_EQ(*got, *want);
}

TEST_F(FleetPersistenceTest, CrashLeftoverTempsAreSwept) {
  std::string error;
  {
    SketchFleet fleet(persistent_options());
    ASSERT_TRUE(fleet.create("alpha", fleet_params(), &error)) << error;
    ASSERT_TRUE(fleet.flush_all(nullptr, &error)) << error;
  }
  // What an abort mid-write leaves behind: torn temps the rename never
  // published. Garbage by construction.
  std::ofstream(dir_ / "alpha.spill.snap.tmp.3.12345") << "torn";
  std::ofstream(dir_ / "fleet.manifest.snap.tmp.0.12345") << "torn";

  SketchFleet rebooted(persistent_options());
  EXPECT_EQ(rebooted.boot_report().temps_swept, 2u);
  EXPECT_FALSE(fs::exists(dir_ / "alpha.spill.snap.tmp.3.12345"));
  EXPECT_FALSE(fs::exists(dir_ / "fleet.manifest.snap.tmp.0.12345"));
  EXPECT_EQ(rebooted.tenant_names(), (std::vector<std::string>{"alpha"}));
}

class FleetDegradedTest : public FleetPersistenceTest {};

TEST_F(FleetDegradedTest, SpillFailureDegradesIngestButNotReadsThenRecovers) {
  SketchFleet::Options options;
  options.spill_dir = dir_.string();
  // A budget no sketch fits: every sweep MUST evict, so a failing disk is
  // exposed on the first post-fault mutation.
  options.memory_budget_words = 10;
  options.spill_retry_backoff_ms = 0;  // retry on every mutation (test speed)
  SketchFleet fleet(options);

  std::string error;
  ASSERT_TRUE(fleet.create("alpha", fleet_params(), &error)) << error;
  ASSERT_TRUE(fleet.create("beta", fleet_params(), &error)) << error;
  // Make alpha resident (the arbiter's next eviction candidate).
  ASSERT_TRUE(fleet.ingest("alpha", make_edges(2000, 0x28), &error)) << error;

  // Disk "fills": every spill write from here on fails with ENOSPC.
  ASSERT_TRUE(
      FaultInjector::instance().configure("snapshot.write=enospc@1+"));

  // The ingest itself lands (state is in memory); the eviction sweep after
  // it cannot spill anything, which is what trips degraded mode.
  ASSERT_TRUE(fleet.ingest("beta", make_edges(2000, 0x39), &error)) << error;
  SketchFleet::FleetStats stats = fleet.stats();
  EXPECT_TRUE(stats.degraded);
  EXPECT_GE(stats.spill_failures, 1u);

  // New ingest and create are refused with a diagnosable error...
  EXPECT_FALSE(fleet.ingest("alpha", make_edges(100, 0x4A), &error));
  EXPECT_NE(error.find("degraded"), std::string::npos) << error;
  error.clear();
  EXPECT_FALSE(fleet.create("gamma", fleet_params(), &error));
  EXPECT_NE(error.find("degraded"), std::string::npos) << error;

  // ...but reads keep being served from whatever is resident.
  error.clear();
  EXPECT_TRUE(
      fleet.estimate("alpha", std::vector<SetId>{1, 7}, &error).has_value())
      << error;
  EXPECT_TRUE(fleet.solve("alpha", 2, &error).has_value()) << error;

  // Disk recovers: the next refused-path retry spills successfully, clears
  // degraded mode, and the ingest goes through.
  FaultInjector::instance().clear();
  ASSERT_TRUE(fleet.ingest("alpha", make_edges(100, 0x5B), &error)) << error;
  stats = fleet.stats();
  EXPECT_FALSE(stats.degraded);
}

}  // namespace
}  // namespace covstream
