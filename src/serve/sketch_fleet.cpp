#include "serve/sketch_fleet.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <utility>

#include "serve/fleet_manifest.hpp"
#include "sketch/substrate/snapshot.hpp"
#include "util/log.hpp"

namespace covstream {

bool valid_tenant_name(const std::string& name) {
  if (name.empty() || name.size() > 64) return false;
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '.' || c == '-';
    if (!ok) return false;
  }
  return true;
}

namespace {

constexpr const char kSpillSuffix[] = ".spill.snap";

bool set_error(std::string* error, const std::string& message) {
  if (error != nullptr) *error = message;
  return false;
}

/// The range check ingest and estimate share: false (with the wire's error
/// wording) when `set` lies outside a universe of `num_sets` sets.
bool check_set(SetId set, SetId num_sets, std::string* error) {
  if (set < num_sets) return true;
  return set_error(error, "set id " + std::to_string(set) +
                              " outside universe [0, " +
                              std::to_string(num_sets) + ")");
}

/// One family's estimate on a published view, or nullopt + *error when a
/// set id is out of range.
std::optional<double> estimate_on(const SketchView& view,
                                  std::span<const SetId> family,
                                  std::string* error) {
  for (const SetId s : family) {
    if (!check_set(s, view.num_sets, error)) return std::nullopt;
  }
  return view.estimate_coverage(family);
}

std::int64_t steady_now_ms() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// "t0.spill.snap" -> "t0"; nullopt for anything else (manifest, temps,
/// quarantine dir contents never reach here — callers filter).
std::optional<std::string> spill_tenant_name(const std::string& filename) {
  const std::size_t suffix_len = sizeof kSpillSuffix - 1;
  if (filename.size() <= suffix_len) return std::nullopt;
  if (filename.compare(filename.size() - suffix_len, suffix_len,
                       kSpillSuffix) != 0) {
    return std::nullopt;
  }
  return filename.substr(0, filename.size() - suffix_len);
}

}  // namespace

SketchFleet::SketchFleet(Options options) : options_(std::move(options)) {
  COVSTREAM_CHECK(options_.memory_budget_words == 0 ||
                  !options_.spill_dir.empty());
  COVSTREAM_CHECK(!options_.persistent || !options_.spill_dir.empty());
  if (!options_.spill_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(options_.spill_dir, ec);
    // A failure surfaces on the first spill attempt with a real message;
    // nothing to do here (the directory may also already exist).
  }
  if (options_.persistent) boot_scan();
}

SketchFleet::~SketchFleet() = default;

std::string SketchFleet::spill_path_for(const std::string& name) const {
  return options_.spill_dir + "/" + name + kSpillSuffix;
}

void SketchFleet::quarantine_file(const std::string& path,
                                  const std::string& reason) {
  namespace fs = std::filesystem;
  std::error_code ec;
  const fs::path quarantine_dir = fs::path(options_.spill_dir) / "quarantine";
  fs::create_directories(quarantine_dir, ec);
  const std::string filename = fs::path(path).filename().string();
  fs::path target = quarantine_dir / filename;
  // Never clobber an earlier quarantined file of the same name — each one
  // is evidence the operator may want.
  for (int i = 1; fs::exists(target, ec); ++i) {
    target = quarantine_dir / (filename + "." + std::to_string(i));
  }
  fs::rename(path, target, ec);
  if (ec) {
    // Renaming failed (cross-device dir? permissions?). Leave the file where
    // it is rather than delete evidence; the boot scan simply skips it.
    COVSTREAM_WARN("fleet: cannot quarantine " + path + " (" + ec.message() +
                   "); leaving in place: " + reason);
  } else {
    COVSTREAM_WARN("fleet: quarantined " + path + " -> " +
                   target.string() + ": " + reason);
  }
  ++boot_report_.quarantined;
  {
    const std::lock_guard<std::mutex> lock(registry_mutex_);
    ++quarantined_;
  }
}

bool SketchFleet::write_manifest(std::string* error) {
  // manifest_mutex_ serializes build+write, so concurrent create/drop/flush
  // callers each write a roster at least as new as their own change and the
  // last writer's file reflects the final registry state.
  const std::lock_guard<std::mutex> manifest_lock(manifest_mutex_);
  std::vector<std::pair<std::string, std::shared_ptr<Tenant>>> roster;
  {
    const std::lock_guard<std::mutex> lock(registry_mutex_);
    roster.assign(tenants_.begin(), tenants_.end());
  }
  std::sort(roster.begin(), roster.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  FleetManifest manifest;
  manifest.entries.reserve(roster.size());
  for (const auto& [name, tenant] : roster) {
    FleetManifest::Entry entry;
    entry.name = name;
    {
      const std::lock_guard<std::mutex> work(tenant->work);
      // The manifest records the DURABLE version: what a reboot can
      // actually reconstruct from disk, not whatever is in flight.
      entry.version = tenant->durable_version;
      entry.edges_ingested = tenant->edges_ingested;
      entry.params = tenant->params;
    }
    manifest.entries.push_back(std::move(entry));
  }
  std::string io_error;
  if (!save_snapshot(manifest, FleetManifest::path_in(options_.spill_dir),
                     &io_error)) {
    return set_error(error, "manifest write failed: " + io_error);
  }
  return true;
}

void SketchFleet::boot_scan() {
  namespace fs = std::filesystem;
  std::error_code ec;
  const std::string manifest_path = FleetManifest::path_in(options_.spill_dir);
  const std::string manifest_filename =
      fs::path(manifest_path).filename().string();

  // 1. Sweep crash leftovers: a torn temp from an interrupted
  // temp-and-rename write is garbage by construction (the rename never
  // published it).
  std::vector<std::string> spill_files;
  for (const auto& dirent : fs::directory_iterator(options_.spill_dir, ec)) {
    if (!dirent.is_regular_file(ec)) continue;
    const std::string filename = dirent.path().filename().string();
    if (filename.find(".tmp.") != std::string::npos) {
      fs::remove(dirent.path(), ec);
      ++boot_report_.temps_swept;
      COVSTREAM_INFO("fleet boot: swept torn temp " + dirent.path().string());
      continue;
    }
    if (filename == manifest_filename) continue;
    spill_files.push_back(filename);
  }

  // 2. Roster from the manifest. A corrupt manifest is quarantined and the
  // scan falls back to adopting whatever valid spill files exist.
  std::optional<FleetManifest> manifest;
  if (fs::exists(manifest_path, ec)) {
    std::string io_error;
    manifest = load_snapshot<FleetManifest>(manifest_path, &io_error);
    if (!manifest) {
      quarantine_file(manifest_path, "corrupt manifest: " + io_error);
    }
  }

  if (manifest) {
    for (const FleetManifest::Entry& entry : manifest->entries) {
      auto tenant = std::make_shared<Tenant>(entry.params);
      tenant->spill_path = spill_path_for(entry.name);
      tenant->version = std::max<std::uint64_t>(entry.version, 1);
      tenant->durable_version = tenant->version;
      tenant->edges_ingested = entry.edges_ingested;
      if (fs::exists(tenant->spill_path, ec)) {
        // Cheap frame probe now (magic/length/checksum/type); the full
        // sketch load stays lazy — first touch reloads like any evicted
        // tenant.
        SnapshotReader probe = SnapshotReader::from_file(tenant->spill_path);
        if (!probe.ok() || probe.type() != SnapshotType::kSubsampleSketch) {
          quarantine_file(tenant->spill_path,
                          "tenant '" + entry.name + "' spill unreadable: " +
                              (probe.ok() ? "wrong object type"
                                          : probe.error()));
          COVSTREAM_WARN("fleet boot: tenant '" + entry.name +
                         "' dropped from roster (state quarantined)");
          continue;
        }
        tenant->resident.store(false, std::memory_order_relaxed);
        ++boot_report_.restored;
      } else {
        // Listed but never flushed: its durable state IS empty-at-params.
        tenant->live.emplace(entry.params);
        ++boot_report_.recreated_empty;
      }
      {
        const std::lock_guard<std::mutex> lock(registry_mutex_);
        tenants_.emplace(entry.name, tenant);
        tenant->last_access.store(
            clock_.fetch_add(1, std::memory_order_relaxed),
            std::memory_order_relaxed);
      }
      if (tenant->live.has_value()) {
        const std::lock_guard<std::mutex> work(tenant->work);
        reaccount(*tenant);
      }
    }
  } else {
    // No usable manifest: adopt every valid spill file (a pre-manifest
    // spill dir, or the manifest itself was the corrupt file).
    for (const std::string& filename : spill_files) {
      const std::optional<std::string> name = spill_tenant_name(filename);
      if (!name) continue;  // quarantined below as an orphan
      const std::string path = options_.spill_dir + "/" + filename;
      if (!valid_tenant_name(*name)) {
        quarantine_file(path, "spill file names an invalid tenant");
        continue;
      }
      std::string io_error;
      std::optional<SubsampleSketch> loaded =
          load_snapshot<SubsampleSketch>(path, &io_error);
      if (!loaded) {
        quarantine_file(path, "unreadable spill file: " + io_error);
        continue;
      }
      auto tenant = std::make_shared<Tenant>(loaded->params());
      tenant->spill_path = path;
      tenant->version = 1;
      tenant->durable_version = 1;
      tenant->live.emplace(std::move(*loaded));
      {
        const std::lock_guard<std::mutex> lock(registry_mutex_);
        tenants_.emplace(*name, tenant);
        tenant->last_access.store(
            clock_.fetch_add(1, std::memory_order_relaxed),
            std::memory_order_relaxed);
      }
      {
        const std::lock_guard<std::mutex> work(tenant->work);
        reaccount(*tenant);
      }
      ++boot_report_.adopted;
      COVSTREAM_INFO("fleet boot: adopted manifest-less tenant '" + *name +
                     "'");
    }
  }

  // 3. Orphans: spill-shaped files that did not make it into the roster
  // (not in the manifest, or their adoption failed the name check).
  for (const std::string& filename : spill_files) {
    const std::string path = options_.spill_dir + "/" + filename;
    if (!fs::exists(path, ec)) continue;  // already quarantined above
    const std::optional<std::string> name = spill_tenant_name(filename);
    bool in_roster = false;
    if (name) {
      const std::lock_guard<std::mutex> lock(registry_mutex_);
      in_roster = tenants_.find(*name) != tenants_.end();
    }
    if (!in_roster) {
      quarantine_file(path, name ? "orphaned spill file (not in manifest)"
                                 : "unrecognized file in spill dir");
    }
  }

  // 4. Re-sync the manifest with the post-quarantine roster so dropped
  // entries do not resurface on the next boot.
  std::string error;
  if (!write_manifest(&error)) {
    COVSTREAM_WARN("fleet boot: " + error);
  }
  COVSTREAM_INFO(
      "fleet boot: restored=" + std::to_string(boot_report_.restored) +
      " empty=" + std::to_string(boot_report_.recreated_empty) +
      " adopted=" + std::to_string(boot_report_.adopted) +
      " quarantined=" + std::to_string(boot_report_.quarantined) +
      " temps_swept=" + std::to_string(boot_report_.temps_swept));
  enforce_budget(nullptr);
}

void SketchFleet::enter_degraded(const std::string& reason) {
  next_spill_retry_ms_.store(
      steady_now_ms() +
          static_cast<std::int64_t>(options_.spill_retry_backoff_ms),
      std::memory_order_relaxed);
  const std::lock_guard<std::mutex> lock(registry_mutex_);
  if (!degraded_) {
    degraded_ = true;
    degraded_reason_ = reason;
    degraded_flag_.store(true, std::memory_order_relaxed);
    COVSTREAM_WARN("fleet: entering degraded mode (ingest refused): " +
                   reason);
  }
}

void SketchFleet::clear_degraded() {
  if (!degraded_flag_.load(std::memory_order_relaxed)) return;
  const std::lock_guard<std::mutex> lock(registry_mutex_);
  if (degraded_) {
    degraded_ = false;
    degraded_reason_.clear();
    degraded_flag_.store(false, std::memory_order_relaxed);
    COVSTREAM_WARN("fleet: degraded mode cleared (spill succeeded)");
  }
}

bool SketchFleet::refuse_if_degraded(std::string* error) {
  if (!degraded_flag_.load(std::memory_order_relaxed)) return false;
  // Bounded retry: one spill sweep per backoff window, triggered by the
  // mutations that need the headroom.
  enforce_budget(nullptr);
  if (!degraded_flag_.load(std::memory_order_relaxed)) return false;
  std::string reason;
  {
    const std::lock_guard<std::mutex> lock(registry_mutex_);
    reason = degraded_reason_;
  }
  set_error(error, "degraded (new ingest refused until a spill succeeds): " +
                       reason);
  return true;
}

bool SketchFleet::flush_all(std::size_t* flushed, std::string* error) {
  if (flushed != nullptr) *flushed = 0;
  if (options_.spill_dir.empty()) {
    return set_error(error, "no spill directory configured");
  }
  std::vector<std::shared_ptr<Tenant>> all;
  {
    const std::lock_guard<std::mutex> lock(registry_mutex_);
    all.reserve(tenants_.size());
    for (const auto& [name, tenant] : tenants_) all.push_back(tenant);
  }
  bool all_ok = true;
  std::string first_error;
  std::size_t count = 0;
  for (const auto& tenant : all) {
    const std::lock_guard<std::mutex> work(tenant->work);
    // Non-resident tenants were written by the spill that evicted them;
    // clean residents are already on disk at their current version.
    if (!tenant->resident.load(std::memory_order_relaxed)) continue;
    if (tenant->version == tenant->durable_version) continue;
    if (tenant->spill_path.empty()) {
      // The fleet gained a spill_dir requirement the tenant predates; this
      // cannot happen through the public API (create fills it in whenever
      // spill_dir is set) but stay defensive.
      continue;
    }
    std::string io_error;
    if (!save_snapshot(*tenant->live, tenant->spill_path, &io_error)) {
      all_ok = false;
      if (first_error.empty()) io_error.swap(first_error);
      const std::lock_guard<std::mutex> lock(registry_mutex_);
      ++spill_failures_;
      continue;
    }
    tenant->durable_version = tenant->version;
    ++count;
  }
  // The manifest is written even after a tenant failure: the roster (and
  // every tenant that DID flush) should still be durable.
  if (options_.persistent) {
    std::string manifest_error;
    if (!write_manifest(&manifest_error)) {
      all_ok = false;
      if (first_error.empty()) manifest_error.swap(first_error);
    }
  }
  {
    const std::lock_guard<std::mutex> lock(registry_mutex_);
    flushed_tenants_ += count;
  }
  if (flushed != nullptr) *flushed = count;
  if (!all_ok) return set_error(error, "flush incomplete: " + first_error);
  return true;
}

std::shared_ptr<SketchFleet::Tenant> SketchFleet::find(const std::string& name,
                                                       std::string* error) {
  const std::lock_guard<std::mutex> lock(registry_mutex_);
  const auto it = tenants_.find(name);
  if (it == tenants_.end()) {
    set_error(error, "unknown tenant '" + name + "'");
    return nullptr;
  }
  it->second->last_access.store(clock_.fetch_add(1, std::memory_order_relaxed),
                                std::memory_order_relaxed);
  return it->second;
}

void SketchFleet::publish(Tenant& tenant) {
  auto fresh = std::make_shared<Published>(*tenant.live);
  const std::lock_guard<std::mutex> lock(tenant.handle_mutex);
  tenant.handle = std::move(fresh);
}

std::shared_ptr<SketchFleet::Published> SketchFleet::unpublish(Tenant& tenant) {
  const std::lock_guard<std::mutex> lock(tenant.handle_mutex);
  return std::move(tenant.handle);
}

template <typename Fn>
bool SketchFleet::with_resident(Tenant& tenant, std::string* error, Fn&& fn) {
  {
    const std::lock_guard<std::mutex> work(tenant.work);
    if (!tenant.resident.load(std::memory_order_relaxed) &&
        !reload(tenant, error)) {
      return false;
    }
    fn();
  }
  enforce_budget(&tenant);
  return true;
}

std::shared_ptr<SketchFleet::Published> SketchFleet::acquire(
    const std::string& name, std::string* error) {
  const std::shared_ptr<Tenant> tenant = find(name, error);
  if (tenant == nullptr) return nullptr;
  {
    const std::lock_guard<std::mutex> lock(tenant->handle_mutex);
    if (tenant->handle != nullptr) return tenant->handle;
  }
  // The version's first read: build its view under work. Readers that queued
  // behind us find it built. Every handle writer holds work, which we hold,
  // so the handle taken here is current and ours before any ingest, spill
  // or drop can run.
  std::shared_ptr<Published> handle;
  const bool resident = with_resident(*tenant, error, [&] {
    if (tenant->handle == nullptr) {
      publish(*tenant);
      reaccount(*tenant);
    }
    handle = tenant->handle;
  });
  return resident ? handle : nullptr;
}

void SketchFleet::reaccount(Tenant& tenant) {
  std::size_t words = 0;
  if (tenant.live.has_value()) words += tenant.live->space_words();
  // Safe to read without handle_mutex: every handle writer holds work, which
  // the caller holds.
  if (tenant.handle != nullptr) words += tenant.handle->view.space_words();
  const std::lock_guard<std::mutex> lock(registry_mutex_);
  resident_words_ += words;
  resident_words_ -= tenant.accounted_words;
  tenant.accounted_words = words;
}

bool SketchFleet::spill(Tenant& tenant, std::string* error) {
  if (tenant.spill_path.empty()) {
    return set_error(error, "no spill directory configured");
  }
  std::string io_error;
  if (!save_snapshot(*tenant.live, tenant.spill_path, &io_error)) {
    {
      const std::lock_guard<std::mutex> lock(registry_mutex_);
      ++spill_failures_;
    }
    return set_error(error, "spill failed: " + io_error);
  }
  tenant.durable_version = tenant.version;
  tenant.live.reset();
  unpublish(tenant);
  tenant.resident.store(false, std::memory_order_relaxed);
  reaccount(tenant);
  {
    const std::lock_guard<std::mutex> lock(registry_mutex_);
    ++evictions_;
  }
  return true;
}

bool SketchFleet::reload(Tenant& tenant, std::string* error) {
  std::string io_error;
  std::optional<SubsampleSketch> loaded =
      load_snapshot<SubsampleSketch>(tenant.spill_path, &io_error);
  if (!loaded) {
    return set_error(error, "reload failed: " + io_error);
  }
  tenant.live.emplace(std::move(*loaded));
  tenant.durable_version = tenant.version;  // live == disk right now
  tenant.resident.store(true, std::memory_order_relaxed);
  reaccount(tenant);
  {
    const std::lock_guard<std::mutex> lock(registry_mutex_);
    ++reloads_;
  }
  return true;
}

void SketchFleet::enforce_budget(const Tenant* exclude) {
  if (options_.memory_budget_words == 0) return;
  // While degraded, spill attempts are rate-limited: a full disk must not
  // turn every ingest attempt into a fresh sweep of failing writes.
  if (degraded_flag_.load(std::memory_order_relaxed) &&
      steady_now_ms() < next_spill_retry_ms_.load(std::memory_order_relaxed)) {
    return;
  }
  bool spill_failed = false;
  std::string last_spill_error;
  for (;;) {
    // Each candidate with its last-access tick, read once: other threads
    // touch tenants while we sort, and a comparator reading the live ticks
    // would break std::sort's ordering contract (it can then run off the
    // range).
    std::vector<std::pair<std::uint64_t, std::shared_ptr<Tenant>>> candidates;
    {
      const std::lock_guard<std::mutex> lock(registry_mutex_);
      if (resident_words_ <= options_.memory_budget_words) break;
      for (const auto& [name, tenant] : tenants_) {
        if (tenant.get() == exclude) continue;
        if (!tenant->resident.load(std::memory_order_relaxed)) continue;
        candidates.emplace_back(
            tenant->last_access.load(std::memory_order_relaxed), tenant);
      }
    }
    // Coldest first: evict in last-access order until within budget.
    std::sort(candidates.begin(), candidates.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    bool evicted_any = false;
    bool within_budget = false;
    for (const auto& [tick, tenant] : candidates) {
      {
        const std::lock_guard<std::mutex> lock(registry_mutex_);
        if (resident_words_ <= options_.memory_budget_words) {
          within_budget = true;
          break;
        }
      }
      // Busy tenants are skipped, never waited on: eviction must not stall
      // behind a long ingest, and try_lock keeps the lock order acyclic.
      std::unique_lock<std::mutex> work(tenant->work, std::try_to_lock);
      if (!work.owns_lock()) continue;
      if (!tenant->resident.load(std::memory_order_relaxed)) continue;
      std::string error;
      if (spill(*tenant, &error)) {
        evicted_any = true;
      } else {
        spill_failed = true;
        last_spill_error = error;
        COVSTREAM_WARN("fleet: eviction skipped: " + error);
      }
    }
    if (within_budget) break;
    // A sweep that evicted nothing leaves the fleet over budget. When the
    // cause was an I/O failure (disk full/broken) the fleet degrades:
    // new-ingest refusal plus backoff-bounded retries — losing writes is
    // worse than refusing them. A merely-busy sweep stays non-degraded;
    // the next mutating operation retries immediately.
    if (!evicted_any) {
      if (spill_failed) enter_degraded(last_spill_error);
      return;
    }
  }
  // Within budget again — spilling works, degradation (if any) is over.
  clear_degraded();
}

bool SketchFleet::create(const std::string& name, const SketchParams& params,
                         std::string* error) {
  if (!params.is_valid()) {
    return set_error(error, "invalid sketch params");
  }
  return register_tenant(name, SubsampleSketch(params), 0,
                         /*manifest_restores=*/true, error);
}

bool SketchFleet::adopt(const std::string& name, SubsampleSketch&& sketch,
                        std::uint64_t edges_ingested, std::string* error) {
  return register_tenant(name, std::move(sketch), edges_ingested,
                         /*manifest_restores=*/false, error);
}

bool SketchFleet::register_tenant(const std::string& name,
                                  SubsampleSketch&& sketch,
                                  std::uint64_t edges_ingested,
                                  bool manifest_restores, std::string* error) {
  if (!valid_tenant_name(name)) {
    return set_error(error,
                     "bad tenant name (want [A-Za-z0-9_.-]{1,64}): '" + name +
                         "'");
  }
  if (refuse_if_degraded(error)) return false;
  auto tenant = std::make_shared<Tenant>(sketch.params());
  if (!options_.spill_dir.empty()) {
    tenant->spill_path = spill_path_for(name);
  }
  tenant->live.emplace(std::move(sketch));
  tenant->version = 1;
  tenant->edges_ingested = edges_ingested;
  {
    const std::lock_guard<std::mutex> lock(registry_mutex_);
    if (!tenants_.try_emplace(name, tenant).second) {
      return set_error(error, "tenant '" + name + "' already exists");
    }
    tenant->last_access.store(clock_.fetch_add(1, std::memory_order_relaxed),
                              std::memory_order_relaxed);
  }
  if (options_.persistent) {
    // Roster durability: `ok created` must mean a crash right now brings
    // the tenant back. A manifest that cannot be written rolls the
    // registration back and fails the call.
    std::string manifest_error;
    if (!write_manifest(&manifest_error)) {
      {
        const std::lock_guard<std::mutex> lock(registry_mutex_);
        tenants_.erase(name);
      }
      return set_error(error, manifest_error);
    }
    // The manifest alone reconstructs an empty tenant, so version 1 is
    // durable without a spill file. Adopted state is not: durable_version
    // stays 0, so flush_all writes the spill file.
    if (manifest_restores) {
      const std::lock_guard<std::mutex> work(tenant->work);
      tenant->durable_version = 1;
    }
  }
  {
    const std::lock_guard<std::mutex> work(tenant->work);
    reaccount(*tenant);
  }
  enforce_budget(tenant.get());
  return true;
}

bool SketchFleet::ingest(const std::string& name, std::span<const Edge> edges,
                         std::string* error) {
  if (refuse_if_degraded(error)) return false;
  const std::shared_ptr<Tenant> tenant = find(name, error);
  if (tenant == nullptr) return false;
  // All or nothing: one bad edge rejects the batch before any admission.
  for (const Edge& edge : edges) {
    if (!check_set(edge.set, tenant->params.num_sets, error)) return false;
  }
  // The old version's handle, freed when this returns — outside work —
  // unless a reader still holds it. Once the handle is down, the next read
  // builds the new version's view, so the write is visible to every read
  // that starts after this returns.
  std::shared_ptr<Published> retired;
  return with_resident(*tenant, error, [&] {
    tenant->live->update_chunk(edges);
    tenant->edges_ingested += edges.size();
    ++tenant->version;
    retired = unpublish(*tenant);
    reaccount(*tenant);
  });
}

std::shared_ptr<const SubsampleSketch> SketchFleet::handle(
    const std::string& name, std::string* error) {
  const std::shared_ptr<Tenant> tenant = find(name, error);
  if (tenant == nullptr) return nullptr;
  std::shared_ptr<const SubsampleSketch> copy;
  const bool resident = with_resident(*tenant, error, [&] {
    copy = std::make_shared<const SubsampleSketch>(*tenant->live);
  });
  return resident ? copy : nullptr;
}

std::optional<double> SketchFleet::estimate(const std::string& name,
                                            std::span<const SetId> family,
                                            std::string* error) {
  const std::shared_ptr<Published> published = acquire(name, error);
  if (published == nullptr) return std::nullopt;
  return estimate_on(published->view, family, error);
}

bool SketchFleet::estimate_batch(const std::string& name,
                                 std::span<const std::vector<SetId>> families,
                                 std::vector<EstimateOutcome>* out,
                                 std::string* error) {
  out->clear();
  // One handle grab for the whole run: the reload-if-evicted check, the
  // view build (if this is the version's first read) and the handle_mutex
  // pointer copy amortize over every family, and all members answer from
  // the same immutable published version.
  const std::shared_ptr<Published> published = acquire(name, error);
  if (published == nullptr) return false;
  out->reserve(families.size());
  for (const std::vector<SetId>& family : families) {
    EstimateOutcome outcome;
    outcome.value = estimate_on(published->view, family, &outcome.error);
    out->push_back(std::move(outcome));
  }
  {
    const std::lock_guard<std::mutex> lock(registry_mutex_);
    ++estimate_batches_;
    batched_estimates_ += families.size();
  }
  return true;
}

std::optional<KCoverResult> SketchFleet::solve(const std::string& name,
                                               std::uint32_t k,
                                               std::string* error) {
  if (k == 0) {
    set_error(error, "k must be positive");
    return std::nullopt;
  }
  const std::shared_ptr<Published> published = acquire(name, error);
  if (published == nullptr) return std::nullopt;
  // Solves of one version serialize here — on its handle, never on the
  // tenant's ingest path or the fleet registry. The first builds the warm
  // solver every later solve of the version reuses.
  const std::lock_guard<std::mutex> solve(published->solve_mutex);
  const bool warm = published->solver.has_value();
  if (!warm) published->solver.emplace(published->view);
  {
    const std::lock_guard<std::mutex> lock(registry_mutex_);
    ++(warm ? cache_hits_ : cache_misses_);
  }
  KCoverResult result = kcover_on_view(published->view, *published->solver, k);
  result.space_words = published->sketch_peak_words;
  result.final_space_words = published->sketch_words;
  return result;
}

bool SketchFleet::save(const std::string& name, const std::string& path,
                       std::string* error) {
  const std::shared_ptr<const SubsampleSketch> sketch = handle(name, error);
  if (sketch == nullptr) return false;
  std::string io_error;
  if (!save_snapshot(*sketch, path, &io_error)) {
    return set_error(error, "save failed: " + io_error);
  }
  return true;
}

bool SketchFleet::evict(const std::string& name, std::string* error) {
  const std::shared_ptr<Tenant> tenant = find(name, error);
  if (tenant == nullptr) return false;
  const std::lock_guard<std::mutex> work(tenant->work);
  if (!tenant->resident.load(std::memory_order_relaxed)) return true;
  return spill(*tenant, error);
}

bool SketchFleet::drop(const std::string& name, std::string* error) {
  return unregister(name, nullptr, error);
}

std::optional<SubsampleSketch> SketchFleet::take(const std::string& name,
                                                 std::string* error) {
  std::optional<SubsampleSketch> sketch;
  if (!unregister(name, &sketch, error)) return std::nullopt;
  return sketch;
}

bool SketchFleet::unregister(const std::string& name,
                             std::optional<SubsampleSketch>* keep,
                             std::string* error) {
  const std::shared_ptr<Tenant> tenant = find(name, error);
  if (tenant == nullptr) return false;
  {
    const std::lock_guard<std::mutex> work(tenant->work);
    // A kept sketch must be resident; a failed reload leaves the tenant
    // registered.
    if (keep != nullptr && !tenant->resident.load(std::memory_order_relaxed) &&
        !reload(*tenant, error)) {
      return false;
    }
    {
      const std::lock_guard<std::mutex> lock(registry_mutex_);
      const auto it = tenants_.find(name);
      if (it == tenants_.end() || it->second != tenant) {
        return set_error(error, "unknown tenant '" + name + "'");
      }
      tenants_.erase(it);
    }
    // Free (or hand over) the detached tenant's memory. A concurrent
    // operation that already holds the shared_ptr finishes against the old
    // state — harmless.
    if (keep != nullptr) *keep = std::move(tenant->live);
    tenant->live.reset();
    unpublish(*tenant);
    tenant->resident.store(false, std::memory_order_relaxed);
    reaccount(*tenant);
    if (!tenant->spill_path.empty()) {
      std::remove(tenant->spill_path.c_str());
    }
  }
  if (options_.persistent) {
    // Best-effort: a manifest that cannot shrink leaves a stale roster
    // entry whose spill file is gone — the next boot recreates it empty or
    // the next successful manifest write removes it. Removing remains
    // in-memory-successful either way.
    std::string manifest_error;
    if (!write_manifest(&manifest_error)) {
      COVSTREAM_WARN("fleet: drop('" + name + "'): " + manifest_error);
    }
  }
  return true;
}

std::optional<SketchFleet::TenantStats> SketchFleet::tenant_stats(
    const std::string& name) const {
  std::shared_ptr<Tenant> tenant;
  {
    const std::lock_guard<std::mutex> lock(registry_mutex_);
    const auto it = tenants_.find(name);
    if (it == tenants_.end()) return std::nullopt;
    tenant = it->second;
  }
  const std::lock_guard<std::mutex> work(tenant->work);
  TenantStats stats;
  stats.version = tenant->version;
  stats.resident = tenant->resident.load(std::memory_order_relaxed);
  stats.space_words = tenant->accounted_words;
  stats.edges_ingested = tenant->edges_ingested;
  stats.num_sets = tenant->params.num_sets;
  if (tenant->live.has_value()) {
    stats.retained_elements = tenant->live->retained_elements();
    stats.stored_edges = tenant->live->stored_edges();
    stats.p_star = tenant->live->p_star();
  }
  return stats;
}

SketchFleet::FleetStats SketchFleet::stats() const {
  FleetStats stats;
  {
    const std::lock_guard<std::mutex> lock(registry_mutex_);
    stats.tenants = tenants_.size();
    for (const auto& [name, tenant] : tenants_) {
      if (tenant->resident.load(std::memory_order_relaxed)) ++stats.resident;
    }
    stats.resident_words = resident_words_;
    stats.budget_words = options_.memory_budget_words;
    stats.evictions = evictions_;
    stats.reloads = reloads_;
    stats.solver_cache_hits = cache_hits_;
    stats.solver_cache_misses = cache_misses_;
    stats.degraded = degraded_;
    stats.spill_failures = spill_failures_;
    stats.quarantined = quarantined_;
    stats.flushed_tenants = flushed_tenants_;
    stats.estimate_batches = estimate_batches_;
    stats.batched_estimates = batched_estimates_;
  }
  return stats;
}

std::vector<std::string> SketchFleet::tenant_names() const {
  const std::lock_guard<std::mutex> lock(registry_mutex_);
  std::vector<std::string> names;
  names.reserve(tenants_.size());
  for (const auto& [name, tenant] : tenants_) names.push_back(name);
  std::sort(names.begin(), names.end());
  return names;
}

}  // namespace covstream
