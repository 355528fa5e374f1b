// Scenario isolation: a pooled worker machine carries state from one
// scenario to the next — recycled process segments (zeroed only over the
// bytes their previous owner touched), snapshot-tree nodes, the
// controller's bound profile set. None of it may leak into a result. Each
// test runs a scenario set on one long-lived worker, then re-runs a seeded
// sample of it, each scenario on a machine built just for it, and requires
// identical results. The end-of-scenario state digest hashes every byte of
// every segment, so stale bytes the guest never reads still show.
//
// Covered: Pidgin (spawns a resolver child per scenario, so segments cycle
// mid-run) and db-suite, the superblock and reference engines, cold and
// snapshot-tree execution.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "apps/dbserver.hpp"
#include "apps/pidgin.hpp"
#include "apps/workloads.hpp"
#include "campaign/runner.hpp"
#include "core/scenario_gen.hpp"
#include "util/rng.hpp"

namespace lfi::campaign {
namespace {

struct Target {
  MachineSetup setup;
  std::string entry;
  double probability = 0;
  /// Per-scenario fault windows for snapshot-tree runs; the first is the
  /// campaign-wide base window.
  std::vector<uint64_t> windows;
};

Target Pidgin() {
  return {apps::PidginMachineSetup(), apps::kPidginEntry, 0.1,
          {0, 150, 400}};
}

Target DbSuite() {
  return {apps::DbSuiteMachineSetup(), apps::kDbTestEntry, 0.02,
          {4000, 9000, 14000}};
}

/// Every field a report is built from. Wall time and restore telemetry
/// depend on what the worker ran before, by design, and stay out.
void ExpectSameResult(const ScenarioResult& pooled,
                      const ScenarioResult& fresh) {
  EXPECT_EQ(pooled.name, fresh.name);
  EXPECT_EQ(pooled.status, fresh.status);
  EXPECT_EQ(pooled.exit_code, fresh.exit_code);
  EXPECT_EQ(pooled.signal, fresh.signal);
  EXPECT_EQ(pooled.fault_message, fresh.fault_message);
  EXPECT_EQ(pooled.injections, fresh.injections);
  EXPECT_EQ(pooled.instructions, fresh.instructions);
  EXPECT_EQ(pooled.covered_offsets, fresh.covered_offsets);
  EXPECT_EQ(pooled.covered_by_module, fresh.covered_by_module);
  EXPECT_EQ(pooled.coverage, fresh.coverage);
  EXPECT_EQ(pooled.fault_frames, fresh.fault_frames);
  EXPECT_EQ(pooled.crash_site_hash, fresh.crash_site_hash);
  EXPECT_EQ(pooled.crash_hash, fresh.crash_hash);
  EXPECT_EQ(pooled.replay.ToXml(), fresh.replay.ToXml());
  EXPECT_EQ(pooled.first_injection_instructions,
            fresh.first_injection_instructions);
  EXPECT_EQ(pooled.snapshot_fallback, fresh.snapshot_fallback);
  EXPECT_EQ(pooled.seu_landed, fresh.seu_landed);
  EXPECT_EQ(pooled.state_digest, fresh.state_digest);
}

/// Run `count` random scenarios on one pooled worker, then `sample` of
/// them (chosen by `seed`) each on a freshly built worker.
void ExpectIsolated(const Target& target, vm::ExecMode mode, bool tree,
                    size_t count, size_t sample, uint64_t seed) {
  CampaignOptions opts;
  opts.jobs = 1;
  opts.entry = target.entry;
  opts.exec_mode = mode;
  opts.track_coverage = true;
  opts.collect_scenario_coverage = true;
  opts.collect_replays = true;
  opts.collect_state_digest = true;
  if (tree) {
    opts.snapshot_tree = true;
    opts.warmup_instructions = target.windows.front();
  }
  const auto& profiles = apps::LibcProfiles();
  std::vector<Scenario> scenarios(count);
  for (size_t i = 0; i < count; ++i) {
    scenarios[i].name = "scn-" + std::to_string(i);
    scenarios[i].plan =
        core::GenerateRandom(profiles, target.probability, DeriveSeed(seed, i));
    if (tree) {
      scenarios[i].warmup_instructions =
          target.windows[i % target.windows.size()];
    }
  }

  CampaignRunner pooled(target.setup, profiles, opts);
  CampaignReport report = pooled.Run(scenarios);
  ASSERT_EQ(report.results.size(), count);
  ASSERT_EQ(report.setup_errors, 0u);
  // The set must reach injected faults for the check to mean much.
  EXPECT_GT(report.total_injections, 0u);
  if (tree) {
    EXPECT_EQ(report.snapshot_fallbacks, 0u);
  }

  Rng rng(seed);
  for (size_t k = 0; k < sample; ++k) {
    size_t i = rng.below(count);
    SCOPED_TRACE(scenarios[i].name);
    CampaignRunner fresh(target.setup, profiles, opts);
    CampaignReport single = fresh.Run({scenarios[i]});
    ASSERT_EQ(single.results.size(), 1u);
    ExpectSameResult(report.results[i], single.results[0]);
  }
}

TEST(ScenarioIsolation, PidginColdSuperblock) {
  ExpectIsolated(Pidgin(), vm::ExecMode::Superblock, false, 128, 16, 1501);
}

TEST(ScenarioIsolation, PidginColdReference) {
  ExpectIsolated(Pidgin(), vm::ExecMode::Reference, false, 64, 8, 1502);
}

TEST(ScenarioIsolation, PidginTreeSuperblock) {
  ExpectIsolated(Pidgin(), vm::ExecMode::Superblock, true, 128, 16, 1503);
}

TEST(ScenarioIsolation, PidginTreeReference) {
  ExpectIsolated(Pidgin(), vm::ExecMode::Reference, true, 64, 8, 1504);
}

TEST(ScenarioIsolation, DbSuiteColdSuperblock) {
  ExpectIsolated(DbSuite(), vm::ExecMode::Superblock, false, 32, 8, 1505);
}

TEST(ScenarioIsolation, DbSuiteColdReference) {
  ExpectIsolated(DbSuite(), vm::ExecMode::Reference, false, 16, 4, 1506);
}

TEST(ScenarioIsolation, DbSuiteTreeSuperblock) {
  ExpectIsolated(DbSuite(), vm::ExecMode::Superblock, true, 32, 8, 1507);
}

TEST(ScenarioIsolation, DbSuiteTreeReference) {
  ExpectIsolated(DbSuite(), vm::ExecMode::Reference, true, 16, 4, 1508);
}

}  // namespace
}  // namespace lfi::campaign
