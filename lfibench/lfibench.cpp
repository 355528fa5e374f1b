// lfibench: the repository benchmark.
//
//   lfibench --workload NAME --seed N --seconds S [--trace 0|1] [--spans FILE]
//
// Runs one of four workloads (pidgin-cold, dbsuite-tree, dbsuite-explore,
// pidgin-fabric) against the library's public API from one process, in a
// closed loop, checks the outputs, and prints the result JSON as the last
// line of stdout. README.md defines the workloads, the metrics and the
// checks. The seed decides every input; the program only sees the
// generated plans.
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <typeinfo>
#include <string>
#include <vector>

#include "apps/dbserver.hpp"
#include "apps/pidgin.hpp"
#include "apps/workloads.hpp"
#include "campaign/explorer.hpp"
#include "campaign/runner.hpp"
#include "core/replay.hpp"
#include "core/scenario_gen.hpp"
#include "libc/libc_builder.hpp"
#include "serve/coordinator.hpp"
#include "serve/wire.hpp"
#include "serve/worker.hpp"
#include "trace.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace lfibench {
namespace {

using lfi::campaign::CampaignOptions;
using lfi::campaign::CampaignReport;
using lfi::campaign::CampaignRunner;
using lfi::campaign::MachineSetup;
using lfi::campaign::Scenario;
using lfi::campaign::ScenarioResult;
using lfi::campaign::ScenarioStatus;
using lfi::core::FaultProfile;
using Profiles = std::shared_ptr<const std::vector<FaultProfile>>;
using CoverageMap = std::map<std::string, lfi::vm::CoverageBitmap>;

// ---- fixed workload parameters ----------------------------------------------

/// Set-ups per run; setup_s is their median. The first one serves the
/// timed part; the others run while the timed loop pauses, evenly spread
/// over its progress, so they sample the whole run.
constexpr size_t kSetupRepeats = 31;
/// The campaign loops' rate is a quantile over windows of this much
/// dispatch time.
constexpr double kRateWindowS = 0.25;
/// Scenarios per CampaignRunner::Run in the in-process campaign loops.
constexpr size_t kBatch = 64;
/// Scenarios per FabricCoordinator::Run, and per wire batch inside it.
constexpr size_t kFabricRun = 256;
constexpr size_t kWireBatch = 32;
constexpr int kFabricWorkers = 2;
/// union_offsets and the fabric identity check cover the first kPrefix
/// scenarios, crash_buckets the first kWitnessPrefix; every run completes
/// both whatever its speed.
constexpr size_t kPrefix = 16384;
/// Scenarios re-run on a freshly built machine by the isolation check.
constexpr size_t kIsolationSample = 128;
/// Crash buckets a campaign workload minimizes after its timed part (the
/// first ones found in the first kWitnessPrefix scenarios), and how many
/// times that pass repeats.
constexpr size_t kMinimizeCrashes = 256;
constexpr size_t kWitnessPrefix = 65536;
constexpr int kMinimizeRepeats = 3;
/// campaign.minimize_ms_per_crash is the median over groups of this many
/// crashes of
/// the group's time per crash, so a few costly crashes move one group.
constexpr size_t kMinimizeGroup = 16;
/// The traced per-layer counts cover this many scenarios.
constexpr size_t kTraceCounted = 2048;
/// Explorer session shape, and the sessions the counts cover. A run is a
/// fixed number of sessions per requested second (about what one second
/// holds), so the sessions attempted and failed repeat exactly for a seed.
constexpr size_t kExploreRounds = 4;
constexpr size_t kExploreBudget = 32;
constexpr size_t kExploreCounted = 16;
constexpr double kSessionsPerSecond = 5;
/// Union-offset targets for time_to_coverage_s (also in BENCHMARK.json).
constexpr size_t kPidginTarget = 277;
constexpr size_t kDbTreeTarget = 1777;
constexpr size_t kExploreTarget = 1940;
constexpr uint64_t kWindowSalt = 0x77696e646f77ull;
constexpr uint64_t kSampleSalt = 0x73616d706c65ull;

enum class Workload { PidginCold, DbSuiteTree, DbSuiteExplore, PidginFabric };

struct Args {
  Workload workload = Workload::PidginCold;
  std::string name;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans_path;
};

// ---- small helpers ----------------------------------------------------------

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double sum = 0;
  for (double x : v) sum += x;
  return sum / v.size();
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// The q-quantile (0..1), interpolated between the two nearest samples.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * (v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  if (lo + 1 >= v.size()) return v.back();
  return v[lo] + (pos - lo) * (v[lo + 1] - v[lo]);
}

/// Lower median, for counts that must stay whole numbers.
size_t MedianCount(std::vector<size_t> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  return v[(v.size() - 1) / 2];
}

size_t Popcount(const CoverageMap& coverage) {
  size_t total = 0;
  for (const auto& [name, bitmap] : coverage) total += bitmap.Count();
  return total;
}

void MergeInto(CoverageMap* into, const CoverageMap& from) {
  for (const auto& [name, bitmap] : from) (*into)[name].Merge(bitmap);
}

double PeakRssMb(const rusage& usage) {
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double SelfPeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return PeakRssMb(usage);
}

/// Metrics in print order, emitted as the result JSON.
class Metrics {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    entries_.push_back({name, value, unit});
  }

  void Print(bool correct, size_t attempted, size_t failed) const {
    std::string out = lfi::Format(
        "{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": {",
        correct ? "true" : "false", attempted, failed);
    for (size_t i = 0; i < entries_.size(); ++i) {
      const Entry& e = entries_[i];
      out += lfi::Format("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                         i == 0 ? "" : ", ", e.name.c_str(), e.value,
                         e.unit.c_str());
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
  }

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

// ---- targets and set-up -----------------------------------------------------

/// What one set-up built: images, profiles, and the machine setup every
/// runner, oracle and worker of the run loads.
struct Target {
  std::shared_ptr<const lfi::sso::SharedObject> libc;
  std::shared_ptr<const std::vector<lfi::sso::SharedObject>> modules;
  bool db = false;
  Profiles profiles;
  MachineSetup setup;

  /// The fabric's serializable form of the same machine.
  lfi::serve::TargetSpec Spec() const {
    lfi::serve::TargetSpec spec;
    spec.modules.push_back(libc->Serialize());
    for (const lfi::sso::SharedObject& so : *modules) {
      spec.modules.push_back(so.Serialize());
    }
    if (db) {
      spec.files.emplace_back(lfi::apps::kDbDataPath,
                              std::vector<uint8_t>(4096, uint8_t{0}));
      spec.files.emplace_back(lfi::apps::kDbLogPath, std::vector<uint8_t>{});
    }
    return spec;
  }
};

/// Set-up phases, each timed on its own; total is everything before the
/// first timed scenario.
struct SetupTimes {
  double build_s = 0;      // target images
  double profile_s = 0;    // libc fault profiles
  double warm_s = 0;       // runner/coordinator build + first-use costs
  double configure_s = 0;  // fabric Configure handshakes (inside warm_s)
  double total_s = 0;
};

struct SetupMedians {
  std::vector<double> build, profile, warm, configure, total;

  void Add(const SetupTimes& t) {
    build.push_back(t.build_s);
    profile.push_back(t.profile_s);
    warm.push_back(t.warm_s);
    configure.push_back(t.configure_s);
    total.push_back(t.total_s);
  }
};

/// Runs the set-ups after the first, spread over the timed loop.
class SetupSampler {
 public:
  /// `setup` builds one set-up, discards it and returns its times.
  SetupSampler(SetupMedians* medians, std::function<SetupTimes()> setup)
      : medians_(medians), setup_(std::move(setup)) {}

  /// Called while the loop pauses, with the share of it done so far.
  void Pause(double progress) {
    const size_t due = 1 + static_cast<size_t>(progress * (kSetupRepeats - 1));
    if (medians_->total.size() >= std::min(due, kSetupRepeats)) return;
    medians_->Add(setup_());
  }
  /// Run the set-ups a short loop left over.
  void Finish() {
    while (medians_->total.size() < kSetupRepeats) medians_->Add(setup_());
  }

 private:
  SetupMedians* medians_;
  std::function<SetupTimes()> setup_;
};

/// Build images and profiles anew (no per-process cache: the
/// library's LibcProfiles() is exactly this call, cached).
Target BuildTarget(bool db, SetupTimes* times) {
  Target t;
  t.db = db;
  auto begin = Clock::now();
  t.libc = std::make_shared<const lfi::sso::SharedObject>(
      lfi::libc::BuildLibc());
  if (db) {
    t.modules = std::make_shared<const std::vector<lfi::sso::SharedObject>>(
        lfi::apps::BuildDbServer(lfi::apps::DbConfig{}));
  } else {
    t.modules = std::make_shared<const std::vector<lfi::sso::SharedObject>>(
        std::vector<lfi::sso::SharedObject>{lfi::apps::BuildPidgin()});
  }
  times->build_s = SecondsSince(begin);

  begin = Clock::now();
  t.profiles = std::make_shared<const std::vector<FaultProfile>>(
      lfi::apps::ProfileStandardLibs({*t.libc}));
  times->profile_s = SecondsSince(begin);

  auto libc = t.libc;
  auto modules = t.modules;
  t.setup = [libc, modules, db](lfi::vm::Machine& machine) {
    machine.Load(*libc);
    for (const lfi::sso::SharedObject& so : *modules) machine.Load(so);
    if (db) {
      // The db-suite's files, as apps::DbSuiteMachineSetup seeds them.
      machine.kernel().add_file(lfi::apps::kDbDataPath,
                                std::vector<uint8_t>(4096, uint8_t{0}));
      machine.kernel().add_file(lfi::apps::kDbLogPath, {});
    }
  };
  return t;
}

/// The library's own setup for the target, for checks that need a machine
/// built independently of the benchmark's.
MachineSetup LibrarySetup(bool db) {
  return db ? lfi::apps::DbSuiteMachineSetup()
            : lfi::apps::PidginMachineSetup();
}

CampaignOptions CampaignBase(bool db) {
  CampaignOptions opts;
  opts.jobs = 1;
  opts.entry = db ? lfi::apps::kDbTestEntry : lfi::apps::kPidginEntry;
  opts.track_coverage = true;
  return opts;
}

/// Generates scenario i of the workload from the seed.
struct Source {
  Profiles profiles;
  double probability = 0.1;
  uint64_t seed = 1;
  std::vector<uint64_t> windows;  // empty = campaign-wide window

  Scenario Make(size_t index) const {
    Scenario s;
    s.name = lfi::Format("scn-%zu", index);
    s.plan = lfi::core::GenerateRandom(*profiles, probability,
                                       lfi::campaign::DeriveSeed(seed, index));
    if (!windows.empty()) {
      s.warmup_instructions =
          windows[lfi::campaign::DeriveSeed(seed ^ kWindowSalt, index) %
                  windows.size()];
    }
    return s;
  }

  std::vector<Scenario> Batch(size_t first, size_t count) const {
    std::vector<Scenario> out;
    out.reserve(count);
    for (size_t i = first; i < first + count; ++i) out.push_back(Make(i));
    return out;
  }
};

/// Scenarios that warm every path the timed part takes: one fault-free
/// scenario per fault window (code-cache decode, the tree node per window).
std::vector<Scenario> WarmScenarios(const std::vector<uint64_t>& windows,
                                    size_t copies) {
  std::vector<Scenario> out;
  for (size_t c = 0; c < copies; ++c) {
    if (windows.empty()) {
      out.emplace_back().name = "warm";
      continue;
    }
    for (uint64_t w : windows) {
      Scenario& s = out.emplace_back();
      s.name = "warm";
      s.warmup_instructions = w;
    }
  }
  return out;
}

/// An in-process campaign ready to time: target, options, warm runner.
struct CampaignSetup {
  Target target;
  CampaignOptions options;
  std::vector<uint64_t> windows;
  std::unique_ptr<CampaignRunner> runner;
};

CampaignSetup SetUpCampaign(bool db, bool tree, SetupTimes* times) {
  const auto begin = Clock::now();
  CampaignSetup s;
  s.target = BuildTarget(db, times);
  const auto warm_begin = Clock::now();
  s.options = CampaignBase(db);
  if (tree) {
    // Fault windows at 25/50/75% of the clean run; the base window is the
    // campaign-wide snapshot point.
    lfi::campaign::PlanRunner clean(s.target.setup, s.target.profiles,
                                    s.options);
    const uint64_t total = clean.Run(lfi::core::Plan{}, "clean").instructions;
    s.windows = {total / 4, total / 2, total * 3 / 4};
    s.options.snapshot_tree = true;
    s.options.warmup_instructions = s.windows[0];
  }
  s.runner = std::make_unique<CampaignRunner>(
      s.target.setup, *s.target.profiles, s.options);
  s.runner->Run(WarmScenarios(s.windows, 1));
  times->warm_s = SecondsSince(warm_begin);
  times->total_s = SecondsSince(begin);
  return s;
}

// ---- the closed campaign loop -----------------------------------------------

struct LoopStats {
  size_t scenarios = 0;
  double timed_s = 0;
  /// Outcomes of the first kPrefix scenarios, by index.
  std::vector<Outcome> prefix_outcomes;
  /// A seeded uniform sample (reservoir) of kIsolationSample scenarios
  /// over the whole run, with their outcomes. Kept small, so the run's
  /// length does not show in peak_rss_mb.
  std::vector<std::pair<size_t, Outcome>> sample;
  std::vector<double> dispatch_s;
  std::vector<double> window_rates;  // scenarios/s per kRateWindowS window
  std::vector<double> trial_s;    // time_to_coverage per trial
  CoverageMap prefix_union;
  /// First scenario of each crash bucket, in the first kWitnessPrefix.
  std::vector<size_t> bucket_witnesses;
  size_t setup_errors = 0;

  /// The end-to-end timings take the fast end of the distribution; see
  /// SessionTotals::rate.
  double rate() const { return Quantile(window_rates, 0.9); }
  double ttc() const { return Quantile(trial_s, 0.25); }
  double mean_rate() const { return scenarios / timed_s; }
};

/// Dispatch batches of `batch` scenarios until `seconds` of dispatch time
/// have passed and at least kWitnessPrefix scenarios ran. Only the
/// dispatch calls are timed; generating the next batch is the benchmark's
/// own work.
/// A trial starts with an empty union and ends at the batch whose results
/// take it to `target` offsets; its dispatch time is one time_to_coverage
/// sample.
LoopStats RunCampaignLoop(lfi::campaign::ScenarioDispatch& dispatch,
                          const Source& source, size_t batch, double seconds,
                          size_t target, SetupSampler* sampler) {
  LoopStats loop;
  CoverageMap trial_union;
  double trial_time = 0;
  std::set<uint64_t> buckets;
  lfi::Rng reservoir(source.seed ^ kSampleSalt);
  double window_s = 0;
  size_t window_n = 0;
  while (loop.timed_s < seconds || loop.scenarios < kWitnessPrefix) {
    const std::vector<Scenario> scenarios =
        source.Batch(loop.scenarios, batch);
    const auto begin = Clock::now();
    const CampaignReport report = dispatch.Run(scenarios);
    const double elapsed = SecondsSince(begin);
    loop.timed_s += elapsed;
    loop.dispatch_s.push_back(elapsed);

    const size_t first = loop.scenarios;
    for (const ScenarioResult& r : report.results) {
      const size_t index = first + r.index;
      const Outcome outcome = Outcome::Of(r);
      if (index < kPrefix) loop.prefix_outcomes.push_back(outcome);
      if (loop.sample.size() < kIsolationSample) {
        loop.sample.emplace_back(index, outcome);
      } else if (const uint64_t slot = reservoir.below(index + 1);
                 slot < kIsolationSample) {
        loop.sample[slot] = {index, outcome};
      }
      if (r.status == ScenarioStatus::SetupError) ++loop.setup_errors;
      if (index < kWitnessPrefix && r.status == ScenarioStatus::Crashed &&
          buckets.insert(r.crash_hash).second) {
        loop.bucket_witnesses.push_back(index);
      }
    }
    if (first < kPrefix) MergeInto(&loop.prefix_union, report.coverage);
    loop.scenarios += report.results.size();

    window_s += elapsed;
    window_n += report.results.size();
    if (window_s >= kRateWindowS) {
      loop.window_rates.push_back(window_n / window_s);
      window_s = 0;
      window_n = 0;
    }
    MergeInto(&trial_union, report.coverage);
    trial_time += elapsed;
    if (Popcount(trial_union) >= target) {
      loop.trial_s.push_back(trial_time);
      trial_union.clear();
      trial_time = 0;
    }
    sampler->Pause(loop.timed_s / seconds);
  }
  sampler->Finish();
  std::printf("# scenarios/s per %.2f s window: p90 %.1f, median %.1f, "
              "whole run %.1f; time to coverage: p25 %.5f s, mean %.5f s "
              "(%zu trials)\n",
              kRateWindowS, loop.rate(), Median(loop.window_rates),
              loop.mean_rate(), loop.ttc(), Mean(loop.trial_s),
              loop.trial_s.size());
  return loop;
}

/// Scenario-isolation check: re-run the loop's seeded sample of scenarios,
/// each on a freshly built machine (the library's own setup) through
/// PlanRunner, and compare with what the pooled worker reported. Returns
/// the number of mismatching scenarios, each printed as a defect.
size_t IsolationCheck(const Source& source, const LoopStats& loop, bool db,
                      const CampaignOptions& options) {
  const MachineSetup fresh_setup = LibrarySetup(db);
  size_t mismatches = 0;
  for (const auto& [index, pooled] : loop.sample) {
    const Scenario s = source.Make(index);
    lfi::campaign::PlanRunner fresh(fresh_setup, source.profiles, options);
    const Outcome got =
        Outcome::Of(fresh.Run(s.plan, s.name, s.warmup_instructions));
    if (got == pooled) continue;
    ++mismatches;
    std::printf("# DEFECT isolation: scenario %zu pooled {%s} fresh {%s}\n",
                index, pooled.ToString().c_str(), got.ToString().c_str());
  }
  std::printf("# isolation check: %zu scenarios re-run fresh, %zu mismatch\n",
              loop.sample.size(), mismatches);
  return mismatches;
}

struct MinimizeTotals {
  size_t crashes = 0;
  double seconds = 0;  // median pass over all `crashes`
  std::vector<double> passes;
  double ms_per_crash = 0;
  size_t oracle_runs = 0;
  size_t not_reproducing = 0;
};

/// Minimize the first kMinimizeCrashes crash buckets the way the explorer
/// does: a private PlanRunner oracle per crash, ddmin over the replay
/// plan's triggers, then one re-verification run. One untimed pass warms
/// the allocator (each oracle builds a machine), then the pass repeats
/// kMinimizeRepeats times. Each group of kMinimizeGroup crashes takes its
/// median time over the passes; ms_per_crash is the median over groups.
/// Obtaining each witness's replay plan is not timed.
MinimizeTotals MinimizeCrashes(const Source& source,
                               const std::vector<size_t>& witnesses,
                               const Target& target,
                               const CampaignOptions& options) {
  CampaignOptions replay_opts = options;
  replay_opts.collect_replays = true;
  CampaignOptions oracle_opts = options;
  oracle_opts.track_coverage = false;
  lfi::campaign::PlanRunner replayer(target.setup, target.profiles,
                                     replay_opts);
  struct Crash {
    Scenario scenario;
    ScenarioResult witness;
  };
  std::vector<Crash> crashes;
  for (size_t k = 0; k < witnesses.size() && k < kMinimizeCrashes; ++k) {
    Crash& c = crashes.emplace_back();
    c.scenario = source.Make(witnesses[k]);
    c.witness = replayer.Run(c.scenario.plan, c.scenario.name,
                             c.scenario.warmup_instructions);
  }

  MinimizeTotals totals;
  totals.crashes = crashes.size();
  const size_t groups = (crashes.size() + kMinimizeGroup - 1) / kMinimizeGroup;
  std::vector<std::vector<double>> group_s(groups);  // per group, per pass
  for (int pass = 0; pass <= kMinimizeRepeats; ++pass) {
    double pass_s = 0;
    for (size_t k = 0; k < crashes.size(); ++k) {
      const Crash& c = crashes[k];
      const auto begin = Clock::now();
      lfi::campaign::PlanRunner oracle(target.setup, target.profiles,
                                       oracle_opts);
      auto crashes_here = [&](const lfi::core::Plan& plan) {
        const ScenarioResult r =
            oracle.Run(plan, "plan", c.scenario.warmup_instructions);
        return r.status == ScenarioStatus::Crashed &&
               r.crash_site_hash == c.witness.crash_site_hash;
      };
      lfi::core::MinimizeStats stats;
      const lfi::core::Plan minimized =
          lfi::core::MinimizePlan(c.witness.replay, crashes_here, &stats);
      const bool reproduces = crashes_here(minimized);
      const double crash_s = SecondsSince(begin);
      if (pass == 0) {
        totals.oracle_runs += stats.oracle_runs;
        if (!reproduces) ++totals.not_reproducing;
        continue;
      }
      pass_s += crash_s;
      std::vector<double>& g = group_s[k / kMinimizeGroup];
      if (g.size() < static_cast<size_t>(pass)) g.push_back(0);
      g.back() += crash_s;
    }
    if (pass > 0) totals.passes.push_back(pass_s);
  }
  totals.seconds = Median(totals.passes);
  std::vector<double> per_crash;
  for (size_t g = 0; g < groups; ++g) {
    const size_t size =
        std::min(kMinimizeGroup, crashes.size() - g * kMinimizeGroup);
    per_crash.push_back(1e3 * Median(group_s[g]) / size);
  }
  totals.ms_per_crash = Median(per_crash);
  return totals;
}

void PrintMinimize(const MinimizeTotals& min) {
  std::string passes;
  for (double p : min.passes) passes += lfi::Format(" %.3f", p);
  std::printf("# minimized %zu crash buckets in %.3f s, median of passes"
              "%s s (%zu oracle runs, %zu not reproducing)\n",
              min.crashes, min.seconds, passes.c_str(), min.oracle_runs,
              min.not_reproducing);
}

// ---- per-layer metrics from a trace -----------------------------------------

/// Counts the traced loop saw over its first kTraceCounted scenarios, so
/// they repeat exactly for a seed.
struct LayerCounts {
  size_t scenarios = 0;
  uint64_t instructions = 0;
  uint64_t kernel_calls = 0;
  uint64_t injections = 0;
  uint64_t restore_pages = 0;
  size_t winners = 0;
  size_t fallbacks = 0;
  /// Fault-window instructions of every traced scenario, counted or not
  /// (the numerator of vm.guest_mips, whose denominator is every vm.run
  /// span).
  uint64_t all_run_instructions = 0;

  void Add(const TracedResult& t) {
    all_run_instructions += t.run_instructions;
    if (scenarios >= kTraceCounted) return;
    ++scenarios;
    instructions += t.result.instructions;
    kernel_calls += t.kernel_calls;
    injections += t.result.injections;
    restore_pages += t.result.restore_pages;
    if (t.winner) ++winners;
    if (t.result.snapshot_fallback) ++fallbacks;
  }
  double PerScenario(uint64_t v) const {
    return scenarios == 0 ? 0 : static_cast<double>(v) / scenarios;
  }
};

/// Everything the per-layer metrics are computed from.
struct LayerInputs {
  const SpanLog* log = nullptr;
  LayerCounts counts;
  size_t tree_nodes = 0;
  double trace_overhead_frac = 0;
  SetupMedians setup;
  // Campaign layer, beyond the scenario spans.
  double dispatch_s = 0;      // median ScenarioDispatch::Run
  double round_self_s = 0;    // mean round time outside dispatch
  double winners_frac = 0;    // scenarios that added coverage / run
  double minimize_s = 0;      // median minimization phase
  double minimize_ms_per_crash = 0;
  double minimize_runs_per_crash = 0;
  // Fabric layer.
  double bytes_per_scenario = 0;
  double batches_per_run = 0;
  double stolen_per_run = 0;
  double local_frac = 0;
  double overhead_frac = 0;
  double worker_rss_mb = 0;
};

void PrintSpanTable(const SpanLog& log) {
  std::printf("# %-22s %9s %12s %12s %12s %12s\n", "span", "count",
              "total_s", "self_s", "median_us", "p99_us");
  for (int k = 0; k < static_cast<int>(SpanKind::kCount); ++k) {
    const SpanKind kind = static_cast<SpanKind>(k);
    const SpanSummary s = log.Summarize(kind);
    if (s.count == 0) continue;
    std::printf("# %-22s %9zu %12.6f %12.6f %12.3f %12.3f\n", SpanName(kind),
                s.count, s.total_s, s.self_s, s.median_s * 1e6,
                s.p99_s * 1e6);
  }
}

void AddLayerMetrics(const LayerInputs& in, Metrics* m) {
  auto us = [&](SpanKind kind) {
    return in.log->Summarize(kind).median_s * 1e6;
  };
  const LayerCounts& c = in.counts;
  const SpanSummary run = in.log->Summarize(SpanKind::Run);

  m->Add("vm.create_process_us", us(SpanKind::CreateProcess), "us");
  m->Add("vm.reset_us", us(SpanKind::MachineReset), "us");
  m->Add("vm.restore_us", us(SpanKind::RestoreTo), "us");
  m->Add("vm.restore_pages", c.PerScenario(c.restore_pages), "count");
  m->Add("vm.tree_nodes", static_cast<double>(in.tree_nodes), "count");
  m->Add("vm.run_us", us(SpanKind::Run), "us");
  m->Add("vm.guest_instr", c.PerScenario(c.instructions), "count");
  m->Add("vm.guest_mips",
         run.total_s > 0
             ? static_cast<double>(c.all_run_instructions) / run.total_s / 1e6
             : 0,
         "Minstr/s");
  m->Add("core.install_us", us(SpanKind::Install), "us");
  m->Add("core.injections", c.PerScenario(c.injections), "count");
  m->Add("core.replay_us", us(SpanKind::GenerateReplay), "us");
  m->Add("core.minimize_runs", in.minimize_runs_per_crash, "count");
  m->Add("kernel.calls", c.PerScenario(c.kernel_calls), "count");
  m->Add("campaign.collect_us", us(SpanKind::Collect), "us");
  m->Add("campaign.merge_us", us(SpanKind::Merge), "us");
  m->Add("campaign.dispatch_s", in.dispatch_s, "s");
  m->Add("campaign.round_self_s", in.round_self_s, "s");
  m->Add("campaign.minimize_s", in.minimize_s, "s");
  m->Add("campaign.minimize_ms_per_crash", in.minimize_ms_per_crash, "ms");
  m->Add("campaign.winners_frac", in.winners_frac, "ratio");
  m->Add("campaign.fallback_frac",
         c.scenarios == 0 ? 0 : static_cast<double>(c.fallbacks) / c.scenarios,
         "ratio");
  m->Add("serve.configure_s", Median(in.setup.configure), "s");
  m->Add("serve.encode_us", us(SpanKind::EncodeBatch), "us");
  m->Add("serve.decode_us", us(SpanKind::DecodeBatch), "us");
  m->Add("serve.encode_result_us", us(SpanKind::EncodeResult), "us");
  m->Add("serve.decode_result_us", us(SpanKind::DecodeResult), "us");
  m->Add("serve.bytes_per_scenario", in.bytes_per_scenario, "bytes");
  m->Add("serve.batches", in.batches_per_run, "count");
  m->Add("serve.stolen", in.stolen_per_run, "count");
  m->Add("serve.local_frac", in.local_frac, "ratio");
  m->Add("serve.overhead_frac", in.overhead_frac, "ratio");
  m->Add("serve.worker_rss_mb", in.worker_rss_mb, "MB");
  m->Add("apps.build_s", Median(in.setup.build), "s");
  m->Add("analysis.profile_s", Median(in.setup.profile), "s");
  m->Add("campaign.warm_s", Median(in.setup.warm), "s");
  m->Add("trace.overhead_frac", in.trace_overhead_frac, "ratio");

  std::printf("# counts over %zu traced scenarios: guest_instr=%llu "
              "kernel_calls=%llu injections=%llu restore_pages=%llu "
              "winners=%zu fallbacks=%zu\n",
              c.scenarios, (unsigned long long)c.instructions,
              (unsigned long long)c.kernel_calls,
              (unsigned long long)c.injections,
              (unsigned long long)c.restore_pages, c.winners, c.fallbacks);
  PrintSpanTable(*in.log);
}

/// Run `scenarios` through a traced worker, comparing each result with
/// `expected` (the untraced run's outcome for the same scenario). Returns
/// the mismatch count.
size_t TraceScenarios(TracedWorker& worker,
                      const std::vector<Scenario>& scenarios,
                      const std::vector<Outcome>& expected, size_t first_key,
                      LayerCounts* counts,
                      std::vector<ScenarioResult>* results = nullptr) {
  size_t mismatches = 0;
  for (size_t i = 0; i < scenarios.size(); ++i) {
    TracedResult t = worker.Run(scenarios[i], first_key + i);
    counts->Add(t);
    const Outcome got = Outcome::Of(t.result);
    if (i < expected.size() && !(got == expected[i])) {
      ++mismatches;
      std::printf("# DEFECT traced/untraced: scenario %zu untraced {%s} "
                  "traced {%s}\n",
                  first_key + i, expected[i].ToString().c_str(),
                  got.ToString().c_str());
    }
    if (results != nullptr) results->push_back(std::move(t.result));
  }
  return mismatches;
}

/// What the paired traced loop saw.
struct PairedTrace {
  size_t scenarios = 0;
  double untraced_s = 0;
  double traced_s = 0;
  size_t failed = 0;  // setup errors and traced/untraced mismatches
  std::vector<double> dispatch_s;
  std::vector<size_t> bucket_witnesses;  // in the first kTraceCounted

  double overhead_frac() const {
    return traced_s > 0 ? 1.0 - untraced_s / traced_s : 0;
  }
};

/// Called after each batch with its first index, scenarios and traced
/// results.
using BatchHook = std::function<void(size_t, const std::vector<Scenario>&,
                                     const std::vector<ScenarioResult>&)>;

/// The traced loop of the campaign workloads: each batch runs untraced
/// through `reference`, then traced through `worker`. The two are compared
/// scenario by scenario, and the tracing overhead is measured on the same
/// batches at the same moment. Runs until `seconds` of untraced time and at
/// least kTraceCounted scenarios.
PairedTrace RunPairedTrace(CampaignRunner& reference, TracedWorker& worker,
                           const Source& source, size_t batch, double seconds,
                           LayerCounts* counts, SetupSampler* sampler,
                           const BatchHook& hook = {}) {
  PairedTrace t;
  std::set<uint64_t> buckets;
  while (t.untraced_s < seconds || t.scenarios < kTraceCounted) {
    const std::vector<Scenario> scenarios = source.Batch(t.scenarios, batch);
    auto begin = Clock::now();
    const CampaignReport report = reference.Run(scenarios);
    const double elapsed = SecondsSince(begin);
    t.untraced_s += elapsed;
    t.dispatch_s.push_back(elapsed);
    std::vector<Outcome> expected;
    for (const ScenarioResult& r : report.results) {
      const size_t index = t.scenarios + r.index;
      expected.push_back(Outcome::Of(r));
      if (r.status == ScenarioStatus::SetupError) ++t.failed;
      if (index < kTraceCounted && r.status == ScenarioStatus::Crashed &&
          buckets.insert(r.crash_hash).second) {
        t.bucket_witnesses.push_back(index);
      }
    }
    std::vector<ScenarioResult> results;
    begin = Clock::now();
    t.failed += TraceScenarios(worker, scenarios, expected, t.scenarios,
                               counts, hook ? &results : nullptr);
    t.traced_s += SecondsSince(begin);
    if (hook) hook(t.scenarios, scenarios, results);
    t.scenarios += scenarios.size();
    if (sampler != nullptr && seconds > 0) {
      sampler->Pause(t.untraced_s / seconds);
    }
  }
  if (sampler != nullptr) sampler->Finish();
  std::printf("# traced %zu scenarios: %.3f s untraced, %.3f s traced\n",
              t.scenarios, t.untraced_s, t.traced_s);
  return t;
}

// ---- workloads --------------------------------------------------------------

struct RunResult {
  Metrics metrics;
  bool correct = true;
  size_t attempted = 0;
  size_t failed = 0;
};

void AddEndToEnd(Metrics* m, double rate, double setup_s, size_t attempted,
                 size_t failed, double ttc_s,
                 size_t union_offsets, size_t crash_buckets) {
  m->Add("scenarios_per_s", rate, "1/s");
  m->Add("setup_s", setup_s, "s");
  m->Add("ok_frac",
         attempted == 0 ? 0
                        : static_cast<double>(attempted - failed) / attempted,
         "ratio");
  m->Add("peak_rss_mb", SelfPeakRssMb(), "MB");
  m->Add("union_offsets", static_cast<double>(union_offsets), "count");
  m->Add("crash_buckets", static_cast<double>(crash_buckets), "count");
  m->Add("time_to_coverage_s", ttc_s, "s");
}

/// pidgin-cold and dbsuite-tree.
RunResult RunInProcessCampaign(const Args& args, bool db) {
  SetupMedians setups;
  SetupTimes first;
  CampaignSetup s = SetUpCampaign(db, /*tree=*/db, &first);
  setups.Add(first);
  SetupSampler sampler(&setups, [db] {
    SetupTimes times;
    SetUpCampaign(db, /*tree=*/db, &times);
    return times;
  });
  Source source{s.target.profiles, db ? 0.02 : 0.1, args.seed, s.windows};
  const size_t target = db ? kDbTreeTarget : kPidginTarget;

  RunResult out;
  if (!args.trace) {
    const LoopStats loop = RunCampaignLoop(*s.runner, source, kBatch,
                                           args.seconds, target, &sampler);
    std::printf("# %s: %zu scenarios in %.3f s of dispatch (%.1f/s), "
                "%zu setup errors, %zu crash buckets in the first %zu\n",
                args.name.c_str(), loop.scenarios, loop.timed_s,
                loop.mean_rate(),
                loop.setup_errors, loop.bucket_witnesses.size(),
                kWitnessPrefix);
    out.attempted = loop.scenarios;
    out.failed =
        loop.setup_errors + IsolationCheck(source, loop, db, s.options);
    const size_t union_offsets = Popcount(loop.prefix_union);
    out.correct = !loop.trial_s.empty() && union_offsets >= target;
    AddEndToEnd(&out.metrics, loop.rate(), Median(setups.total),
                out.attempted, out.failed, loop.ttc(),
                union_offsets, loop.bucket_witnesses.size());
    return out;
  }

  SpanLog log;
  TracedWorker worker(s.target.setup, s.target.profiles, s.options, &log);
  for (const Scenario& w : WarmScenarios(s.windows, 1)) worker.Run(w, 0);
  log.Clear();  // first-use costs belong to set-up
  LayerInputs in;
  const PairedTrace t = RunPairedTrace(*s.runner, worker, source, kBatch,
                                       args.seconds / 2, &in.counts, &sampler);
  out.attempted = t.scenarios;
  out.failed = t.failed;
  const MinimizeTotals min =
      MinimizeCrashes(source, t.bucket_witnesses, s.target, s.options);
  PrintMinimize(min);
  in.setup = setups;
  in.log = &log;
  in.tree_nodes = worker.machine().snapshot_node_count();
  in.trace_overhead_frac = t.overhead_frac();
  in.dispatch_s = Median(t.dispatch_s);
  in.winners_frac =
      static_cast<double>(in.counts.winners) / in.counts.scenarios;
  in.minimize_s = min.seconds;
  in.minimize_ms_per_crash = min.ms_per_crash;
  in.minimize_runs_per_crash =
      min.crashes == 0 ? 0 : static_cast<double>(min.oracle_runs) / min.crashes;
  AddLayerMetrics(in, &out.metrics);
  if (!args.spans_path.empty()) log.WriteCsv(args.spans_path);
  return out;
}

// ---- pidgin-fabric ----------------------------------------------------------

struct FabricSetup {
  Target target;
  CampaignOptions options;
  std::vector<lfi::serve::LocalWorker> workers;
  std::unique_ptr<lfi::serve::FabricCoordinator> coordinator;
};

/// Shut the coordinator down (Shutdown frames, sockets closed) and reap its
/// workers. Returns the largest worker's peak RSS in MB.
double TearDown(FabricSetup* f) {
  f->coordinator.reset();
  double worker_rss = 0;
  for (const lfi::serve::LocalWorker& w : f->workers) {
    int status = 0;
    rusage usage{};
    if (wait4(w.pid, &status, 0, &usage) == w.pid) {
      worker_rss = std::max(worker_rss, PeakRssMb(usage));
    }
  }
  f->workers.clear();
  return worker_rss;
}

/// Build the target, fork the workers, run the Configure handshakes and
/// warm both workers. Workers are forked while no other thread runs
/// (coordinator dispatch threads are joined at the end of each Run).
lfi::Result<FabricSetup> SetUpFabric(SetupTimes* times) {
  const auto begin = Clock::now();
  FabricSetup f;
  f.target = BuildTarget(/*db=*/false, times);
  const auto warm_begin = Clock::now();
  f.options = CampaignBase(false);
  for (int i = 0; i < kFabricWorkers; ++i) {
    auto worker = lfi::serve::SpawnLocalWorker();
    if (!worker.ok()) {
      TearDown(&f);
      return lfi::Err(worker.error());
    }
    f.workers.push_back(worker.value());
  }
  lfi::serve::FabricOptions fabric;
  fabric.batch_size = kWireBatch;
  f.coordinator = std::make_unique<lfi::serve::FabricCoordinator>(
      f.target.Spec(), *f.target.profiles, f.options, fabric);
  const auto configure_begin = Clock::now();
  for (const lfi::serve::LocalWorker& w : f.workers) {
    lfi::Status st = f.coordinator->AddWorkerFd(w.fd, "bench");
    if (!st.ok()) {
      TearDown(&f);
      return lfi::Err(st.error());
    }
  }
  times->configure_s = SecondsSince(configure_begin);
  // Enough wire batches that both workers build and warm their machines.
  f.coordinator->Run(WarmScenarios({}, 4 * kWireBatch));
  times->warm_s = SecondsSince(warm_begin);
  times->total_s = SecondsSince(begin);
  return f;
}

RunResult RunFabric(const Args& args) {
  auto set_up = [](SetupTimes* times) {
    auto setup = SetUpFabric(times);
    if (!setup.ok()) {
      std::fprintf(stderr, "lfibench: fabric set-up failed: %s\n",
                   setup.error().c_str());
      std::exit(1);
    }
    return std::move(setup).take();
  };
  SetupMedians setups;
  SetupTimes first;
  FabricSetup f = set_up(&first);
  setups.Add(first);
  // Forking is safe between coordinator Runs: their dispatch threads have
  // been joined.
  SetupSampler sampler(&setups, [&] {
    SetupTimes times;
    FabricSetup extra = set_up(&times);
    TearDown(&extra);
    return times;
  });
  Source source{f.target.profiles, 0.1, args.seed, {}};
  RunResult out;
  // The traced run spends half its time on the fabric, half on the traced
  // in-process loop.
  const double timed = args.trace ? args.seconds / 2 : args.seconds;
  const lfi::serve::FabricStats before = f.coordinator->stats();
  const LoopStats loop =
      RunCampaignLoop(*f.coordinator, source, kFabricRun, timed, kPidginTarget,
                      &sampler);
  const lfi::serve::FabricStats stats = f.coordinator->stats();
  const size_t runs = loop.dispatch_s.size();
  std::printf("# pidgin-fabric: %zu scenarios in %.3f s of dispatch (%.1f/s) "
              "over %d workers\n",
              loop.scenarios, loop.timed_s, loop.mean_rate(), kFabricWorkers);
  std::printf("# FabricStats: connected=%zu lost=%zu dispatched=%zu "
              "retried=%zu stolen=%zu remote=%zu local=%zu\n",
              stats.workers_connected, stats.workers_lost,
              stats.batches_dispatched - before.batches_dispatched,
              stats.batches_retried - before.batches_retried,
              stats.batches_stolen - before.batches_stolen,
              stats.scenarios_remote - before.scenarios_remote,
              stats.scenarios_local - before.scenarios_local);
  out.attempted = loop.scenarios;
  out.failed = loop.setup_errors;
  // The workers go first: while forked children share its pages, every
  // first write in this process pays a copy-on-write fault, which would
  // slow the in-process work below.
  const double worker_rss = TearDown(&f);
  std::printf("# largest worker peak RSS %.1f MB\n", worker_rss);

  // Identity: the same scenarios in-process, on the library's own Pidgin
  // machine, must give the same per-scenario outcomes and union.
  CampaignRunner in_process(LibrarySetup(false), *f.target.profiles,
                            f.options);
  in_process.Run(WarmScenarios({}, 1));
  CoverageMap in_process_union;
  size_t identity_mismatches = 0;
  double in_process_s = 0;
  for (size_t first = 0; first < kPrefix; first += kFabricRun) {
    const std::vector<Scenario> batch = source.Batch(first, kFabricRun);
    const auto begin = Clock::now();
    const CampaignReport report = in_process.Run(batch);
    in_process_s += SecondsSince(begin);
    MergeInto(&in_process_union, report.coverage);
    for (const ScenarioResult& r : report.results) {
      const size_t index = first + r.index;
      const Outcome local = Outcome::Of(r);
      if (local == loop.prefix_outcomes[index]) continue;
      ++identity_mismatches;
      std::printf("# DEFECT fabric identity: scenario %zu fabric {%s} "
                  "in-process {%s}\n",
                  index, loop.prefix_outcomes[index].ToString().c_str(),
                  local.ToString().c_str());
    }
  }
  const size_t union_offsets = Popcount(loop.prefix_union);
  if (Popcount(in_process_union) != union_offsets) {
    ++identity_mismatches;
    std::printf("# DEFECT fabric identity: union %zu fabric vs %zu "
                "in-process\n",
                union_offsets, Popcount(in_process_union));
  }
  std::printf("# fabric identity check: %zu scenarios, %zu mismatch\n",
              kPrefix, identity_mismatches);
  out.failed += identity_mismatches;

  if (!args.trace) {
    out.correct = !loop.trial_s.empty() && union_offsets >= kPidginTarget;
    AddEndToEnd(&out.metrics, loop.rate(), Median(setups.total),
                out.attempted, out.failed, loop.ttc(), union_offsets,
                loop.bucket_witnesses.size());
    return out;
  }

  const MinimizeTotals min =
      MinimizeCrashes(source, loop.bucket_witnesses, f.target, f.options);
  PrintMinimize(min);

  // Traced: the same scenarios in wire batches, untraced in-process and
  // traced, with the wire codecs timed on the real batches and results.
  SpanLog log;
  TracedWorker worker(f.target.setup, f.target.profiles, f.options, &log);
  worker.Run(WarmScenarios({}, 1).front(), 0);
  worker.TakeBatchUnion();
  log.Clear();  // first-use costs belong to set-up
  LayerInputs in;
  size_t wire_bytes = 0;
  const BatchHook codecs = [&](size_t first,
                               const std::vector<Scenario>& scenarios,
                               const std::vector<ScenarioResult>& results) {
    lfi::serve::BatchMsg msg;
    msg.scenarios = scenarios;
    for (size_t i = 0; i < scenarios.size(); ++i) {
      msg.indices.push_back(first + i);
    }
    const std::vector<uint8_t> batch_bytes = log.Time(
        SpanKind::EncodeBatch, -1, first,
        [&] { return lfi::serve::EncodeBatch(msg); });
    const auto decoded = log.Time(SpanKind::DecodeBatch, -1, first, [&] {
      return lfi::serve::DecodeBatch(batch_bytes);
    });
    if (!decoded.ok()) ++out.failed;
    lfi::serve::BatchResultMsg reply;
    reply.results = results;
    for (size_t i = 0; i < reply.results.size(); ++i) {
      reply.results[i].index = first + i;
    }
    reply.coverage = worker.TakeBatchUnion();
    const std::vector<uint8_t> result_bytes = log.Time(
        SpanKind::EncodeResult, -1, first,
        [&] { return lfi::serve::EncodeBatchResult(reply); });
    const auto decoded_result = log.Time(
        SpanKind::DecodeResult, -1, first,
        [&] { return lfi::serve::DecodeBatchResult(result_bytes); });
    if (!decoded_result.ok()) ++out.failed;
    wire_bytes += batch_bytes.size() + result_bytes.size();
  };
  const PairedTrace t = RunPairedTrace(in_process, worker, source, kWireBatch,
                                       0, &in.counts, nullptr, codecs);
  out.failed += t.failed;
  in.setup = setups;
  in.log = &log;
  in.trace_overhead_frac = t.overhead_frac();
  in.dispatch_s = Median(loop.dispatch_s);
  in.winners_frac =
      static_cast<double>(in.counts.winners) / in.counts.scenarios;
  in.minimize_s = min.seconds;
  in.minimize_ms_per_crash = min.ms_per_crash;
  in.minimize_runs_per_crash =
      min.crashes == 0 ? 0 : static_cast<double>(min.oracle_runs) / min.crashes;
  in.bytes_per_scenario = static_cast<double>(wire_bytes) / t.scenarios;
  in.batches_per_run = static_cast<double>(stats.batches_dispatched -
                                           before.batches_dispatched) /
                       runs;
  in.stolen_per_run =
      static_cast<double>(stats.batches_stolen - before.batches_stolen) / runs;
  const size_t remote = stats.scenarios_remote - before.scenarios_remote;
  const size_t local = stats.scenarios_local - before.scenarios_local;
  in.local_frac = remote + local == 0
                      ? 0
                      : static_cast<double>(local) / (remote + local);
  // Share of the workers' capacity not spent running scenarios: 0 when
  // kFabricWorkers workers run kFabricWorkers times as fast as one
  // in-process runner.
  in.overhead_frac =
      1.0 - loop.mean_rate() / (kFabricWorkers * kPrefix / in_process_s);
  in.worker_rss_mb = worker_rss;
  AddLayerMetrics(in, &out.metrics);
  if (!args.spans_path.empty()) log.WriteCsv(args.spans_path);
  return out;
}

// ---- dbsuite-explore --------------------------------------------------------

/// Times every round dispatch, and keeps the populations and outcomes of
/// the first kTraceCounted scenarios for the traced re-run.
class TimingDispatch : public lfi::campaign::ScenarioDispatch {
 public:
  TimingDispatch(lfi::campaign::ScenarioDispatch* inner, SpanLog* log)
      : inner_(inner), log_(log) {}

  CampaignReport Run(const std::vector<Scenario>& scenarios) override {
    const auto begin = Clock::now();
    CampaignReport report;
    try {
      report = inner_->Run(scenarios);
    } catch (...) {
      log_->Add(SpanKind::Dispatch, calls_++, begin);
      throw;
    }
    log_->Add(SpanKind::Dispatch, calls_++, begin);
    completed_s_ += SecondsSince(begin);
    for (size_t i = 0;
         i < scenarios.size() && captured_.size() < kTraceCounted; ++i) {
      captured_.push_back(scenarios[i]);
      expected_.push_back(Outcome::Of(report.results[i]));
    }
    return report;
  }

  void set_inner(lfi::campaign::ScenarioDispatch* inner) { inner_ = inner; }
  /// Dispatch time of the calls that returned (rounds that completed).
  double completed_s() const { return completed_s_; }
  const std::vector<Scenario>& captured() const { return captured_; }
  const std::vector<Outcome>& expected() const { return expected_; }

 private:
  lfi::campaign::ScenarioDispatch* inner_;
  SpanLog* log_;
  uint64_t calls_ = 0;
  double completed_s_ = 0;
  std::vector<Scenario> captured_;
  std::vector<Outcome> expected_;
};

struct ExploreSetup {
  Target target;
  CampaignOptions base;
  std::unique_ptr<CampaignRunner> runner;  // the explorer's round dispatch
};

/// Options of the round dispatcher: what the explorer requires of an
/// external dispatch, plus snapshot-tree execution with the window at the
/// entry point, so every round scenario restores instead of rebuilding its
/// process and this workload also measures tree restore. Results do not
/// depend on the mode; the minimization oracles stay cold (the explorer
/// builds them from `base`).
CampaignOptions RoundOptions(const CampaignOptions& base) {
  CampaignOptions opts = lfi::campaign::Explorer::DispatchOptions(base);
  opts.snapshot_tree = true;
  return opts;
}

/// The round dispatcher, warmed once.
std::unique_ptr<CampaignRunner> BuildExploreRunner(const ExploreSetup& s) {
  auto runner = std::make_unique<CampaignRunner>(
      s.target.setup, *s.target.profiles, RoundOptions(s.base));
  runner->Run(WarmScenarios({}, 1));
  return runner;
}

ExploreSetup SetUpExplore(SetupTimes* times) {
  const auto begin = Clock::now();
  ExploreSetup s;
  s.target = BuildTarget(/*db=*/true, times);
  const auto warm_begin = Clock::now();
  s.base = CampaignBase(true);
  s.runner = BuildExploreRunner(s);
  times->warm_s = SecondsSince(warm_begin);
  times->total_s = SecondsSince(begin);
  return s;
}

struct SessionRecord {
  uint64_t seed = 0;
  bool failed = false;
  std::vector<lfi::campaign::RoundStats> rounds;
  std::vector<double> round_s;
  double ttc_s = -1;  // never reached the target
  double minimize_s = 0;
  size_t crashes = 0;
  size_t minimize_runs = 0;
  size_t not_reproducing = 0;

  size_t union_offsets() const {
    return rounds.empty() ? 0 : rounds.back().union_offsets;
  }
  size_t crash_buckets() const {
    size_t n = 0;
    for (const auto& r : rounds) n += r.new_crash_buckets;
    return n;
  }
};

/// One explorer session. A host exception escaping Explore() fails the
/// session; its seed and the exception text are printed.
SessionRecord RunSession(ExploreSetup& s, uint64_t session_seed,
                         lfi::campaign::ScenarioDispatch* dispatch,
                         SpanLog* log, uint64_t key) {
  SessionRecord rec;
  rec.seed = session_seed;
  lfi::campaign::ExplorerOptions eo;
  eo.rounds = kExploreRounds;
  eo.scenarios_per_round = kExploreBudget;
  eo.seed = session_seed;
  eo.campaign = s.base;
  eo.dispatch = dispatch;
  Clock::time_point begin;
  Clock::time_point last;
  eo.on_round = [&](const lfi::campaign::RoundStats& rs) {
    const auto now = Clock::now();
    rec.round_s.push_back(std::chrono::duration<double>(now - last).count());
    if (log != nullptr) log->Add(SpanKind::Round, rs.round, last);
    rec.rounds.push_back(rs);
    if (rec.ttc_s < 0 && rs.union_offsets >= kExploreTarget) {
      rec.ttc_s = std::chrono::duration<double>(now - begin).count();
    }
    last = now;
  };
  lfi::campaign::Explorer explorer(s.target.setup, *s.target.profiles, eo);
  begin = Clock::now();
  last = begin;
  try {
    const lfi::campaign::ExplorerReport report = explorer.Explore();
    if (log != nullptr) log->Add(SpanKind::Minimize, key, last);
    rec.minimize_s = SecondsSince(last);
    rec.crashes = report.crashes.size();
    for (const auto& cr : report.crashes) {
      rec.minimize_runs += cr.minimize_runs;
      if (!cr.reproduces) ++rec.not_reproducing;
    }
  } catch (const std::exception& e) {
    rec.failed = true;
    std::printf("# FAILED session seed=%llu after %zu rounds: %s: %s\n",
                static_cast<unsigned long long>(session_seed),
                rec.rounds.size(), typeid(e).name(), e.what());
    // The dispatcher's machine was left mid-scenario: rebuild it.
    s.runner = BuildExploreRunner(s);
  }
  if (log != nullptr) log->Add(SpanKind::Session, key, begin);
  return rec;
}

struct SessionTotals {
  size_t sessions = 0;
  size_t failed = 0;
  size_t round_scenarios = 0;
  double round_s = 0;
  size_t rounds = 0;
  std::vector<double> ttc_s;
  double minimize_s = 0;
  size_t crashes = 0;
  size_t minimize_runs = 0;
  size_t not_reproducing = 0;
  std::vector<double> session_rates;  // round scenarios / round time
  std::vector<double> session_ms_per_crash;
  // Over the first kExploreCounted sessions only, so they repeat exactly.
  std::vector<size_t> counted_union;
  std::vector<size_t> counted_buckets;
  size_t counted_scenarios = 0;
  size_t counted_winners = 0;
  size_t counted_crashes = 0;
  size_t counted_minimize_runs = 0;

  void Add(const SessionRecord& r) {
    ++sessions;
    if (r.failed) ++failed;
    size_t scenarios = 0;
    double seconds = 0;
    size_t session_winners = 0;
    for (size_t i = 0; i < r.rounds.size(); ++i) {
      scenarios += r.rounds[i].scenarios;
      session_winners += r.rounds[i].winners;
      seconds += r.round_s[i];
      ++rounds;
    }
    round_scenarios += scenarios;
    round_s += seconds;
    if (seconds > 0) session_rates.push_back(scenarios / seconds);
    if (r.ttc_s >= 0) ttc_s.push_back(r.ttc_s);
    if (!r.failed) {
      if (r.crashes > 0) {
        session_ms_per_crash.push_back(1e3 * r.minimize_s / r.crashes);
      }
      minimize_s += r.minimize_s;
      crashes += r.crashes;
      minimize_runs += r.minimize_runs;
      not_reproducing += r.not_reproducing;
    }
    if (counted_union.size() < kExploreCounted) {
      counted_union.push_back(r.union_offsets());
      counted_buckets.push_back(r.crash_buckets());
      counted_scenarios += scenarios;
      counted_winners += session_winners;
      if (!r.failed) {
        counted_crashes += r.crashes;
        counted_minimize_runs += r.minimize_runs;
      }
    }
  }
  /// The end-to-end timings. On a shared host, guest code runs up to 1.7
  /// times slower for seconds to minutes at a time, at other moments in
  /// each process; contention only ever slows the program down. So the
  /// timings take the fast end of the per-session (per-window) distribution,
  /// which tracks the program's own speed, rather than a mean that tracks
  /// how much of the run happened to be slowed.
  double rate() const { return Quantile(session_rates, 0.9); }
  double ttc() const { return Quantile(ttc_s, 0.25); }
  /// Round scenarios over round time, whole run.
  double mean_rate() const {
    return round_s > 0 ? round_scenarios / round_s : 0;
  }
};

/// The traced explore run: each session runs twice with the same seed,
/// untraced and then through the timing dispatch, so the tracing overhead
/// compares the same work at the same moment.
struct ExploreTrace {
  SpanLog* log = nullptr;
  TimingDispatch* timing = nullptr;
  SessionTotals untraced;
};

/// `sessions` sessions (at least kExploreCounted). With `trace`, returns
/// the traced sessions' totals.
SessionTotals RunSessions(ExploreSetup& s, uint64_t seed, size_t sessions,
                          SetupSampler* sampler, ExploreTrace* trace) {
  SessionTotals totals;
  sessions = std::max(sessions, kExploreCounted);
  for (uint64_t i = 0; i < sessions; ++i) {
    const uint64_t session_seed = lfi::campaign::DeriveSeed(seed, i);
    lfi::campaign::ScenarioDispatch* dispatch = s.runner.get();
    SpanLog* log = nullptr;
    if (trace != nullptr) {
      trace->untraced.Add(
          RunSession(s, session_seed, s.runner.get(), nullptr, i));
      trace->timing->set_inner(s.runner.get());
      dispatch = trace->timing;
      log = trace->log;
    }
    totals.Add(RunSession(s, session_seed, dispatch, log, i));
    sampler->Pause(static_cast<double>(i + 1) / sessions);
  }
  sampler->Finish();
  std::printf("# %zu sessions (%zu failed), %zu rounds, %zu round scenarios "
              "in %.3f s; %zu crash buckets minimized in %.3f s (%zu oracle "
              "runs, %zu not reproducing); %zu sessions reached %zu offsets\n",
              totals.sessions, totals.failed, totals.rounds,
              totals.round_scenarios, totals.round_s, totals.crashes,
              totals.minimize_s, totals.minimize_runs, totals.not_reproducing,
              totals.ttc_s.size(), kExploreTarget);
  std::printf("# round scenarios/s per session: p90 %.1f, median %.1f, "
              "whole run %.1f; time to coverage: p25 %.5f s, median %.5f s "
              "(%zu sessions)\n",
              totals.rate(), Median(totals.session_rates), totals.mean_rate(),
              totals.ttc(), Median(totals.ttc_s), totals.ttc_s.size());
  return totals;
}

RunResult RunExplore(const Args& args) {
  SetupMedians setups;
  SetupTimes first;
  ExploreSetup s = SetUpExplore(&first);
  setups.Add(first);
  SetupSampler sampler(&setups, [] {
    SetupTimes times;
    SetUpExplore(&times);
    return times;
  });
  RunResult out;
  const size_t sessions =
      static_cast<size_t>(std::lround(kSessionsPerSecond * args.seconds));
  if (!args.trace) {
    const SessionTotals totals =
        RunSessions(s, args.seed, sessions, &sampler, nullptr);
    out.attempted = totals.sessions;
    out.failed = totals.failed;
    out.correct = totals.failed < totals.sessions && !totals.ttc_s.empty() &&
                  totals.crashes > 0;
    AddEndToEnd(&out.metrics, totals.rate(), Median(setups.total),
                out.attempted, out.failed, totals.ttc(),
                MedianCount(totals.counted_union),
                MedianCount(totals.counted_buckets));
    return out;
  }

  // Traced: paired sessions (untraced, then through a timing dispatch),
  // then the captured round populations through the traced per-scenario
  // loop.
  SpanLog log;
  TracedWorker worker(s.target.setup, s.target.profiles,
                      RoundOptions(s.base), &log);
  worker.Run(WarmScenarios({}, 1).front(), 0);
  log.Clear();  // first-use costs belong to set-up
  TimingDispatch timing(s.runner.get(), &log);
  ExploreTrace trace{&log, &timing, {}};
  const SessionTotals traced =
      RunSessions(s, args.seed, sessions / 2, &sampler, &trace);
  out.attempted = trace.untraced.sessions + traced.sessions;
  out.failed = trace.untraced.failed + traced.failed;
  LayerInputs in;
  in.setup = setups;
  out.failed += TraceScenarios(worker, timing.captured(), timing.expected(), 0,
                               &in.counts);
  in.log = &log;
  in.tree_nodes = worker.machine().snapshot_node_count();
  in.trace_overhead_frac =
      trace.untraced.mean_rate() > 0
          ? 1.0 - traced.mean_rate() / trace.untraced.mean_rate()
          : 0;
  in.dispatch_s = Median(log.Durations(SpanKind::Dispatch));
  in.round_self_s =
      traced.rounds == 0
          ? 0
          : (traced.round_s - timing.completed_s()) / traced.rounds;
  in.winners_frac =
      traced.counted_scenarios == 0
          ? 0
          : static_cast<double>(traced.counted_winners) /
                traced.counted_scenarios;
  in.minimize_s = Median(log.Durations(SpanKind::Minimize));
  in.minimize_ms_per_crash = Median(traced.session_ms_per_crash);
  in.minimize_runs_per_crash =
      traced.counted_crashes == 0
          ? 0
          : static_cast<double>(traced.counted_minimize_runs) /
                traced.counted_crashes;
  AddLayerMetrics(in, &out.metrics);
  if (!args.spans_path.empty()) log.WriteCsv(args.spans_path);
  return out;
}

// ---- entry ------------------------------------------------------------------

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "lfibench: %s\nusage: lfibench --workload "
               "pidgin-cold|dbsuite-tree|dbsuite-explore|pidgin-fabric "
               "--seed N --seconds S [--trace 0|1] [--spans FILE]\n",
               why);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.name = value;
      have_workload = true;
      if (value == "pidgin-cold") args.workload = Workload::PidginCold;
      else if (value == "dbsuite-tree") args.workload = Workload::DbSuiteTree;
      else if (value == "dbsuite-explore")
        args.workload = Workload::DbSuiteExplore;
      else if (value == "pidgin-fabric")
        args.workload = Workload::PidginFabric;
      else Usage(("unknown workload " + value).c_str());
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') Usage("bad --seed");
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(args.seconds > 0)) {
        Usage("bad --seconds");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") Usage("--trace takes 0 or 1");
      args.trace = value == "1";
    } else if (flag == "--spans") {
      args.spans_path = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload) Usage("--workload is required");
  return args;
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  std::printf("# lfibench %s seed=%llu seconds=%g trace=%d\n",
              args.name.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0);
  RunResult result;
  switch (args.workload) {
    case Workload::PidginCold:
      result = RunInProcessCampaign(args, /*db=*/false);
      break;
    case Workload::DbSuiteTree:
      result = RunInProcessCampaign(args, /*db=*/true);
      break;
    case Workload::DbSuiteExplore:
      result = RunExplore(args);
      break;
    case Workload::PidginFabric:
      result = RunFabric(args);
      break;
  }
  std::fflush(stdout);
  result.metrics.Print(result.correct, result.attempted, result.failed);
  return 0;
}

}  // namespace
}  // namespace lfibench

int main(int argc, char** argv) { return lfibench::Main(argc, argv); }
