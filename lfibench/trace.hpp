// Tracing for the benchmark's traced run: in-memory spans recorded around
// calls into the library's public API, and a traced scenario loop.
//
// The timed runs never touch this file. A separate traced run (--trace 1)
// records a span around each public call a scenario makes (machine reset
// or snapshot restore, process creation, guest execution, controller
// reset, plan install, replay generation, result collection, coverage
// merge), nested under one span per scenario keyed by the scenario index.
// Spans stay in memory until the run ends; the summary reports self time,
// median and p99 per span kind with sample counts.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "campaign/runner.hpp"
#include "core/controller.hpp"
#include "vm/machine.hpp"

namespace lfibench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point begin) {
  return std::chrono::duration<double>(Clock::now() - begin).count();
}

enum class SpanKind : uint8_t {
  Scenario,         // one scenario, keyed by its index
  MachineReset,     // vm::Machine::Reset
  RestoreTo,        // vm::Machine::RestoreTo
  CreateProcess,    // vm::Machine::CreateProcess
  RunPrefix,        // vm::Machine::Run up to the fault window (+ node push)
  Run,              // vm::Machine::Run of the fault window
  ControllerReset,  // core::Controller::Reset
  Install,          // core::Controller::Install
  GenerateReplay,   // core::Controller::GenerateReplay
  Collect,          // process outcome, triage hashes, coverage reads
  Merge,            // union-coverage merge
  Dispatch,         // campaign::ScenarioDispatch::Run
  Round,            // one explorer round
  Minimize,         // crash minimization after the rounds
  Session,          // one explorer session
  EncodeBatch,      // serve::EncodeBatch
  DecodeBatch,      // serve::DecodeBatch
  EncodeResult,     // serve::EncodeBatchResult
  DecodeResult,     // serve::DecodeBatchResult
  kCount,
};

const char* SpanName(SpanKind kind);

struct Span {
  SpanKind kind = SpanKind::Scenario;
  int32_t parent = -1;  // index into the log, -1 for a root
  uint64_t key = 0;     // scenario index, round number, batch number...
  int64_t begin_ns = 0;
  int64_t end_ns = 0;
};

struct SpanSummary {
  size_t count = 0;
  double total_s = 0;
  double self_s = 0;    // total minus the time covered by child spans
  double median_s = 0;
  double p99_s = 0;
};

class SpanLog {
 public:
  SpanLog() : epoch_(Clock::now()) {}

  /// Open a span and return its id; close it with Close(id).
  int32_t Open(SpanKind kind, uint64_t key, int32_t parent = -1);
  void Close(int32_t id);

  /// Record a span that began at `begin` and ends now.
  int32_t Add(SpanKind kind, uint64_t key, Clock::time_point begin,
              int32_t parent = -1);

  /// Time `fn()` as a span of `kind` under `parent` and return its result.
  template <class Fn>
  auto Time(SpanKind kind, int32_t parent, uint64_t key, Fn&& fn) {
    const int32_t id = Open(kind, key, parent);
    if constexpr (std::is_void_v<decltype(fn())>) {
      fn();
      Close(id);
    } else {
      auto value = fn();
      Close(id);
      return value;
    }
  }

  SpanSummary Summarize(SpanKind kind) const;
  /// Durations of every span of `kind`, in seconds.
  std::vector<double> Durations(SpanKind kind) const;
  const std::vector<Span>& spans() const { return spans_; }
  void Clear() { spans_.clear(); }

  /// Write every span as CSV (kind,parent,key,begin_ns,end_ns).
  bool WriteCsv(const std::string& path) const;

 private:
  int64_t Now() const;

  Clock::time_point epoch_;
  std::vector<Span> spans_;
};

/// The outcome fields the identity and isolation checks compare: status,
/// exit code, guest instructions, injections, coverage popcount and crash
/// hash.
struct Outcome {
  uint8_t status = 0;
  int64_t exit_code = 0;
  uint64_t instructions = 0;
  uint64_t injections = 0;
  uint64_t covered = 0;
  uint64_t crash_hash = 0;

  static Outcome Of(const lfi::campaign::ScenarioResult& result);
  bool operator==(const Outcome&) const = default;
  std::string ToString() const;
};

/// One traced scenario's result plus the counts only the traced loop sees.
struct TracedResult {
  lfi::campaign::ScenarioResult result;
  uint64_t kernel_calls = 0;  // kcall_count() delta over the fault window
  uint64_t run_instructions = 0;  // guest instructions of the fault window
  bool winner = false;        // added offsets to this worker's union
};

/// A campaign worker (one machine + controller pair, built like a
/// CampaignRunner worker) whose per-scenario path repeats
/// campaign::RunScenarioOn call for call, with a span around each public
/// call. The checks compare its results with the untraced runner's, so a
/// divergence between the two paths shows as a failed operation. Cold and
/// snapshot-tree execution only (the modes the benchmark runs).
class TracedWorker {
 public:
  TracedWorker(const lfi::campaign::MachineSetup& setup,
               std::shared_ptr<const std::vector<lfi::core::FaultProfile>>
                   profiles,
               lfi::campaign::CampaignOptions options, SpanLog* log);

  TracedResult Run(const lfi::campaign::Scenario& scenario, uint64_t key);

  /// Union coverage of the scenarios run since the last call, per module
  /// name (what a fabric worker ships back per batch); resets it.
  std::vector<std::pair<std::string, lfi::vm::CoverageBitmap>> TakeBatchUnion();

  lfi::vm::Machine& machine() { return machine_; }

 private:
  lfi::campaign::CampaignOptions options_;
  std::shared_ptr<const std::vector<lfi::core::FaultProfile>> profiles_;
  SpanLog* log_;
  lfi::vm::Machine machine_;
  std::unique_ptr<lfi::core::Controller> controller_;
  lfi::vm::CoverageTracker* tracker_ = nullptr;
  std::vector<std::string> module_names_;
  lfi::campaign::SnapshotTreeState tree_;
  lfi::vm::CoverageTracker union_;  // every scenario so far (winner test)
  lfi::vm::CoverageTracker batch_;  // since the last TakeBatchUnion
};

}  // namespace lfibench
