#include "trace.hpp"

#include <algorithm>
#include <cstdio>

#include "campaign/triage.hpp"

namespace lfibench {

using lfi::campaign::CampaignOptions;
using lfi::campaign::Scenario;
using lfi::campaign::ScenarioResult;
using lfi::campaign::ScenarioStatus;

const char* SpanName(SpanKind kind) {
  switch (kind) {
    case SpanKind::Scenario: return "scenario";
    case SpanKind::MachineReset: return "vm.reset";
    case SpanKind::RestoreTo: return "vm.restore";
    case SpanKind::CreateProcess: return "vm.create_process";
    case SpanKind::RunPrefix: return "vm.run_prefix";
    case SpanKind::Run: return "vm.run";
    case SpanKind::ControllerReset: return "core.controller_reset";
    case SpanKind::Install: return "core.install";
    case SpanKind::GenerateReplay: return "core.replay";
    case SpanKind::Collect: return "campaign.collect";
    case SpanKind::Merge: return "campaign.merge";
    case SpanKind::Dispatch: return "campaign.dispatch";
    case SpanKind::Round: return "campaign.round";
    case SpanKind::Minimize: return "campaign.minimize";
    case SpanKind::Session: return "campaign.session";
    case SpanKind::EncodeBatch: return "serve.encode_batch";
    case SpanKind::DecodeBatch: return "serve.decode_batch";
    case SpanKind::EncodeResult: return "serve.encode_result";
    case SpanKind::DecodeResult: return "serve.decode_result";
    case SpanKind::kCount: break;
  }
  return "?";
}

int64_t SpanLog::Now() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              epoch_)
      .count();
}

int32_t SpanLog::Open(SpanKind kind, uint64_t key, int32_t parent) {
  Span span;
  span.kind = kind;
  span.parent = parent;
  span.key = key;
  span.begin_ns = Now();
  spans_.push_back(span);
  return static_cast<int32_t>(spans_.size() - 1);
}

void SpanLog::Close(int32_t id) {
  spans_[static_cast<size_t>(id)].end_ns = Now();
}

int32_t SpanLog::Add(SpanKind kind, uint64_t key, Clock::time_point begin,
                     int32_t parent) {
  const int32_t id = Open(kind, key, parent);
  spans_.back().begin_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(begin - epoch_)
          .count();
  Close(id);
  return id;
}

std::vector<double> SpanLog::Durations(SpanKind kind) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.kind == kind) {
      out.push_back(static_cast<double>(s.end_ns - s.begin_ns) * 1e-9);
    }
  }
  return out;
}

SpanSummary SpanLog::Summarize(SpanKind kind) const {
  // Child time per span, for self time.
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.begin_ns;
    }
  }
  SpanSummary out;
  std::vector<double> durations;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.kind != kind) continue;
    const double d = static_cast<double>(s.end_ns - s.begin_ns) * 1e-9;
    durations.push_back(d);
    out.total_s += d;
    out.self_s += static_cast<double>(s.end_ns - s.begin_ns - child_ns[i]) *
                  1e-9;
  }
  out.count = durations.size();
  if (durations.empty()) return out;
  std::sort(durations.begin(), durations.end());
  out.median_s = durations[durations.size() / 2];
  out.p99_s = durations[std::min(durations.size() - 1,
                                 durations.size() * 99 / 100)];
  return out;
}

bool SpanLog::WriteCsv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "kind,parent,key,begin_ns,end_ns\n");
  for (const Span& s : spans_) {
    std::fprintf(f, "%s,%d,%llu,%lld,%lld\n", SpanName(s.kind), s.parent,
                 static_cast<unsigned long long>(s.key),
                 static_cast<long long>(s.begin_ns),
                 static_cast<long long>(s.end_ns));
  }
  return std::fclose(f) == 0;
}

Outcome Outcome::Of(const ScenarioResult& result) {
  Outcome o;
  o.status = static_cast<uint8_t>(result.status);
  o.exit_code = result.exit_code;
  o.instructions = result.instructions;
  o.injections = result.injections;
  o.covered = result.covered_offsets;
  o.crash_hash = result.crash_hash;
  return o;
}

std::string Outcome::ToString() const {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "status=%s exit=%lld instr=%llu injections=%llu covered=%llu "
                "crash=%016llx",
                lfi::campaign::ScenarioStatusName(
                    static_cast<ScenarioStatus>(status)),
                static_cast<long long>(exit_code),
                static_cast<unsigned long long>(instructions),
                static_cast<unsigned long long>(injections),
                static_cast<unsigned long long>(covered),
                static_cast<unsigned long long>(crash_hash));
  return buf;
}

namespace {

/// Same rule as the runner: a plan naming the entry symbol runs cold.
bool PlanNamesEntry(const lfi::core::Plan& plan, const std::string& entry) {
  for (const lfi::core::FunctionTrigger& t : plan.triggers) {
    if (t.function == entry) return true;
  }
  return false;
}

}  // namespace

TracedWorker::TracedWorker(
    const lfi::campaign::MachineSetup& setup,
    std::shared_ptr<const std::vector<lfi::core::FaultProfile>> profiles,
    CampaignOptions options, SpanLog* log)
    : options_(std::move(options)), profiles_(std::move(profiles)), log_(log) {
  if (options_.exec_mode) machine_.SetExecMode(*options_.exec_mode);
  if (setup) setup(machine_);
  machine_.Checkpoint();
  if (options_.track_coverage) {
    tracker_ = machine_.EnableCoverage();
    for (const auto& mod : machine_.loader().modules()) {
      module_names_.push_back(mod->object.name);
    }
  }
  controller_ =
      std::make_unique<lfi::core::Controller>(machine_, options_.controller);
  lfi::campaign::PrepareMachineSnapshot(
      machine_, options_, options_.snapshot_tree ? &tree_ : nullptr);
}

TracedResult TracedWorker::Run(const Scenario& scenario, uint64_t key) {
  const int32_t root = log_->Open(SpanKind::Scenario, key);
  auto span = [&](SpanKind kind, auto&& fn) {
    return log_->Time(kind, root, key, fn);
  };

  TracedResult traced;
  ScenarioResult& result = traced.result;
  result.name = scenario.name;
  const std::string& entry =
      scenario.entry.empty() ? options_.entry : scenario.entry;
  const uint64_t heap_cap = scenario.heap_cap_bytes != 0
                                ? scenario.heap_cap_bytes
                                : options_.default_heap_cap;
  const uint64_t warmup =
      scenario.warmup_instructions.value_or(options_.warmup_instructions);
  const bool tree_mode = options_.snapshot_tree;
  bool use_snapshot = tree_mode && machine_.has_snapshot() &&
                      entry == options_.entry &&
                      heap_cap == options_.default_heap_cap &&
                      warmup >= options_.warmup_instructions &&
                      !PlanNamesEntry(scenario.plan, entry);

  const auto begin = Clock::now();
  bool setup_failed = false;
  auto setup_fail = [&](const std::string& error) {
    result.status = ScenarioStatus::SetupError;
    result.fault_message = error;
    setup_failed = true;
  };
  auto install = [&]() {
    lfi::Status st = span(SpanKind::Install, [&] {
      return controller_->Install(scenario.plan, profiles_);
    });
    if (!st.ok()) setup_fail(st.error());
  };

  const lfi::vm::SnapshotRestoreStats before = machine_.restore_stats();
  int primary_pid = 0;
  if (use_snapshot) {
    auto it = tree_.windows.upper_bound(warmup);
    --it;
    use_snapshot =
        span(SpanKind::RestoreTo,
             [&] { return machine_.RestoreTo(it->second); }) &&
        !machine_.processes().empty();
    if (use_snapshot) {
      span(SpanKind::ControllerReset, [&] { controller_->Reset(); });
      if (it->first < warmup) {
        span(SpanKind::RunPrefix, [&] {
          machine_.Run(warmup);
          tree_.windows[warmup] = machine_.PushSnapshot();
        });
      }
    }
  }
  if (use_snapshot) {
    install();
    if (!setup_failed) primary_pid = machine_.processes().front()->pid();
  } else {
    span(SpanKind::MachineReset, [&] { machine_.Reset(); });
    span(SpanKind::ControllerReset, [&] { controller_->Reset(); });
    auto create = [&] {
      return span(SpanKind::CreateProcess,
                  [&] { return machine_.CreateProcess(entry, heap_cap); });
    };
    if (warmup > 0) {
      auto pid = create();
      if (!pid.ok()) {
        setup_fail(pid.error());
      } else {
        span(SpanKind::RunPrefix, [&] { machine_.Run(warmup); });
        install();
        primary_pid = pid.value();
      }
    } else {
      install();
      if (!setup_failed) {
        auto pid = create();
        if (!pid.ok()) setup_fail(pid.error());
        else primary_pid = pid.value();
      }
    }
  }
  result.snapshot_fallback = tree_mode && !use_snapshot;
  const lfi::vm::SnapshotRestoreStats& after = machine_.restore_stats();
  result.restore_pages = after.pages_restored - before.pages_restored;
  result.restore_nodes_walked = after.nodes_walked - before.nodes_walked;
  if (setup_failed) {
    log_->Close(root);
    return traced;
  }

  const uint64_t kcalls = machine_.kernel().kcall_count();
  const uint64_t instructions = machine_.total_instructions();
  const lfi::vm::RunOutcome outcome = span(
      SpanKind::Run, [&] { return machine_.Run(options_.max_instructions); });
  traced.kernel_calls = machine_.kernel().kcall_count() - kcalls;
  traced.run_instructions = machine_.total_instructions() - instructions;
  result.seconds = SecondsSince(begin);
  result.instructions = machine_.total_instructions();
  result.injections = controller_->log().size();
  result.first_injection_instructions =
      controller_->first_injection_instructions();
  result.seu_landed = controller_->seu_landed();
  if (options_.collect_state_digest) {
    result.state_digest = machine_.StateDigest();
  }
  if (options_.collect_replays) {
    result.replay = span(SpanKind::GenerateReplay,
                         [&] { return controller_->GenerateReplay(); });
  }

  span(SpanKind::Collect, [&] {
    lfi::vm::Process* primary = machine_.process(primary_pid);
    result.exit_code = primary->exit_code();
    result.signal = primary->signal();
    result.fault_message = primary->fault_message();
    if (primary->state() == lfi::vm::ProcState::Faulted) {
      result.status = ScenarioStatus::Crashed;
      result.fault_frames = lfi::campaign::FaultFrames(*primary);
      result.crash_site_hash =
          lfi::campaign::CrashSiteHash(result.signal, result.fault_frames);
      result.crash_hash = lfi::campaign::CrashHash(
          result.signal, result.fault_frames, controller_->log());
    } else if (outcome == lfi::vm::RunOutcome::Deadlock) {
      result.status = ScenarioStatus::Deadlocked;
    } else if (outcome == lfi::vm::RunOutcome::BudgetSpent) {
      result.status = ScenarioStatus::BudgetSpent;
    } else {
      result.status = ScenarioStatus::Exited;
    }
    if (tracker_ == nullptr) return;
    result.covered_offsets = tracker_->covered_total();
    for (size_t m = 0;
         m < tracker_->module_count() && m < module_names_.size(); ++m) {
      const size_t covered = tracker_->covered(m);
      if (covered == 0) continue;
      result.covered_by_module[module_names_[m]] = covered;
      if (options_.collect_scenario_coverage) {
        result.coverage[module_names_[m]] = tracker_->executed(m);
      }
    }
  });
  if (tracker_ != nullptr) {
    span(SpanKind::Merge, [&] { batch_.Merge(*tracker_); });
  }
  log_->Close(root);

  // Outside the scenario span: the winner test is the benchmark's own
  // bookkeeping, not work the runner does.
  if (tracker_ != nullptr) {
    for (size_t m = 0; m < tracker_->module_count(); ++m) {
      if (tracker_->executed(m).CountNotIn(union_.executed(m)) > 0) {
        traced.winner = true;
        break;
      }
    }
    union_.Merge(*tracker_);
  }
  return traced;
}

std::vector<std::pair<std::string, lfi::vm::CoverageBitmap>>
TracedWorker::TakeBatchUnion() {
  std::vector<std::pair<std::string, lfi::vm::CoverageBitmap>> out;
  for (size_t m = 0; m < batch_.module_count() && m < module_names_.size();
       ++m) {
    out.emplace_back(module_names_[m], batch_.executed(m));
  }
  batch_ = lfi::vm::CoverageTracker();
  return out;
}

}  // namespace lfibench
