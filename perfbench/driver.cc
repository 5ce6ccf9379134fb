// perfbench_driver: one repetition of one benchmark workload.
//
// A repetition is a set-up phase followed by one timed pass, both made only
// through the toolkit's public API. The driver prints one JSON line with the
// wall times, peak RSS, the output checks (event counts and fingerprints) and,
// when traced, the per-layer decomposition of the timed pass. perfbench/run.py
// launches it once per repetition, so every repetition starts from a fresh
// heap and its VmHWM belongs to it alone.
//
//   perfbench_driver --workload stream_rollup --phase run \
//       --fleet-seed 1001 --workload-seed 2001 --users 160 --steps 600 \
//       --setup-reps 9 --trace 0
//
// Workloads and phases:
//   stream_rollup       run      facade construction | Run + rollups + skewness
//   batch_tail_control  run      config/scenario/fleet | EbsSimulation + analyses
//   store_mitigate      record   set-up only: record the window into a store
//   store_mitigate      replay   replay the store through three online sinks
//
// With --trace 1 the global obs registry is enabled, extra sinks are wrapped
// in timing decorators, the batch constructor is decomposed into its public
// steps, spans are kept in memory and written as Chrome trace-event JSON to
// --trace-out at exit.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "src/analysis/skewness.h"
#include "src/cache/online_hotspot.h"
#include "src/control/plane.h"
#include "src/core/simulation.h"
#include "src/core/sink_drive.h"
#include "src/core/streaming.h"
#include "src/hypervisor/online_balance.h"
#include "src/hypervisor/wt_balance.h"
#include "src/obs/metrics.h"
#include "src/qmodel/sink.h"
#include "src/replay/sinks.h"
#include "src/scenario/builders.h"
#include "src/throttle/online_lending.h"
#include "src/throttle/throttle.h"
#include "src/trace/aggregate.h"
#include "src/trace/store.h"
#include "src/workload/generator.h"

namespace {

using Clock = std::chrono::steady_clock;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

double Seconds(int64_t ns) { return static_cast<double>(ns) * 1e-9; }

// ---------------------------------------------------------------------------
// Arguments.
// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  std::string phase = "run";
  uint64_t fleet_seed = 1001;
  uint64_t workload_seed = 2001;
  uint32_t users = 160;
  size_t steps = 600;
  double rate_scale = 1.0;
  int setup_reps = 1;
  bool trace = false;
  std::string store_path;
  std::string trace_out;
  std::string run_id = "run";
};

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) {
      throw std::invalid_argument("missing value for " + key);
    }
    const std::string value = argv[++i];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--phase") {
      args.phase = value;
    } else if (key == "--fleet-seed") {
      args.fleet_seed = std::stoull(value);
    } else if (key == "--workload-seed") {
      args.workload_seed = std::stoull(value);
    } else if (key == "--users") {
      args.users = static_cast<uint32_t>(std::stoul(value));
    } else if (key == "--steps") {
      args.steps = std::stoul(value);
    } else if (key == "--rate-scale") {
      args.rate_scale = std::stod(value);
    } else if (key == "--setup-reps") {
      args.setup_reps = std::max(1, std::stoi(value));
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else if (key == "--store") {
      args.store_path = value;
    } else if (key == "--trace-out") {
      args.trace_out = value;
    } else if (key == "--run-id") {
      args.run_id = value;
    } else {
      throw std::invalid_argument("unknown argument " + key);
    }
  }
  if (args.users == 0 || args.steps == 0 || !(args.rate_scale > 0.0)) {
    throw std::invalid_argument("--users, --steps and --rate-scale must be positive");
  }
  return args;
}

// The workload's inputs are a function of the arguments alone: DcPreset(1)'s
// tenant mix with the fleet/workload seeds, sizes and volume the caller
// generated.
ebs::SimulationConfig BaseConfig(const Args& args) {
  ebs::SimulationConfig config = ebs::DcPreset(1);
  config.fleet.seed = args.fleet_seed;
  config.fleet.user_count = args.users;
  config.workload.seed = args.workload_seed;
  config.workload.window_steps = args.steps;
  config.workload.rate_scale = args.rate_scale;
  return config;
}

// The mitigation parameters shared by the batch twins and the online sinks.
const ebs::ThrottleConfig kLendingConfig{.cap_scale = 0.25};
constexpr size_t kWtCovWindowSteps = 30;
constexpr uint64_t kCacheBytes = 16ull << 20;

// ---------------------------------------------------------------------------
// Checks: FNV-1a over the exact bits of every output, one 64-bit word per
// round (the rollups hold tens of millions of doubles).
// ---------------------------------------------------------------------------

class Fnv {
 public:
  void Mix(uint64_t value) {
    hash_ ^= value;
    hash_ *= 0x100000001b3ull;
  }
  void Mix(double value) {
    uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof(bits));
    Mix(bits);
  }
  void Mix(std::span<const double> values) {
    Mix(static_cast<uint64_t>(values.size()));
    for (double v : values) {
      Mix(v);
    }
  }
  void Mix(const std::vector<ebs::RwSeries>& series) {
    Mix(static_cast<uint64_t>(series.size()));
    for (const ebs::RwSeries& s : series) {
      Mix(s.read_bytes.values());
      Mix(s.write_bytes.values());
      Mix(s.read_ops.values());
      Mix(s.write_ops.values());
    }
  }
  void Mix(const ebs::LevelSkewness& skew) {
    for (const ebs::RwPair* pair : {&skew.ccr1, &skew.ccr20, &skew.p2a50}) {
      Mix((*pair)[0]);
      Mix((*pair)[1]);
    }
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ull;
};

std::string Hex(uint64_t value) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(value));
  return buf;
}

template <typename T>
uint64_t Checksum(const T& value) {
  Fnv fnv;
  fnv.Mix(value);
  return fnv.value();
}

// ---------------------------------------------------------------------------
// Spans: kept in memory, written as Chrome trace-event JSON at exit.
// ---------------------------------------------------------------------------

struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;
  // Aggregate children stand for time a layer spent inside the parent in
  // many short calls (a wrapped sink, an obs timer total). They carry a busy
  // time, not an interval; start_ns is the parent's start for display only.
  bool aggregate = false;
  int64_t busy_ns = 0;
};

class Tracer {
 public:
  Tracer(bool enabled, std::string run_id) : enabled_(enabled), run_id_(std::move(run_id)) {}

  bool enabled() const { return enabled_; }

  int Begin(std::string name) {
    if (!enabled_) {
      return -1;
    }
    spans_.push_back({std::move(name), NowNs(), 0, stack_.empty() ? -1 : stack_.back()});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }

  void End(int id) {
    if (id < 0) {
      return;
    }
    spans_[static_cast<size_t>(id)].end_ns = NowNs();
    if (!stack_.empty() && stack_.back() == id) {
      stack_.pop_back();
    }
  }

  // Adds busy time measured elsewhere as a child of `parent`.
  void AddAggregate(int parent, std::string name, double seconds) {
    if (parent < 0) {
      return;
    }
    Span span;
    span.name = std::move(name);
    span.parent = parent;
    span.aggregate = true;
    span.busy_ns = static_cast<int64_t>(seconds * 1e9);
    span.start_ns = spans_[static_cast<size_t>(parent)].start_ns;
    span.end_ns = span.start_ns + span.busy_ns;
    spans_.push_back(std::move(span));
  }

  double DurationSeconds(int id) const {
    if (id < 0) {
      return 0.0;
    }
    const Span& s = spans_[static_cast<size_t>(id)];
    return Seconds(s.aggregate ? s.busy_ns : s.end_ns - s.start_ns);
  }

  // The span's duration minus what its children cover. Interval children are
  // merged as a union; aggregate children are serial on the span's thread and
  // subtract their busy time.
  double SelfSeconds(int id) const {
    if (id < 0) {
      return 0.0;
    }
    const Span& span = spans_[static_cast<size_t>(id)];
    if (span.aggregate) {
      return Seconds(span.busy_ns);
    }
    std::vector<std::pair<int64_t, int64_t>> intervals;
    int64_t busy = 0;
    for (const Span& child : spans_) {
      if (&child == &span || child.parent != id) {
        continue;
      }
      if (child.aggregate) {
        busy += child.busy_ns;
      } else {
        intervals.emplace_back(std::max(child.start_ns, span.start_ns),
                               std::min(child.end_ns, span.end_ns));
      }
    }
    std::sort(intervals.begin(), intervals.end());
    int64_t covered = 0;
    int64_t cursor = span.start_ns;
    for (const auto& [begin, end] : intervals) {
      const int64_t from = std::max(begin, cursor);
      if (end > from) {
        covered += end - from;
        cursor = end;
      }
    }
    return Seconds(span.end_ns - span.start_ns - covered - busy);
  }

  bool WriteChromeTrace(const std::string& path) const {
    if (!enabled_ || path.empty()) {
      return true;
    }
    const int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
    std::ostringstream out;
    out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char line[512];
      std::snprintf(line, sizeof(line),
                    "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,"
                    "\"dur\":%.3f,\"args\":{\"run_id\":\"%s\",\"parent\":\"%s\","
                    "\"self_s\":%.9f}}",
                    i == 0 ? "" : ",", s.name.c_str(), s.aggregate ? 2 : 1,
                    static_cast<double>(s.start_ns - origin) / 1e3,
                    static_cast<double>(s.end_ns - s.start_ns) / 1e3, run_id_.c_str(),
                    s.parent < 0 ? "" : spans_[static_cast<size_t>(s.parent)].name.c_str(),
                    SelfSeconds(static_cast<int>(i)));
      out << line;
    }
    out << "]}\n";
    std::ofstream file(path);
    file << out.str();
    file.close();
    return static_cast<bool>(file);
  }

 private:
  bool enabled_;
  std::string run_id_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, std::string name)
      : tracer_(tracer), id_(tracer->Begin(std::move(name))) {}
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  ~ScopedSpan() { End(); }

  void End() {
    if (!ended_) {
      tracer_->End(id_);
      ended_ = true;
    }
  }
  int id() const { return id_; }

 private:
  Tracer* tracer_;
  int id_;
  bool ended_ = false;
};

// ---------------------------------------------------------------------------
// Sink decorators registered by the benchmark (traced runs only).
// ---------------------------------------------------------------------------

// Forwards every callback to `inner` and accumulates the time spent in it.
class TimedSink : public ebs::ReplaySink {
 public:
  explicit TimedSink(ebs::ReplaySink* inner) : inner_(inner) {}

  void OnStart(const ebs::Fleet& fleet, size_t window_steps, double step_seconds) override {
    const int64_t t0 = NowNs();
    inner_->OnStart(fleet, window_steps, step_seconds);
    start_ns_ += NowNs() - t0;
  }
  void OnEvent(const ebs::ReplayEvent& event) override {
    const int64_t t0 = NowNs();
    inner_->OnEvent(event);
    busy_ns_ += NowNs() - t0;
  }
  void OnStepComplete(const ebs::ReplayStepView& view) override {
    const int64_t t0 = NowNs();
    inner_->OnStepComplete(view);
    busy_ns_ += NowNs() - t0;
  }
  void OnFinish() override {
    const int64_t t0 = NowNs();
    inner_->OnFinish();
    busy_ns_ += NowNs() - t0;
  }

  // Time inside the wrapped sink, OnStart included.
  double busy_s() const { return Seconds(start_ns_ + busy_ns_); }
  double start_s() const { return Seconds(start_ns_); }

 private:
  ebs::ReplaySink* inner_;
  int64_t start_ns_ = 0;
  int64_t busy_ns_ = 0;
};

// Registered last: timestamps the chain's start, every step boundary and the
// finish, which gives the per-step merge cadence and the engine's start-up.
class StepProbeSink : public ebs::ReplaySink {
 public:
  void OnStart(const ebs::Fleet&, size_t window_steps, double) override {
    start_ns_ = NowNs();
    steps_ns_.reserve(window_steps);
  }
  void OnStepComplete(const ebs::ReplayStepView&) override { steps_ns_.push_back(NowNs()); }
  void OnFinish() override { finish_ns_ = NowNs(); }

  int64_t start_ns() const { return start_ns_; }
  int64_t finish_ns() const { return finish_ns_; }
  // Gaps between consecutive step boundaries (the first from OnStart), ms.
  std::vector<double> StepGapsMs() const {
    std::vector<double> gaps;
    int64_t previous = start_ns_;
    for (int64_t t : steps_ns_) {
      gaps.push_back(static_cast<double>(t - previous) / 1e6);
      previous = t;
    }
    return gaps;
  }

 private:
  int64_t start_ns_ = 0;
  int64_t finish_ns_ = 0;
  std::vector<int64_t> steps_ns_;
};

// Nearest-rank percentile.
double Percentile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  return values[static_cast<size_t>(rank + 0.5)];
}

// ---------------------------------------------------------------------------
// Process measurements.
// ---------------------------------------------------------------------------

struct Usage {
  double user_s = 0.0;
  double sys_s = 0.0;
  uint64_t minor_faults = 0;
};

Usage ReadUsage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Usage u;
  u.user_s = static_cast<double>(ru.ru_utime.tv_sec) + static_cast<double>(ru.ru_utime.tv_usec) * 1e-6;
  u.sys_s = static_cast<double>(ru.ru_stime.tv_sec) + static_cast<double>(ru.ru_stime.tv_usec) * 1e-6;
  u.minor_faults = static_cast<uint64_t>(ru.ru_minflt);
  return u;
}

double PeakRssMiB() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  return 0.0;
}

uint64_t FileBytes(const std::string& path) {
  std::ifstream file(path, std::ios::binary | std::ios::ate);
  return file ? static_cast<uint64_t>(file.tellg()) : 0;
}

// ---------------------------------------------------------------------------
// Obs registry totals.
// ---------------------------------------------------------------------------

class ObsTotals {
 public:
  ObsTotals() {
    for (const ebs::obs::MetricSnapshot& m : ebs::obs::MetricRegistry::Global().Snapshot().metrics) {
      metrics_.emplace(m.name, m);
    }
  }
  // Sum of a timer in seconds; nullopt when the program has no such timer or
  // it recorded nothing.
  std::optional<double> TimerSeconds(const std::string& name) const {
    const auto it = metrics_.find(name);
    if (it == metrics_.end() || it->second.count == 0) {
      return std::nullopt;
    }
    return it->second.sum * 1e-9;
  }
  std::optional<double> TimerMeanSeconds(const std::string& name) const {
    const auto it = metrics_.find(name);
    if (it == metrics_.end() || it->second.count == 0) {
      return std::nullopt;
    }
    return it->second.mean * 1e-9;
  }
  // Sum over every timer named <prefix>*<suffix> (e.g. all shards).
  std::optional<double> SumSeconds(const std::string& prefix, const std::string& suffix) const {
    std::optional<double> total;
    for (const auto& [name, m] : metrics_) {
      if (name.rfind(prefix, 0) == 0 && name.size() >= suffix.size() &&
          name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0 && m.count > 0) {
        total = total.value_or(0.0) + m.sum * 1e-9;
      }
    }
    return total;
  }

 private:
  std::map<std::string, ebs::obs::MetricSnapshot> metrics_;
};

void ResetObs(bool enabled) {
  ebs::obs::MetricRegistry& registry = ebs::obs::MetricRegistry::Global();
  registry.set_enabled(enabled);
  registry.Reset();
}

// ---------------------------------------------------------------------------
// Result of one repetition.
// ---------------------------------------------------------------------------

struct Result {
  std::vector<double> setup_s;
  double run_s = 0.0;
  double peak_rss_mb = 0.0;
  std::vector<std::pair<std::string, std::string>> checks;
  // Per-layer values; a missing obs timer is listed in `absent` instead.
  std::vector<std::pair<std::string, double>> layers;
  std::vector<std::string> absent;
  // Self-time rows that account for the traced timed pass.
  std::vector<std::pair<std::string, double>> accounting;
  // Finer rows inside one accounting row (printed, not summed).
  std::vector<std::pair<std::string, double>> detail;

  void Check(const std::string& name, uint64_t value) { checks.emplace_back(name, Hex(value)); }
  void Layer(const std::string& name, double value) { layers.emplace_back(name, value); }
  void Layer(const std::string& name, std::optional<double> value) {
    if (value.has_value()) {
      layers.emplace_back(name, *value);
    } else {
      absent.push_back(name);
    }
  }
};

// The root span's self time: what no layer row accounts for.
void AddUnattributed(const Tracer* tracer, int root, Result* result) {
  result->accounting.emplace_back("run.unattributed_s", tracer->SelfSeconds(root));
  result->Layer("run.unattributed_s", tracer->SelfSeconds(root));
  result->Layer("run.traced_s", tracer->DurationSeconds(root));
}

void AddProcessLayers(Result* result, const Usage& before, const Usage& after) {
  result->Layer("process.cpu_s", (after.user_s + after.sys_s) - (before.user_s + before.sys_s));
  result->Layer("process.sys_s", after.sys_s - before.sys_s);
  result->Layer("process.minor_faults", static_cast<double>(after.minor_faults - before.minor_faults));
}

// The seven entity rollups plus SegSeries of a finished streaming run, each
// with its level skewness: the read-out every streaming workload ends with.
struct RollupPass {
  int read_span = -1;
  int analysis_span = -1;
  std::vector<const std::vector<ebs::RwSeries>*> rollups;
  std::vector<ebs::LevelSkewness> skews;
};

RollupPass ReadRollups(Tracer* tracer, const ebs::StreamingSimulation& sim) {
  RollupPass pass;
  ScopedSpan read(tracer, "trace.rollup_read");
  pass.rollups = {&sim.VdSeries(), &sim.VmSeries(), &sim.UserSeries(), &sim.WtSeries(),
                  &sim.CnSeries(), &sim.BsSeries(), &sim.SnSeries(), &sim.SegSeries()};
  read.End();
  ScopedSpan analysis(tracer, "analysis.skewness");
  for (const std::vector<ebs::RwSeries>* series : pass.rollups) {
    pass.skews.push_back(ebs::ComputeLevelSkewness(*series));
  }
  analysis.End();
  pass.read_span = read.id();
  pass.analysis_span = analysis.id();
  return pass;
}

// Checks of a RollupPass; called after the clock stopped.
void CheckRollups(const RollupPass& pass, Result* result) {
  Fnv rollup_fp;
  Fnv skew_fp;
  for (size_t i = 0; i < pass.rollups.size(); ++i) {
    rollup_fp.Mix(*pass.rollups[i]);
    skew_fp.Mix(pass.skews[i]);
  }
  result->Check("rollup_fp", rollup_fp.value());
  result->Check("skew_fp", skew_fp.value());
}

void AccountRollups(const Tracer* tracer, const RollupPass& pass, Result* result) {
  result->Layer("trace.rollup_read_s", tracer->DurationSeconds(pass.read_span));
  result->Layer("analysis.skewness_s", tracer->DurationSeconds(pass.analysis_span));
  result->accounting.emplace_back("trace.rollup_read_s", tracer->SelfSeconds(pass.read_span));
  result->accounting.emplace_back("analysis.skewness_s", tracer->SelfSeconds(pass.analysis_span));
}

// Adds the replay-engine rows of a streaming Run() span: the wrapped sinks,
// the engine's start-up the probe saw, and obs totals for the merge thread's
// queue wait, the rollup fold and finalize, each as an aggregate child of the
// span and as an accounting row. Producer-side totals are reported too; they
// run on the generator threads, so they explain the waits, not the span.
void AccountStreamingRun(Tracer* tracer, int run_span, const StepProbeSink& probe,
                         int64_t run_start_ns,
                         const std::vector<std::pair<std::string, const TimedSink*>>& sinks,
                         Result* result) {
  const ObsTotals obs;
  double sink_start_s = 0.0;
  for (const auto& [name, sink] : sinks) {
    tracer->AddAggregate(run_span, name, sink->busy_s());
    result->accounting.emplace_back(name, sink->busy_s());
    sink_start_s += sink->start_s();
  }
  // Start-up: source preparation and shard init until the chain's OnStart,
  // less the wrapped sinks' own OnStart time (already counted above).
  const double startup_s = Seconds(probe.start_ns() - run_start_ns) - sink_start_s;
  tracer->AddAggregate(run_span, "replay.startup_s", startup_s);
  result->accounting.emplace_back("replay.startup_s", startup_s);
  result->Layer("replay.startup_s", startup_s);
  const std::pair<const char*, const char*> obs_rows[] = {
      {"replay.queue_pop_wait_s", "replay.queue.pop_wait"},
      {"trace.rollup_fold_s", "sink.rollup.fold_step"},
      {"core.streaming_finalize_s", "core.streaming_finalize"},
  };
  for (const auto& [row, timer] : obs_rows) {
    const std::optional<double> seconds = obs.TimerSeconds(timer);
    result->Layer(row, seconds);
    if (seconds.has_value()) {
      tracer->AddAggregate(run_span, row, *seconds);
      result->accounting.emplace_back(row, *seconds);
    }
  }
  result->accounting.emplace_back("replay.merge_self_s", tracer->SelfSeconds(run_span));
  result->Layer("replay.merge_self_s", tracer->SelfSeconds(run_span));
  result->Layer("replay.queue_push_wait_s", obs.TimerSeconds("replay.queue.push_wait"));
  result->Layer("replay.shard_generate_s", obs.SumSeconds("replay.shard", ".generate_step"));
  result->Layer("replay.shard_init_s", obs.SumSeconds("replay.shard", ".init"));
  const std::vector<double> gaps = probe.StepGapsMs();
  result->Layer("replay.step_ms_p50", Percentile(gaps, 0.50));
  // The highest percentile with at least ten samples beyond it.
  const double beyond = gaps.empty() ? 0.0 : 10.0 / static_cast<double>(gaps.size());
  result->Layer("replay.step_ms_p98", Percentile(gaps, std::max(0.5, 1.0 - std::max(0.02, beyond))));
}

// ---------------------------------------------------------------------------
// stream_rollup
// ---------------------------------------------------------------------------

Result RunStreamRollup(const Args& args, Tracer* tracer) {
  Result result;
  const ebs::SimulationConfig config = BaseConfig(args);
  const ebs::ReplayOptions options{.worker_threads = 2};

  ResetObs(tracer->enabled());
  std::unique_ptr<ebs::StreamingSimulation> sim;
  {
    ScopedSpan setup(tracer, "setup");
    for (int i = 0; i < args.setup_reps; ++i) {
      sim.reset();
      const int64_t t0 = NowNs();
      sim = std::make_unique<ebs::StreamingSimulation>(config, options);
      result.setup_s.push_back(Seconds(NowNs() - t0));
    }
  }
  if (tracer->enabled()) {
    result.Layer("topology.build_fleet_s", ObsTotals().TimerMeanSeconds("core.build_fleet"));
    ResetObs(true);
  }

  StepProbeSink probe;
  if (tracer->enabled()) {
    sim->AddSink(&probe);
  }
  const Usage usage_before = ReadUsage();
  const int64_t t0 = NowNs();
  ScopedSpan root(tracer, "run");
  ScopedSpan run(tracer, "core.streaming_run");
  sim->Run();
  run.End();
  const RollupPass rollups = ReadRollups(tracer, *sim);
  root.End();
  result.run_s = Seconds(NowNs() - t0);
  const Usage usage_after = ReadUsage();

  const uint64_t events = sim->stats().events;
  result.Check("events", events);
  result.Check("trace_fp", ebs::AggregateFingerprint(sim->traces()));
  CheckRollups(rollups, &result);

  if (tracer->enabled()) {
    AccountStreamingRun(tracer, run.id(), probe, t0, {}, &result);
    result.Layer("replay.events", static_cast<double>(events));
    AddProcessLayers(&result, usage_before, usage_after);
    AccountRollups(tracer, rollups, &result);
    AddUnattributed(tracer, root.id(), &result);
  }
  return result;
}

// ---------------------------------------------------------------------------
// batch_tail_control
// ---------------------------------------------------------------------------

struct TailOutputs {
  uint64_t events = 0;
  uint64_t qmodel_fp = 0;
  uint64_t decisions_fp = 0;
  uint64_t decisions = 0;
  double p99_us = 0.0;
  std::vector<ebs::RwSeries> vm;
  std::vector<ebs::RwSeries> bs;
  std::vector<ebs::AppSkewness> app_skew;
  std::vector<double> lending;
  std::vector<double> wt_cov;
};

// The analyses of the timed pass over the batch datasets.
void RunTailAnalyses(Tracer* tracer, const ebs::Fleet& fleet, const ebs::WorkloadResult& workload,
                     TailOutputs* out, Result* result) {
  ScopedSpan skew(tracer, "analysis.skewness");
  out->app_skew = ebs::ComputeAppSkewness(fleet, out->vm);
  skew.End();
  ScopedSpan lending(tracer, "throttle.simulate_lending");
  out->lending = ebs::SimulateLending(fleet, workload.offered_vd, ebs::MultiVdVmGroups(fleet),
                                      kLendingConfig);
  lending.End();
  ScopedSpan wt_cov(tracer, "hypervisor.wt_cov_samples");
  out->wt_cov = ebs::WtCovSamples(fleet, workload.metrics, ebs::OpType::kWrite, kWtCovWindowSteps);
  wt_cov.End();
  if (tracer->enabled()) {
    result->Layer("analysis.skewness_s", tracer->DurationSeconds(skew.id()));
    result->Layer("throttle.simulate_lending_s", tracer->DurationSeconds(lending.id()));
    result->Layer("hypervisor.wt_cov_samples_s", tracer->DurationSeconds(wt_cov.id()));
    result->accounting.emplace_back("analysis.skewness_s", tracer->SelfSeconds(skew.id()));
    result->accounting.emplace_back("throttle.simulate_lending_s", tracer->SelfSeconds(lending.id()));
    result->accounting.emplace_back("hypervisor.wt_cov_samples_s", tracer->SelfSeconds(wt_cov.id()));
  }
}

Result RunBatchTailControl(const Args& args, Tracer* tracer) {
  Result result;
  ResetObs(tracer->enabled());
  ebs::SimulationConfig config;
  ebs::Fleet fleet;
  std::vector<double> scenario_s;
  std::vector<double> fleet_s;
  {
    ScopedSpan setup(tracer, "setup");
    for (int i = 0; i < args.setup_reps; ++i) {
      const int64_t t0 = NowNs();
      config = BaseConfig(args);
      config.queueing.enabled = true;
      const int64_t t1 = NowNs();
      config.workload.scenario = ebs::scenario::DiurnalBurstScenario(
          config.workload.window_steps, config.fleet.user_count);
      const int64_t t2 = NowNs();
      config.control.enabled = true;
      config.control.period_steps = 10;
      config.control.exporter_threshold = 1.1;
      config.control.max_migrations_per_period = 32;
      fleet = ebs::BuildFleet(config.fleet);
      const int64_t t3 = NowNs();
      result.setup_s.push_back(Seconds(t3 - t0));
      scenario_s.push_back(Seconds(t2 - t1));
      fleet_s.push_back(Seconds(t3 - t2));
    }
  }
  if (tracer->enabled()) {
    result.Layer("scenario.build_s", Percentile(scenario_s, 0.5));
    result.Layer("topology.build_fleet_s", Percentile(fleet_s, 0.5));
    ResetObs(true);
  }

  TailOutputs out;
  const Usage usage_before = ReadUsage();
  const int64_t t0 = NowNs();
  ScopedSpan root(tracer, "run");
  if (!tracer->enabled()) {
    // The public facade: generation, the qmodel + control sink chain and the
    // rollup caches, exactly as a user calls them.
    const ebs::EbsSimulation sim(config);
    out.vm = sim.VmSeries();
    out.bs = sim.BsSeries();
    RunTailAnalyses(tracer, sim.fleet(), sim.workload(), &out, &result);
    out.p99_us = sim.queue_result()->total_us.Percentile(0.99);
    result.run_s = Seconds(NowNs() - t0);
    out.events = sim.traces().records.size();
    out.qmodel_fp = sim.queue_result()->Fingerprint();
    out.decisions_fp = sim.control_log()->Fingerprint();
    out.decisions = sim.control_log()->size();
  } else {
    // The same constructor decomposed into its public steps (the fleet is the
    // set-up's, built from the same config), each under its own span.
    ScopedSpan generate(tracer, "workload.generate");
    const ebs::WorkloadResult workload = ebs::WorkloadGenerator(fleet, config.workload).Generate();
    generate.End();
    ebs::qmodel::QueueModelSink qmodel(config.queueing, config.workload.sampling_rate);
    ebs::control::ControlPlane plane(fleet, config.control, &qmodel);
    TimedSink timed_qmodel(&qmodel);
    std::vector<std::unique_ptr<TimedSink>> timed_control;
    std::vector<ebs::ReplaySink*> chain = {&timed_qmodel};
    for (ebs::ReplaySink* sink : plane.Sinks()) {
      timed_control.push_back(std::make_unique<TimedSink>(sink));
      chain.push_back(timed_control.back().get());
    }
    ScopedSpan drive(tracer, "core.drive_sinks");
    ebs::DriveSinksOverResult(fleet, workload, config.workload.window_steps,
                              config.workload.step_seconds, chain);
    drive.End();
    // ControlPlane::Sinks() order: lending, cache, wt-cov, control loop.
    const char* const kControlSinkNames[] = {"control.lending", "control.cache", "control.wt_cov",
                                             "control.loop"};
    double control_s = 0.0;
    for (size_t i = 0; i < timed_control.size(); ++i) {
      control_s += timed_control[i]->busy_s();
      result.detail.emplace_back(
          std::string(i < 4 ? kControlSinkNames[i] : "control.sink") + "_s",
          timed_control[i]->busy_s());
    }
    tracer->AddAggregate(drive.id(), "qmodel.sink", timed_qmodel.busy_s());
    tracer->AddAggregate(drive.id(), "control.sinks", control_s);
    ScopedSpan read(tracer, "trace.rollup_read");
    out.vm = ebs::RollupToVm(fleet, workload.metrics);
    out.bs = ebs::RollupToBlockServer(fleet, workload.metrics);
    read.End();
    RunTailAnalyses(tracer, fleet, workload, &out, &result);
    out.p99_us = qmodel.result().total_us.Percentile(0.99);
    root.End();
    result.run_s = Seconds(NowNs() - t0);
    out.events = workload.traces.records.size();
    out.qmodel_fp = qmodel.result().Fingerprint();
    out.decisions_fp = plane.log().Fingerprint();
    out.decisions = plane.log().size();

    result.Layer("workload.generate_s", tracer->DurationSeconds(generate.id()));
    result.Layer("workload.records", static_cast<double>(out.events));
    result.Layer("core.drive_sinks_self_s", tracer->SelfSeconds(drive.id()));
    result.Layer("qmodel.sink_s", timed_qmodel.busy_s());
    result.Layer("qmodel.events", static_cast<double>(qmodel.result().events));
    result.Layer("control.sinks_s", control_s);
    result.Layer("control.decisions", static_cast<double>(out.decisions));
    result.Layer("trace.rollup_read_s", tracer->DurationSeconds(read.id()));
    result.accounting.emplace_back("workload.generate_s", tracer->SelfSeconds(generate.id()));
    result.accounting.emplace_back("core.drive_sinks_self_s", tracer->SelfSeconds(drive.id()));
    result.accounting.emplace_back("qmodel.sink_s", timed_qmodel.busy_s());
    result.accounting.emplace_back("control.sinks_s", control_s);
    result.accounting.emplace_back("trace.rollup_read_s", tracer->SelfSeconds(read.id()));
    AddUnattributed(tracer, root.id(), &result);
  }
  root.End();
  const Usage usage_after = ReadUsage();

  result.Check("events", out.events);
  result.Check("qmodel_fp", out.qmodel_fp);
  result.Check("decisions_fp", out.decisions_fp);
  result.Check("decisions", out.decisions);
  Fnv rollup_fp;
  rollup_fp.Mix(out.vm);
  rollup_fp.Mix(out.bs);
  result.Check("rollup_fp", rollup_fp.value());
  Fnv app_fp;
  for (const ebs::AppSkewness& app : out.app_skew) {
    app_fp.Mix(static_cast<uint64_t>(app.app));
    for (const ebs::RwPair* pair : {&app.ccr1, &app.ccr20, &app.traffic_share}) {
      app_fp.Mix((*pair)[0]);
      app_fp.Mix((*pair)[1]);
    }
  }
  result.Check("app_skew_fp", app_fp.value());
  result.Check("lending_fp", Checksum(std::span<const double>(out.lending)));
  result.Check("wt_cov_fp", Checksum(std::span<const double>(out.wt_cov)));
  result.Check("p99_us", Checksum(out.p99_us));
  if (tracer->enabled()) {
    AddProcessLayers(&result, usage_before, usage_after);
  }
  return result;
}

// ---------------------------------------------------------------------------
// store_mitigate
// ---------------------------------------------------------------------------

// Set-up: record the window into an EBST store at export precision.
Result RecordStore(const Args& args, Tracer* tracer) {
  if (args.store_path.empty()) {
    throw std::invalid_argument("--store is required");
  }
  Result result;
  const ebs::SimulationConfig config = BaseConfig(args);
  ResetObs(tracer->enabled());
  const int64_t t0 = NowNs();
  ScopedSpan setup(tracer, "setup");
  ScopedSpan construct(tracer, "core.streaming_construct");
  ebs::StreamingSimulation sim(config, {.worker_threads = 2});
  construct.End();
  ebs::StoreWriterSink writer(args.store_path, config.workload.sampling_rate,
                              {.precision = ebs::StorePrecision::kExport});
  TimedSink timed_writer(&writer);
  StepProbeSink probe;
  if (tracer->enabled()) {
    sim.AddSink(&timed_writer);
    sim.AddSink(&probe);
  } else {
    sim.AddSink(&writer);
  }
  ScopedSpan run(tracer, "core.streaming_run");
  const int64_t run_start = NowNs();
  sim.Run();
  run.End();
  ScopedSpan finish(tracer, "store.finish");
  const bool finished = sim.workload().traces.records.size() == sim.stats().events &&
                        writer.Finish(sim.workload());
  finish.End();
  setup.End();
  result.setup_s.push_back(Seconds(NowNs() - t0));
  if (!finished) {
    throw std::runtime_error("StoreWriterSink::Finish failed for " + args.store_path);
  }
  const uint64_t bytes = FileBytes(args.store_path);
  result.Check("events", sim.stats().events);
  result.Check("trace_fp", ebs::AggregateFingerprint(sim.traces()));
  // The live rollups, which the replay must reproduce exactly.
  Tracer untraced(false, args.run_id);
  CheckRollups(ReadRollups(&untraced, sim), &result);
  if (tracer->enabled()) {
    const ObsTotals obs;
    result.Layer("store.append_s", timed_writer.busy_s());
    result.Layer("store.finish_s", tracer->DurationSeconds(finish.id()));
    result.Layer("store.bytes", static_cast<double>(bytes));
    result.Layer("store.bytes_per_event",
                 static_cast<double>(bytes) / static_cast<double>(std::max<uint64_t>(1, sim.stats().events)));
    result.Layer("topology.build_fleet_s", obs.TimerSeconds("core.build_fleet"));
    // The record phase's own accounting (set-up, not the timed pass); its
    // rows are prefixed so they never mix with the replay's.
    Result setup_rows;
    setup_rows.accounting.emplace_back("core.streaming_construct_s",
                                       tracer->SelfSeconds(construct.id()));
    AccountStreamingRun(tracer, run.id(), probe, run_start, {{"store.append_s", &timed_writer}},
                        &setup_rows);
    setup_rows.accounting.emplace_back("store.finish_s", tracer->SelfSeconds(finish.id()));
    setup_rows.accounting.emplace_back("unattributed_s", tracer->SelfSeconds(setup.id()));
    for (const auto& [name, value] : setup_rows.layers) {
      result.Layer("setup." + name, value);
    }
    for (const auto& [name, value] : setup_rows.accounting) {
      result.accounting.emplace_back("setup." + name, value);
    }
  }
  return result;
}

// Timed pass: replay the store through the three online mitigation sinks.
Result ReplayStore(const Args& args, Tracer* tracer) {
  if (args.store_path.empty()) {
    throw std::invalid_argument("--store is required");
  }
  Result result;
  const ebs::SimulationConfig config = BaseConfig(args);
  ResetObs(tracer->enabled());

  const Usage usage_before = ReadUsage();
  const int64_t t0 = NowNs();
  ScopedSpan root(tracer, "run");
  ScopedSpan construct(tracer, "store.open");
  ebs::StreamingSimulation sim(args.store_path, config);
  construct.End();
  ebs::OnlineLendingSink lending(ebs::MultiVdVmGroups(sim.fleet()), kLendingConfig);
  ebs::OnlineWtCovSink wt_cov(ebs::OpType::kWrite, kWtCovWindowSteps);
  ebs::OnlineCacheSink cache(ebs::CachePolicy::kLru, kCacheBytes);
  TimedSink timed_lending(&lending);
  TimedSink timed_wt_cov(&wt_cov);
  TimedSink timed_cache(&cache);
  StepProbeSink probe;
  if (tracer->enabled()) {
    sim.AddSink(&timed_lending);
    sim.AddSink(&timed_wt_cov);
    sim.AddSink(&timed_cache);
    sim.AddSink(&probe);
  } else {
    sim.AddSink(&lending);
    sim.AddSink(&wt_cov);
    sim.AddSink(&cache);
  }
  ScopedSpan run(tracer, "core.streaming_run");
  const int64_t run_start = NowNs();
  sim.Run();
  run.End();
  const RollupPass rollups = ReadRollups(tracer, sim);
  const uint64_t hits = cache.total_page_hits();
  const uint64_t accesses = cache.total_page_accesses();
  root.End();
  result.run_s = Seconds(NowNs() - t0);
  const Usage usage_after = ReadUsage();

  const uint64_t events = sim.stats().events;
  result.Check("events", events);
  result.Check("trace_fp", ebs::AggregateFingerprint(sim.traces()));
  result.Check("lending_fp", Checksum(std::span<const double>(lending.gains())));
  result.Check("wt_cov_fp", Checksum(std::span<const double>(wt_cov.samples())));
  result.Check("cache_hits", hits);
  result.Check("cache_accesses", accesses);
  CheckRollups(rollups, &result);

  if (tracer->enabled()) {
    AccountStreamingRun(tracer, run.id(), probe, run_start,
                        {{"throttle.lending_sink_s", &timed_lending},
                         {"hypervisor.wt_cov_sink_s", &timed_wt_cov},
                         {"cache.sink_s", &timed_cache}},
                        &result);
    const ObsTotals obs;
    result.Layer("store.decode_s", obs.TimerSeconds("replay.store.decode_chunk").value_or(0.0) +
                                       tracer->DurationSeconds(construct.id()));
    result.Layer("throttle.lending_sink_s", timed_lending.busy_s());
    result.Layer("hypervisor.wt_cov_sink_s", timed_wt_cov.busy_s());
    result.Layer("cache.sink_s", timed_cache.busy_s());
    result.Layer("cache.page_accesses", static_cast<double>(accesses));
    result.Layer("cache.hit_ratio",
                 accesses == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(accesses));
    result.Layer("replay.events", static_cast<double>(events));
    AddProcessLayers(&result, usage_before, usage_after);
    result.accounting.emplace_back("store.open_s", tracer->SelfSeconds(construct.id()));
    AccountRollups(tracer, rollups, &result);
    AddUnattributed(tracer, root.id(), &result);
  }
  return result;
}

// Input sizing, not a measurement: the sampled event count of the config, so
// the caller can scale the volume of a seed to a stated input size.
Result Calibrate(const Args& args) {
  Result result;
  const ebs::SimulationConfig config = BaseConfig(args);
  const ebs::Fleet fleet = ebs::BuildFleet(config.fleet);
  const ebs::WorkloadResult workload = ebs::WorkloadGenerator(fleet, config.workload).Generate();
  uint64_t pages = 0;
  for (const ebs::TraceRecord& record : workload.traces.records) {
    pages += (record.size_bytes + 4095) / 4096;
  }
  result.Check("events", workload.traces.records.size());
  result.Check("pages", pages);
  return result;
}

// ---------------------------------------------------------------------------
// Output.
// ---------------------------------------------------------------------------

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string Num(double value) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.9g", value);
  return buf;
}

void PrintResult(const Args& args, const Result& r) {
  std::string json = "{\"ok\":true,\"workload\":" + JsonString(args.workload) +
                     ",\"phase\":" + JsonString(args.phase) + ",\"setup_s\":[";
  for (size_t i = 0; i < r.setup_s.size(); ++i) {
    json += (i ? "," : "") + Num(r.setup_s[i]);
  }
  json += "],\"run_s\":" + Num(r.run_s) + ",\"peak_rss_mb\":" + Num(r.peak_rss_mb) + ",\"checks\":{";
  for (size_t i = 0; i < r.checks.size(); ++i) {
    json += (i ? "," : "") + JsonString(r.checks[i].first) + ":" + JsonString(r.checks[i].second);
  }
  json += "},\"layers\":{";
  for (size_t i = 0; i < r.layers.size(); ++i) {
    json += (i ? "," : "") + JsonString(r.layers[i].first) + ":" + Num(r.layers[i].second);
  }
  json += "},\"absent\":[";
  for (size_t i = 0; i < r.absent.size(); ++i) {
    json += (i ? "," : "") + JsonString(r.absent[i]);
  }
  json += "],\"accounting\":[";
  for (size_t i = 0; i < r.accounting.size(); ++i) {
    json += std::string(i ? "," : "") + "[" + JsonString(r.accounting[i].first) + "," +
            Num(r.accounting[i].second) + "]";
  }
  json += "],\"detail\":[";
  for (size_t i = 0; i < r.detail.size(); ++i) {
    json += std::string(i ? "," : "") + "[" + JsonString(r.detail[i].first) + "," +
            Num(r.detail[i].second) + "]";
  }
  json += "]}";
  std::printf("%s\n", json.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  try {
    args = ParseArgs(argc, argv);
    Tracer tracer(args.trace, args.run_id);
    Result result;
    if (args.workload == "stream_rollup" && args.phase == "run") {
      result = RunStreamRollup(args, &tracer);
    } else if (args.workload == "batch_tail_control" && args.phase == "run") {
      result = RunBatchTailControl(args, &tracer);
    } else if (args.workload == "store_mitigate" && args.phase == "record") {
      result = RecordStore(args, &tracer);
    } else if (args.workload == "store_mitigate" && args.phase == "replay") {
      result = ReplayStore(args, &tracer);
    } else if (args.phase == "calibrate") {
      result = Calibrate(args);
    } else {
      throw std::invalid_argument("unknown workload/phase " + args.workload + "/" + args.phase);
    }
    result.peak_rss_mb = PeakRssMiB();
    if (!tracer.WriteChromeTrace(args.trace_out)) {
      throw std::runtime_error("cannot write trace to " + args.trace_out);
    }
    PrintResult(args, result);
    return 0;
  } catch (const std::exception& e) {
    std::printf("{\"ok\":false,\"workload\":%s,\"phase\":%s,\"error\":%s}\n",
                JsonString(args.workload).c_str(), JsonString(args.phase).c_str(),
                JsonString(e.what()).c_str());
    return 1;
  }
}
