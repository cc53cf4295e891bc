// Shared plumbing of the co-simulation ledger: command-line arguments,
// seed streams, sample statistics, the in-memory span recorder used by
// traced runs, and the metric tables the final JSON line is built from.
#pragma once

#include <chrono>
#include <cstdio>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.hpp"

namespace ledger {

using mbcosim::Cycle;
using mbcosim::u64;

struct Args {
  std::string workload;
  u64 seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// Independent input stream `stream` of a run seed (splitmix64 finalizer),
/// so the timed data, the held-back RTL data and the farm data never
/// share a stream.
[[nodiscard]] inline u64 derive_seed(u64 seed, u64 stream) {
  u64 z = seed * 0x9e3779b97f4a7c15ull + stream * 0xbf58476d1ce4e5b9ull +
          0x94d049bb133111ebull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// Input streams of a run seed.
inline constexpr u64 kTimedStream = 1;     ///< timed repetitions
inline constexpr u64 kHeldBackStream = 2;  ///< RTL cross-check only

/// Host seconds on the steady clock.
[[nodiscard]] inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Peak resident set of this process so far, in MiB.
[[nodiscard]] double peak_rss_mb();

/// A list of measurements with order statistics.
class Samples {
 public:
  void add(double value) { values_.push_back(value); }
  [[nodiscard]] std::size_t size() const noexcept { return values_.size(); }
  [[nodiscard]] bool empty() const noexcept { return values_.empty(); }
  /// Linear-interpolated quantile, q in [0, 1]; 0 when empty.
  [[nodiscard]] double quantile(double q) const;
  [[nodiscard]] double median() const { return quantile(0.5); }

 private:
  std::vector<double> values_;
};

/// In-memory span recorder for traced runs. A span is a named interval
/// on the steady clock, tagged with its parent (the span open when it
/// began) and the repetition it belongs to. Spans are only ever opened
/// and closed on one thread, so children never overlap and a span's self
/// time is its duration minus the sum of its direct children's.
class Tracer {
 public:
  struct Span {
    std::string_view name;
    double start = 0.0;
    double end = 0.0;
    int parent = -1;
    int rep = 0;
  };

  int begin(std::string_view name) {
    spans_.push_back(Span{name, now_s(), 0.0,
                          open_.empty() ? -1 : open_.back(), rep_});
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }
  void end(int index) {
    spans_[static_cast<std::size_t>(index)].end = now_s();
    open_.pop_back();
  }

  /// RAII span.
  class Scope {
   public:
    Scope(Tracer& tracer, std::string_view name)
        : tracer_(tracer), index_(tracer.begin(name)) {}
    ~Scope() { tracer_.end(index_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    int index_;
  };

  void set_rep(int rep) noexcept { rep_ = rep; }
  /// Forget every recorded span (between repetitions).
  void clear() {
    spans_.clear();
    open_.clear();
  }
  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }

  /// Summed duration of every span named `name`.
  [[nodiscard]] double total(std::string_view name) const;
  /// Summed self time (duration minus direct children) of spans `name`.
  [[nodiscard]] double self(std::string_view name) const;
  /// Number of spans named `name`.
  [[nodiscard]] std::size_t count(std::string_view name) const;
  /// Durations of every span named `name`.
  [[nodiscard]] Samples durations(std::string_view name) const;

  /// Write the spans as JSON lines ({"name","start","end","parent","rep"},
  /// times in seconds relative to the first span); false on I/O error.
  bool write_jsonl(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
  int rep_ = 0;
};

/// What one run reports: the correctness verdict, operation counts and
/// the metric values by name.
struct Report {
  bool correct = true;
  u64 attempted = 0;
  u64 failed = 0;
  std::map<std::string, double> values;

  void set(const std::string& name, double value) { values[name] = value; }
  /// Count one attempted operation that failed its correctness check.
  void fail(const std::string& why) {
    correct = false;
    ++failed;
    std::fprintf(stderr, "perfbench: FAILED: %s\n", why.c_str());
  }
};

/// Fatal measurement problem (traced and untraced statistics differ,
/// the program under test cannot be set up): no result is printed and
/// the process exits non-zero.
[[noreturn]] void die(const std::string& why);

struct MetricDef {
  const char* name;
  const char* unit;
};

/// End-to-end metrics, measured with tracing off (BENCHMARK.json
/// "end_to_end", same order).
inline constexpr MetricDef kEndToEnd[] = {
    {"mcps", "Mcycles/s"},   {"rep_s_p50", "s"},
    {"setup_s", "s"},        {"sim_cycles", "cycles"},
    {"peak_rss_mb", "MiB"},
};

/// Per-layer metrics, measured by the traced run (BENCHMARK.json
/// "per_layer", same order). A layer a workload does not exercise
/// reports 0.
inline constexpr MetricDef kPerLayer[] = {
    {"iss.self_s", "s"},
    {"iss.ns_per_inst", "ns"},
    {"iss.insts_per_call", "count"},
    {"iss.dbt_share", "ratio"},
    {"core.tick_s", "s"},
    {"core.hw_stepped", "cycles"},
    {"core.hw_skipped", "cycles"},
    {"core.quiesce_ratio", "ratio"},
    {"core.hw_useful_ratio", "ratio"},
    {"sysgen.ns_per_step", "ns"},
    {"sysgen.ns_per_block", "ns"},
    {"sysgen.blocks", "count"},
    {"sysgen.build_ms", "ms"},
    {"fsl.words", "count"},
    {"fsl.refused_writes", "count"},
    {"fsl.stall_cycles", "cycles"},
    {"asm.assemble_ms", "ms"},
    {"sim.build_ms", "ms"},
    {"obs.overhead_x", "x"},
    {"obs.snapshot_ms", "ms"},
    {"obs.metrics_mcps", "Mcycles/s"},
    {"obs.insts_per_call", "count"},
    {"manycore.rounds", "count"},
    {"manycore.link_words", "count"},
    {"manycore.round_us_p50", "us"},
    {"manycore.speedup_w3", "x"},
    {"server.host_over_batch", "x"},
    {"http.create_ms", "ms"},
    {"http.run_ms", "ms"},
    {"http.stats_ms", "ms"},
    {"http.metrics_ms", "ms"},
    {"http.ckpt_ms", "ms"},
    {"http.delete_ms", "ms"},
    {"poll_ms_p50", "ms"},
    {"poll_ms_p90", "ms"},
    {"journal.bytes", "bytes"},
    {"journal.ckpt_records", "count"},
    {"ckpt.image_bytes", "bytes"},
    {"ckpt.snapshot_ms", "ms"},
    {"ckpt.restore_ms", "ms"},
    {"cycle_err_vs_rtl", "cycles"},
    {"cycle_err_vs_unchunked", "cycles"},
    {"failed_frac", "ratio"},
    {"trace.overhead_x", "x"},
};

/// Workload entry points (cordic.cpp, farm.cpp). Each fills `report`;
/// with args.trace the per-layer metrics, otherwise the end-to-end ones.
void run_cordic_workload(const Args& args, Report& report);
void run_farm_workload(const Args& args, Report& report);

}  // namespace ledger
