// MetricsRegistry: the aggregating sink of the observability layer.
// Instead of logging every event it folds them into named counters and
// histograms — FSL occupancy distribution per channel, stall-run
// lengths, OPB wait states — so a design-space sweep can report *why* a
// configuration point is slow (e.g. "FIFO pegged at depth, long stall
// runs") without storing a trace. Snapshots are plain value types that
// can be copied into sweep result rows and compared across points.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "ckpt/ckpt.hpp"
#include "obs/trace_bus.hpp"

namespace mbcosim::obs {

/// Log2-bucketed histogram: bucket i counts values whose bit width is i
/// (value 0 -> bucket 0, 1 -> 1, 2..3 -> 2, 4..7 -> 3, ...). Coarse,
/// but allocation-light and enough to tell "mostly-empty FIFO" from
/// "pegged at depth" or "1-cycle stalls" from "thousand-cycle stalls".
class Histogram {
 public:
  void record(u64 value) noexcept;

  [[nodiscard]] u64 count() const noexcept { return count_; }
  [[nodiscard]] u64 sum() const noexcept { return sum_; }
  [[nodiscard]] u64 min() const noexcept { return count_ == 0 ? 0 : min_; }
  [[nodiscard]] u64 max() const noexcept { return max_; }
  [[nodiscard]] double mean() const noexcept {
    return count_ == 0 ? 0.0
                       : static_cast<double>(sum_) / static_cast<double>(count_);
  }
  /// Bucket counts, index = bit width of the value; trailing zero
  /// buckets trimmed.
  [[nodiscard]] const std::vector<u64>& buckets() const noexcept {
    return buckets_;
  }

  friend bool operator==(const Histogram&, const Histogram&) = default;

  /// Exact state round-trip for session journals: a restored histogram
  /// is field-for-field identical (including the untouched-min sentinel),
  /// so recovered metrics render byte-identically.
  void save_state(ckpt::Writer& writer) const;
  void load_state(ckpt::Reader& reader);

 private:
  std::vector<u64> buckets_;
  u64 count_ = 0;
  u64 sum_ = 0;
  u64 min_ = ~u64{0};
  u64 max_ = 0;
};

/// Copyable point-in-time view of a MetricsRegistry.
struct MetricsSnapshot {
  std::map<std::string, u64> counters;
  std::map<std::string, Histogram> histograms;

  [[nodiscard]] bool empty() const noexcept {
    return counters.empty() && histograms.empty();
  }
  [[nodiscard]] u64 counter(const std::string& name) const noexcept {
    const auto it = counters.find(name);
    return it == counters.end() ? 0 : it->second;
  }
  /// Human-readable multi-line report (counters then histograms).
  [[nodiscard]] std::string to_string() const;
};

class MetricsRegistry : public TraceSink {
 public:
  void on_event(const TraceEvent& event) override;

  [[nodiscard]] MetricsSnapshot snapshot() const;

  /// Exact registry state (counters, histograms, in-flight stall run)
  /// for full-system checkpoints — a restored registry continues
  /// aggregating exactly where the saved one stopped.
  void save_state(ckpt::Writer& writer) const;
  void load_state(ckpt::Reader& reader);

 private:
  MetricsSnapshot data_;
  Cycle stall_run_ = 0;  ///< length of the current consecutive-stall run
};

}  // namespace mbcosim::obs
