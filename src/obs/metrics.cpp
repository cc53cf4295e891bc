#include "obs/metrics.hpp"

#include <cstdio>

namespace mbcosim::obs {

void Histogram::record(u64 value) noexcept {
  u32 bucket = 0;
  for (u64 v = value; v != 0; v >>= 1) ++bucket;
  if (buckets_.size() <= bucket) buckets_.resize(bucket + 1, 0);
  buckets_[bucket] += 1;
  count_ += 1;
  sum_ += value;
  if (value < min_) min_ = value;
  if (value > max_) max_ = value;
}

void MetricsRegistry::on_event(const TraceEvent& event) {
  auto& counters = data_.counters;
  auto& histograms = data_.histograms;

  // Stall-run bookkeeping: any non-stall instruction event closes the
  // current run of consecutive blocked cycles.
  const bool instruction_event = event.kind == EventKind::kInstrRetire ||
                                 event.kind == EventKind::kInstrStall ||
                                 event.kind == EventKind::kInstrHalt ||
                                 event.kind == EventKind::kInstrIllegal;
  if (instruction_event) {
    if (event.kind == EventKind::kInstrStall) {
      stall_run_ += event.cycles;
    } else if (stall_run_ != 0) {
      histograms["cpu.stall_run"].record(stall_run_);
      stall_run_ = 0;
    }
  }

  switch (event.kind) {
    case EventKind::kInstrRetire:
      counters["cpu.retired"] += 1;
      break;
    case EventKind::kInstrStall:
      counters["cpu.stall_cycles"] += event.cycles;
      break;
    case EventKind::kInstrHalt:
      counters["cpu.halts"] += 1;
      break;
    case EventKind::kInstrIllegal:
      counters["cpu.illegal"] += 1;
      break;
    case EventKind::kFslPush: {
      const std::string channel = event.channel != nullptr ? event.channel : "?";
      counters["fsl." + channel + ".push"] += 1;
      histograms["fsl." + channel + ".occupancy"].record(event.occupancy);
      break;
    }
    case EventKind::kFslPop: {
      const std::string channel = event.channel != nullptr ? event.channel : "?";
      counters["fsl." + channel + ".pop"] += 1;
      histograms["fsl." + channel + ".occupancy"].record(event.occupancy);
      break;
    }
    case EventKind::kFslRefused: {
      const std::string channel = event.channel != nullptr ? event.channel : "?";
      counters["fsl." + channel + ".refused"] += 1;
      break;
    }
    case EventKind::kOpbRead:
      counters["opb.reads"] += 1;
      counters["opb.wait_cycles"] += event.wait_states;
      histograms["opb.wait"].record(event.wait_states);
      break;
    case EventKind::kOpbWrite:
      counters["opb.writes"] += 1;
      counters["opb.wait_cycles"] += event.wait_states;
      histograms["opb.wait"].record(event.wait_states);
      break;
    case EventKind::kQuiesceSkip:
      counters["engine.quiesce_skipped"] += event.skipped;
      break;
    case EventKind::kDeadlock:
      counters["engine.deadlocks"] += 1;
      break;
    case EventKind::kFaultInject:
      counters["fault.injects"] += 1;
      break;
    case EventKind::kFaultOutcome:
      counters[std::string("fault.outcome.") +
               (event.label != nullptr ? event.label : "?")] += 1;
      break;
  }
}

void Histogram::save_state(ckpt::Writer& writer) const {
  writer.write_u64(count_);
  writer.write_u64(sum_);
  writer.write_u64(min_);
  writer.write_u64(max_);
  writer.write_u64(buckets_.size());
  for (const u64 bucket : buckets_) writer.write_u64(bucket);
}

void Histogram::load_state(ckpt::Reader& reader) {
  count_ = reader.read_u64();
  sum_ = reader.read_u64();
  min_ = reader.read_u64();
  max_ = reader.read_u64();
  const u64 buckets = reader.read_u64();
  buckets_.clear();
  if (!reader.ok() || buckets > reader.remaining()) return;  // underrun
  buckets_.reserve(static_cast<std::size_t>(buckets));
  for (u64 i = 0; i < buckets; ++i) buckets_.push_back(reader.read_u64());
}

void MetricsRegistry::save_state(ckpt::Writer& writer) const {
  writer.write_u64(data_.counters.size());
  for (const auto& [name, value] : data_.counters) {
    writer.write_str(name);
    writer.write_u64(value);
  }
  writer.write_u64(data_.histograms.size());
  for (const auto& [name, histogram] : data_.histograms) {
    writer.write_str(name);
    histogram.save_state(writer);
  }
  writer.write_u64(stall_run_);
}

void MetricsRegistry::load_state(ckpt::Reader& reader) {
  data_ = MetricsSnapshot{};
  stall_run_ = 0;
  const u64 counters = reader.read_u64();
  for (u64 i = 0; i < counters && reader.ok(); ++i) {
    std::string name = reader.read_str();
    data_.counters[std::move(name)] = reader.read_u64();
  }
  const u64 histograms = reader.read_u64();
  for (u64 i = 0; i < histograms && reader.ok(); ++i) {
    std::string name = reader.read_str();
    data_.histograms[std::move(name)].load_state(reader);
  }
  stall_run_ = reader.read_u64();
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot snapshot = data_;
  // Account the in-flight stall run without mutating the registry.
  if (stall_run_ != 0) {
    snapshot.histograms["cpu.stall_run"].record(stall_run_);
  }
  return snapshot;
}

std::string MetricsSnapshot::to_string() const {
  std::string out;
  char buffer[160];
  for (const auto& [name, value] : counters) {
    std::snprintf(buffer, sizeof buffer, "%-28s %llu\n", name.c_str(),
                  static_cast<unsigned long long>(value));
    out += buffer;
  }
  for (const auto& [name, histogram] : histograms) {
    std::snprintf(buffer, sizeof buffer,
                  "%-28s count=%llu min=%llu mean=%.1f max=%llu buckets=[",
                  name.c_str(),
                  static_cast<unsigned long long>(histogram.count()),
                  static_cast<unsigned long long>(histogram.min()),
                  histogram.mean(),
                  static_cast<unsigned long long>(histogram.max()));
    out += buffer;
    const auto& buckets = histogram.buckets();
    for (std::size_t i = 0; i < buckets.size(); ++i) {
      std::snprintf(buffer, sizeof buffer, "%s%llu", i == 0 ? "" : " ",
                    static_cast<unsigned long long>(buckets[i]));
      out += buffer;
    }
    out += "]\n";
  }
  return out;
}

}  // namespace mbcosim::obs
