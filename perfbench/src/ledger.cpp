#include "ledger.hpp"

#include <algorithm>
#include <cstdlib>
#include <fstream>

namespace ledger {

double peak_rss_mb() {
  // VmHWM, not getrusage's ru_maxrss: the latter keeps the peak of the
  // process image that exec'd this one (the launching interpreter).
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  die("cannot read VmHWM from /proc/self/status");
}

double Samples::quantile(double q) const {
  if (values_.empty()) return 0.0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

double Tracer::total(std::string_view name) const {
  double sum = 0.0;
  for (const Span& span : spans_) {
    if (span.name == name) sum += span.end - span.start;
  }
  return sum;
}

double Tracer::self(std::string_view name) const {
  double sum = 0.0;
  for (const Span& span : spans_) {
    if (span.name == name) sum += span.end - span.start;
  }
  for (const Span& span : spans_) {
    if (span.parent >= 0 &&
        spans_[static_cast<std::size_t>(span.parent)].name == name) {
      sum -= span.end - span.start;
    }
  }
  return sum;
}

std::size_t Tracer::count(std::string_view name) const {
  return static_cast<std::size_t>(
      std::count_if(spans_.begin(), spans_.end(),
                    [name](const Span& span) { return span.name == name; }));
}

Samples Tracer::durations(std::string_view name) const {
  Samples samples;
  for (const Span& span : spans_) {
    if (span.name == name) samples.add(span.end - span.start);
  }
  return samples;
}

bool Tracer::write_jsonl(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  const double origin = spans_.empty() ? 0.0 : spans_.front().start;
  for (const Span& span : spans_) {
    std::fprintf(out,
                 "{\"name\":\"%.*s\",\"start\":%.9f,\"end\":%.9f,"
                 "\"parent\":%d,\"rep\":%d}\n",
                 static_cast<int>(span.name.size()), span.name.data(),
                 span.start - origin, span.end - origin, span.parent,
                 span.rep);
  }
  return std::fclose(out) == 0;
}

void die(const std::string& why) {
  std::fprintf(stderr, "perfbench: %s\n", why.c_str());
  std::exit(2);
}

}  // namespace ledger
