// Co-simulation ledger: one end-to-end and per-layer benchmark of the
// mbcosim co-simulation environment (see perfbench/LEDGER.md).
//
//   perfbench --workload cordic_p8 --seed 1 --seconds 15 --trace 0
//
// Workloads: cordic_p8, cordic_sw, farm_hosted. With
// --trace 0 the run times the workload untraced and reports the
// end-to-end metrics; with --trace 1 it reports the per-layer split from
// a separate traced run. Every output is checked for correctness; the
// last line of standard output is the JSON result.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "ledger.hpp"

namespace {

using ledger::Args;

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1\n",
               why);
  std::exit(64);
}

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') usage("bad --seed");
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || args.seconds <= 0.0) {
        usage("bad --seconds");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      args.trace = value == "1";
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (args.workload.empty()) usage("--workload is required");
  return args;
}

void print_result(const Args& args, const ledger::Report& report) {
  std::string metrics;
  const auto emit = [&](const ledger::MetricDef& def) {
    const auto it = report.values.find(def.name);
    double value = 0.0;
    if (it != report.values.end()) {
      value = it->second;
    } else if (!args.trace) {
      ledger::die(std::string("workload did not measure ") + def.name);
    }
    char buffer[160];
    std::snprintf(buffer, sizeof buffer,
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", def.name, value, def.unit);
    metrics += buffer;
    std::printf("  %-24s %20.6f %s\n", def.name, value, def.unit);
  };
  std::printf("%s seed %llu (%s):\n", args.workload.c_str(),
              static_cast<unsigned long long>(args.seed),
              args.trace ? "traced, per-layer" : "untraced, end-to-end");
  if (args.trace) {
    for (const ledger::MetricDef& def : ledger::kPerLayer) emit(def);
  } else {
    for (const ledger::MetricDef& def : ledger::kEndToEnd) emit(def);
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      report.correct ? "true" : "false",
      static_cast<unsigned long long>(report.attempted),
      static_cast<unsigned long long>(report.failed), metrics.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  ledger::Report report;
  try {
    if (args.workload == "farm_hosted") {
      ledger::run_farm_workload(args, report);
    } else if (args.workload == "cordic_p8" || args.workload == "cordic_sw") {
      ledger::run_cordic_workload(args, report);
    } else {
      usage(("unknown workload " + args.workload).c_str());
    }
  } catch (const std::exception& error) {
    ledger::die(std::string("error: ") + error.what());
  }
  if (report.attempted == 0) ledger::die("no operation was attempted");
  report.set("failed_frac", static_cast<double>(report.failed) /
                                static_cast<double>(report.attempted));
  print_result(args, report);
  std::fflush(stdout);
  return 0;
}
