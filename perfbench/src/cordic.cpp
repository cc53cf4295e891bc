// The two single-core CORDIC workloads of the ledger:
//
//   cordic_p8  2000 items x 24 iterations through the P=8 sysgen pipeline
//              on FSL 0 (dbt tier, no sinks)
//   cordic_sw  4000 items, pure-software shift-loop divider (P=0); its
//              traced run also measures the same inputs with one
//              MetricsRegistry sink (the obs layer)
//
// A repetition is set up exactly as apps::cordic::make_cordic_system
// does (checked against it on the held-back data), run to halt, and its
// quotients, stop reason and statistics checked. The traced run drives
// the repetition itself through the same public calls CoSimEngine::run
// and the software-only loop make, with a span around each call into a
// layer.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "apps/cordic/cordic_app.hpp"
#include "apps/cordic/cordic_hw.hpp"
#include "apps/cordic/cordic_sw.hpp"
#include "asm/assembler.hpp"
#include "ledger.hpp"
#include "rtlmodels/system_rtl.hpp"
#include "sim/sim_system.hpp"

namespace ledger {
namespace {

using namespace mbcosim;
namespace cordic = apps::cordic;

constexpr unsigned kIterations = 24;
constexpr unsigned kSetSize = 5;               // CordicRunConfig default
constexpr std::size_t kFifoDepth = 16;         // CordicRunConfig default
constexpr Cycle kDeadlockThreshold = 100'000;  // SimSystem::Builder default
constexpr Cycle kRunForever = Cycle{1} << 36;
constexpr unsigned kHeldBackItems = 10;  // a multiple of kSetSize
constexpr int kMinReps = 3;

struct Spec {
  unsigned num_pes = 0;  ///< 0 = pure software
  unsigned items = 0;
  bool metrics = false;  ///< attach one MetricsRegistry
};

Spec spec_for(const std::string& workload) {
  return workload == "cordic_p8" ? Spec{8, 2000, false}
                                 : Spec{0, 4000, false};  // cordic_sw
}

struct Dataset {
  std::vector<i32> x;
  std::vector<i32> y;
  std::vector<i32> expected;  ///< cordic_expected quotients
};

Dataset make_dataset(const Spec& spec, u64 seed) {
  auto [x, y] = cordic::make_cordic_dataset(spec.items, seed);
  cordic::CordicRunConfig config;
  config.num_pes = spec.num_pes;
  config.iterations = kIterations;
  config.items = spec.items;
  Dataset data;
  data.expected = cordic::cordic_expected(config, x, y);
  data.x = std::move(x);
  data.y = std::move(y);
  return data;
}

isa::CpuConfig cpu_config() {
  isa::CpuConfig config;
  config.has_multiplier = true;
  config.has_barrel_shifter = false;  // the shift-loop strategy needs none
  return config;
}

std::string program_source(const Spec& spec, const Dataset& data) {
  return spec.num_pes == 0
             ? cordic::pure_software_program(data.x, data.y, kIterations,
                                             cordic::ShiftStrategy::kShiftLoop)
             : cordic::hw_driver_program(data.x, data.y, kIterations,
                                         spec.num_pes, kSetSize);
}

sim::FslGateways gateways(const cordic::CordicPipelineIo& io) {
  sim::FslGateways out;
  out.s_data = io.s_data;
  out.s_exists = io.s_exists;
  out.s_control = io.s_control;
  out.s_read = io.s_read;
  out.m_data = io.m_data;
  out.m_write = io.m_write;
  out.m_full = io.m_full;
  return out;
}

/// Make one repetition ready to run: the steps of make_cordic_system,
/// each under its own span — "asm.assemble" (program generation and
/// assembly), "sim.build" (SimSystem::Builder::build) and, inside it,
/// "sysgen.build" (the pipeline factory). `blocks` receives the model's
/// block count.
sim::SimSystem set_up(const Spec& spec, const Dataset& data, Tracer& tracer,
                      std::size_t* blocks = nullptr) {
  Tracer::Scope setup(tracer, "setup");
  const int assemble_span = tracer.begin("asm.assemble");
  Expected<assembler::Program> program =
      assembler::assemble(program_source(spec, data));
  tracer.end(assemble_span);
  if (!program) die("assembly failed: " + program.error());

  sim::SimSystem::Builder builder;
  builder.program(std::move(program).value())
      .cpu_config(cpu_config())
      .fifo_depth(kFifoDepth);
  if (spec.num_pes > 0) {
    const unsigned num_pes = spec.num_pes;
    builder.hardware([num_pes, &tracer, blocks] {
      Tracer::Scope span(tracer, "sysgen.build");
      cordic::CordicPipeline pipeline = cordic::build_cordic_pipeline(num_pes);
      if (blocks != nullptr) *blocks = pipeline.model->block_count();
      sim::HardwareBundle bundle;
      bundle.channels.push_back({0, gateways(pipeline.io)});
      bundle.model = std::move(pipeline.model);
      return bundle;
    });
    builder.quiescence(num_pes + 16);  // make_cordic_system's drain bound
  }
  if (spec.metrics) builder.metrics();
  const int build_span = tracer.begin("sim.build");
  Expected<sim::SimSystem> built = builder.build();
  tracer.end(build_span);
  if (!built) die("SimSystem build failed: " + built.error());
  return std::move(built).value();
}

/// Everything a repetition's correctness and determinism are judged on.
struct Outcome {
  core::StopReason stop = core::StopReason::kCycleLimit;
  core::CoSimStats stats;
  iss::DbtStats dbt;
  std::vector<i32> quotients;
};

Outcome collect(sim::SimSystem& system, core::StopReason stop,
                std::size_t items) {
  Outcome outcome;
  outcome.stop = stop;
  outcome.stats = system.stats();
  outcome.dbt = system.dbt_stats();
  outcome.quotients.reserve(items);
  for (std::size_t i = 0; i < items; ++i) {
    outcome.quotients.push_back(
        static_cast<i32>(system.word("results", static_cast<u32>(i))));
  }
  return outcome;
}

bool same_stats(const core::CoSimStats& a, const core::CoSimStats& b) {
  return a.cycles == b.cycles && a.instructions == b.instructions &&
         a.fsl_stall_cycles == b.fsl_stall_cycles &&
         a.hw_cycles_stepped == b.hw_cycles_stepped &&
         a.hw_cycles_skipped == b.hw_cycles_skipped &&
         a.bridge.words_to_hw == b.bridge.words_to_hw &&
         a.bridge.words_from_hw == b.bridge.words_from_hw &&
         a.bridge.refused_writes == b.bridge.refused_writes;
}

bool same(const Outcome& a, const Outcome& b) {
  return a.stop == b.stop && same_stats(a.stats, b.stats) &&
         a.dbt.blocks_translated == b.dbt.blocks_translated &&
         a.dbt.block_dispatches == b.dbt.block_dispatches &&
         a.dbt.smc_retirements == b.dbt.smc_retirements &&
         a.dbt.dbt_instructions == b.dbt.dbt_instructions &&
         a.quotients == b.quotients;
}

/// Judge one repetition: halted, quotients equal to the reference model,
/// and (from the second repetition on) statistics identical to the
/// first. Counts the repetition as attempted and any miss as failed.
void check(const Outcome& outcome, const Dataset& data,
           const Outcome* first, Report& report) {
  ++report.attempted;
  if (outcome.stop != core::StopReason::kHalted) {
    report.fail(std::string("stop reason ") +
                core::stop_reason_name(outcome.stop) + ", want halted");
  } else if (outcome.quotients != data.expected) {
    report.fail("quotients differ from cordic_expected");
  } else if (first != nullptr && !same(outcome, *first)) {
    report.fail("statistics differ from the first repetition");
  }
}

struct TimedRep {
  Outcome outcome;
  double run_s = 0.0;
};

/// One untraced repetition through SimSystem::run.
TimedRep run_untraced(const Spec& spec, const Dataset& data, Tracer& tracer,
                      std::optional<sim::SimSystem>* keep = nullptr) {
  sim::SimSystem system = set_up(spec, data, tracer);
  const double start = now_s();
  const core::StopReason stop = system.run(kRunForever);
  TimedRep rep;
  rep.run_s = now_s() - start;
  rep.outcome = collect(system, stop, data.x.size());
  if (keep != nullptr) keep->emplace(std::move(system));
  return rep;
}

struct CallCounts {
  u64 batch = 0;  ///< Processor::run_batch calls
  u64 step = 0;   ///< Processor::step calls (counted, not spanned)
};

/// The co-simulation loop of CoSimEngine::run (or, for a software-only
/// system, of SimSystem's software-only run), driven from outside with a
/// span around every call into a layer: "iss.run_batch",
/// "core.tick_hardware", and the enclosing "run". Precise steps average
/// well under a microsecond, so they are counted and their time is the
/// self time of "run".
core::StopReason run_traced(sim::SimSystem& system, Tracer& tracer,
                            CallCounts& calls) {
  Tracer::Scope run_span(tracer, "run");
  iss::Processor& cpu = system.cpu();
  core::CoSimEngine* engine = system.engine();
  const Cycle max_cycles = kRunForever;
  Cycle blocked_streak = 0;

  if (engine == nullptr) {
    while (!cpu.halted() && cpu.cycle() < max_cycles) {
      if (cpu.fast_path_available()) {
        const int span = tracer.begin("iss.run_batch");
        const iss::BatchResult batch = cpu.run_batch(max_cycles, false);
        tracer.end(span);
        ++calls.batch;
        switch (batch.stop) {
          case iss::BatchStop::kHalted:
            return core::StopReason::kHalted;
          case iss::BatchStop::kIllegal:
            return core::StopReason::kIllegal;
          case iss::BatchStop::kFslStall:
            blocked_streak = batch.cycles > 1 ? 1 : blocked_streak + 1;
            if (blocked_streak >= kDeadlockThreshold) {
              return core::StopReason::kDeadlock;
            }
            continue;
          case iss::BatchStop::kBudget:
            continue;
          case iss::BatchStop::kFslPending:
          case iss::BatchStop::kPrecise:
            break;
        }
      }
      const iss::StepResult result = cpu.step();
      ++calls.step;
      switch (result.event) {
        case iss::Event::kHalted:
          return core::StopReason::kHalted;
        case iss::Event::kIllegal:
          return core::StopReason::kIllegal;
        case iss::Event::kFslStall:
          if (++blocked_streak >= kDeadlockThreshold) {
            return core::StopReason::kDeadlock;
          }
          break;
        case iss::Event::kRetired:
          blocked_streak = 0;
          break;
      }
    }
    return cpu.halted() ? core::StopReason::kHalted
                        : core::StopReason::kCycleLimit;
  }

  const auto traffic = [engine] {
    const core::BridgeStats& stats = engine->bridge().stats();
    return stats.words_to_hw + stats.words_from_hw;
  };
  const auto tick = [&tracer, engine](Cycle cycles) {
    const int span = tracer.begin("core.tick_hardware");
    engine->tick_hardware(cycles);
    tracer.end(span);
  };
  u64 last_traffic = traffic();
  while (!cpu.halted() && cpu.cycle() < max_cycles) {
    if (cpu.fast_path_available()) {
      const int span = tracer.begin("iss.run_batch");
      const iss::BatchResult batch = cpu.run_batch(max_cycles, true);
      tracer.end(span);
      ++calls.batch;
      if (batch.cycles != 0) {
        tick(batch.cycles);
        blocked_streak = 0;
        last_traffic = traffic();
      }
      if (batch.stop == iss::BatchStop::kHalted) {
        return core::StopReason::kHalted;
      }
      if (batch.stop == iss::BatchStop::kIllegal) {
        return core::StopReason::kIllegal;
      }
      if (batch.stop == iss::BatchStop::kBudget) continue;
    }
    const iss::StepResult result = cpu.step();
    ++calls.step;
    tick(result.cycles);
    switch (result.event) {
      case iss::Event::kHalted:
        return core::StopReason::kHalted;
      case iss::Event::kIllegal:
        return core::StopReason::kIllegal;
      case iss::Event::kFslStall:
        if (traffic() == last_traffic) {
          if (++blocked_streak >= kDeadlockThreshold) {
            return core::StopReason::kDeadlock;
          }
        } else {
          blocked_streak = 0;
          last_traffic = traffic();
        }
        break;
      case iss::Event::kRetired:
        blocked_streak = 0;
        last_traffic = traffic();
        break;
    }
  }
  return cpu.halted() ? core::StopReason::kHalted
                      : core::StopReason::kCycleLimit;
}

/// Per-layer split of one traced repetition.
struct TracedRep {
  double run_s = 0.0;        ///< the "run" span: traced wall
  double iss_s = 0.0;        ///< run_batch spans + self time of "run"
  double tick_s = 0.0;       ///< tick_hardware spans
  double assemble_s = 0.0;
  double build_s = 0.0;      ///< Builder::build minus the sysgen factory
  double sysgen_s = 0.0;
  CallCounts calls;
};

TracedRep run_traced_rep(const Spec& spec, const Dataset& data,
                         const Outcome& reference, Tracer& tracer,
                         std::size_t& blocks) {
  sim::SimSystem system = set_up(spec, data, tracer, &blocks);
  TracedRep rep;
  const core::StopReason stop = run_traced(system, tracer, rep.calls);
  const Outcome outcome = collect(system, stop, data.x.size());
  if (!same(outcome, reference)) {
    die("traced run's simulated statistics differ from the untraced "
        "run's; no per-layer split reported");
  }
  rep.run_s = tracer.total("run");
  rep.tick_s = tracer.total("core.tick_hardware");
  rep.iss_s = tracer.total("iss.run_batch") + tracer.self("run");
  rep.assemble_s = tracer.total("asm.assemble");
  rep.build_s = tracer.self("sim.build");
  rep.sysgen_s = tracer.total("sysgen.build");
  return rep;
}

/// Held-back cross-check: a small dataset from a seed stream the timed
/// repetitions never use, at P=8 and P=0, run by the ledger's set-up,
/// by apps::cordic::make_cordic_system and by the RTL baseline
/// (rtlmodels::RtlSystem). Cycles and quotients must agree; the summed
/// |co-sim - RTL| cycle difference is cycle_err_vs_rtl.
void held_back_check(u64 seed, Report& report) {
  double cycle_err = 0.0;
  for (const unsigned num_pes : {8u, 0u}) {
    ++report.attempted;
    const Spec spec{num_pes, kHeldBackItems, false};
    const Dataset data =
        make_dataset(spec, derive_seed(seed, kHeldBackStream));
    Tracer scratch;
    const TimedRep cosim = run_untraced(spec, data, scratch);

    cordic::CordicRunConfig config;
    config.num_pes = num_pes;
    config.iterations = kIterations;
    config.items = kHeldBackItems;
    Expected<sim::SimSystem> app = cordic::make_cordic_system(config, data.x,
                                                              data.y);
    if (!app) die("make_cordic_system failed: " + app.error());
    sim::SimSystem app_system = std::move(app).value();
    const core::StopReason app_stop = app_system.run(kRunForever);
    const Outcome app_outcome = collect(app_system, app_stop, data.x.size());

    const assembler::Program program =
        assembler::assemble_or_throw(program_source(spec, data));
    rtlmodels::RtlPeripheralConfig peripheral;
    if (num_pes > 0) {
      peripheral.kind = rtlmodels::RtlPeripheralConfig::Kind::kCordic;
      peripheral.parameter = num_pes;
    }
    rtlmodels::RtlSystem rtl(program, cpu_config(), peripheral);
    const rtlmodels::RtlStopReason rtl_stop = rtl.run(50'000'000);
    const Cycle rtl_cycles = rtl.cycles();
    const Cycle cosim_cycles = cosim.outcome.stats.cycles;
    cycle_err += static_cast<double>(rtl_cycles > cosim_cycles
                                         ? rtl_cycles - cosim_cycles
                                         : cosim_cycles - rtl_cycles);
    std::vector<i32> rtl_quotients;
    const Addr results = program.symbol("results");
    for (std::size_t i = 0; i < data.x.size(); ++i) {
      rtl_quotients.push_back(static_cast<i32>(
          rtl.memory().read_word(results + static_cast<Addr>(i) * 4)));
    }
    std::printf("held-back P=%u: co-sim %llu cycles, RTL %llu cycles\n",
                num_pes, static_cast<unsigned long long>(cosim_cycles),
                static_cast<unsigned long long>(rtl_cycles));

    const std::string where = " (held-back P=" + std::to_string(num_pes) + ")";
    if (cosim.outcome.stop != core::StopReason::kHalted ||
        rtl_stop != rtlmodels::RtlStopReason::kHalted) {
      report.fail("held-back run did not halt" + where);
    } else if (!same(cosim.outcome, app_outcome)) {
      report.fail("ledger set-up differs from make_cordic_system" + where);
    } else if (rtl_cycles != cosim_cycles) {
      report.fail("co-simulation cycles differ from RTL" + where);
    } else if (cosim.outcome.quotients != data.expected ||
               rtl_quotients != data.expected) {
      report.fail("quotients differ from cordic_expected" + where);
    }
  }
  report.set("cycle_err_vs_rtl", cycle_err);
}

void write_spans(const Tracer& tracer, const Args& args) {
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::create_directories(".bench_build/spans", ec);
  const std::string path = ".bench_build/spans/" + args.workload + ".seed" +
                           std::to_string(args.seed) + ".jsonl";
  if (!ec && tracer.write_jsonl(path)) {
    std::printf("spans of the first traced repetition: %s (%zu spans)\n",
                path.c_str(), tracer.spans().size());
  }
}

void run_end_to_end(const Args& args, const Spec& spec, const Dataset& data,
                    Report& report) {
  Tracer tracer;
  // Warm-up repetition: lazy set-up and host caches, not timed; its
  // outcome is the reference every later repetition must reproduce.
  const Outcome first = run_untraced(spec, data, tracer).outcome;
  check(first, data, nullptr, report);

  Samples setup_s;
  Samples run_s;
  const double start = now_s();
  while (now_s() - start < args.seconds ||
         run_s.size() < static_cast<std::size_t>(kMinReps)) {
    tracer.clear();
    const TimedRep rep = run_untraced(spec, data, tracer);
    setup_s.add(tracer.total("setup"));
    run_s.add(rep.run_s);
    check(rep.outcome, data, &first, report);
  }
  const double cycles = static_cast<double>(first.stats.cycles);
  std::printf("%zu timed repetitions; rep_s p10 %.6f p50 %.6f p90 %.6f\n",
              run_s.size(), run_s.quantile(0.1), run_s.median(),
              run_s.quantile(0.9));
  report.set("mcps", cycles / run_s.median() / 1e6);
  report.set("rep_s_p50", run_s.median());
  report.set("setup_s", setup_s.median());
  report.set("sim_cycles", cycles);
  report.set("peak_rss_mb", peak_rss_mb());
}

void run_per_layer(const Args& args, const Spec& spec, const Dataset& data,
                   Report& report) {
  Tracer tracer;
  const Outcome first = run_untraced(spec, data, tracer).outcome;
  check(first, data, nullptr, report);
  // On the software workload the traced run also runs the same inputs
  // with one MetricsRegistry attached, as --metrics and hosted sessions
  // do. The sink forces the precise path; the obs layer's cost is that
  // run's ISS time over the sinkless one, measured side by side.
  const Spec with_sink{spec.num_pes, spec.items, true};
  std::optional<Outcome> sink_first;
  if (spec.num_pes == 0) {
    sink_first = run_untraced(with_sink, data, tracer).outcome;
    check(*sink_first, data, nullptr, report);
  }

  Samples untraced_s;
  Samples traced_s;
  Samples iss_s;
  Samples tick_s;
  Samples ns_per_step;
  Samples assemble_s;
  Samples build_s;
  Samples sysgen_s;
  Samples sink_run_s;
  Samples sink_iss_s;
  Samples snapshot_s;
  CallCounts calls;
  CallCounts sink_calls;
  std::size_t blocks = 0;
  const double start = now_s();
  for (int rep = 0; now_s() - start < args.seconds || rep < kMinReps; ++rep) {
    tracer.clear();
    tracer.set_rep(rep);
    const TimedRep untraced = run_untraced(spec, data, tracer);
    check(untraced.outcome, data, &first, report);
    untraced_s.add(untraced.run_s);

    tracer.clear();
    const TracedRep traced =
        run_traced_rep(spec, data, first, tracer, blocks);
    if (rep == 0) write_spans(tracer, args);
    ++report.attempted;
    traced_s.add(traced.run_s);
    iss_s.add(traced.iss_s);
    tick_s.add(traced.tick_s);
    assemble_s.add(traced.assemble_s);
    build_s.add(traced.build_s);
    sysgen_s.add(traced.sysgen_s);
    if (first.stats.hw_cycles_stepped != 0) {
      ns_per_step.add(traced.tick_s * 1e9 /
                      static_cast<double>(first.stats.hw_cycles_stepped));
    }
    calls = traced.calls;

    if (!sink_first) continue;
    tracer.clear();
    std::optional<sim::SimSystem> kept;
    const TimedRep sink_rep = run_untraced(with_sink, data, tracer, &kept);
    check(sink_rep.outcome, data, &*sink_first, report);
    sink_run_s.add(sink_rep.run_s);
    const double snap_start = now_s();
    const obs::MetricsSnapshot snapshot = kept->metrics_snapshot();
    snapshot_s.add(now_s() - snap_start);
    if (snapshot.to_string().empty()) report.fail("empty metrics snapshot");
    kept.reset();
    tracer.clear();
    std::size_t unused = 0;
    const TracedRep sink_traced =
        run_traced_rep(with_sink, data, *sink_first, tracer, unused);
    ++report.attempted;
    sink_iss_s.add(sink_traced.iss_s);
    sink_calls = sink_traced.calls;
  }

  const core::CoSimStats& stats = first.stats;
  const double instructions = static_cast<double>(stats.instructions);
  const double hw_total =
      static_cast<double>(stats.hw_cycles_stepped + stats.hw_cycles_skipped);
  std::printf("%zu traced repetitions, %llu run_batch calls and %llu precise "
              "steps each\n",
              traced_s.size(), static_cast<unsigned long long>(calls.batch),
              static_cast<unsigned long long>(calls.step));
  report.set("iss.self_s", iss_s.median());
  report.set("iss.ns_per_inst", iss_s.median() * 1e9 / instructions);
  report.set("iss.insts_per_call",
             instructions / static_cast<double>(calls.batch + calls.step));
  report.set("iss.dbt_share",
             static_cast<double>(first.dbt.dbt_instructions) / instructions);
  report.set("core.tick_s", tick_s.median());
  report.set("core.hw_stepped", static_cast<double>(stats.hw_cycles_stepped));
  report.set("core.hw_skipped", static_cast<double>(stats.hw_cycles_skipped));
  report.set("core.quiesce_ratio",
             hw_total > 0 ? static_cast<double>(stats.hw_cycles_skipped) /
                                hw_total
                          : 0.0);
  report.set("core.hw_useful_ratio", spec.num_pes > 0 ? 1.0 : 0.0);
  report.set("sysgen.ns_per_step", ns_per_step.median());
  report.set("sysgen.ns_per_block",
             blocks > 0 ? ns_per_step.median() / static_cast<double>(blocks)
                        : 0.0);
  report.set("sysgen.blocks", static_cast<double>(blocks));
  report.set("sysgen.build_ms", sysgen_s.median() * 1e3);
  report.set("fsl.words", static_cast<double>(stats.bridge.words_to_hw +
                                              stats.bridge.words_from_hw));
  report.set("fsl.refused_writes",
             static_cast<double>(stats.bridge.refused_writes));
  report.set("fsl.stall_cycles", static_cast<double>(stats.fsl_stall_cycles));
  report.set("asm.assemble_ms", assemble_s.median() * 1e3);
  report.set("sim.build_ms", build_s.median() * 1e3);
  if (sink_first) {
    report.set("obs.overhead_x", sink_iss_s.median() / iss_s.median());
    report.set("obs.snapshot_ms", snapshot_s.median() * 1e3);
    report.set("obs.metrics_mcps", static_cast<double>(stats.cycles) /
                                       sink_run_s.median() / 1e6);
    report.set("obs.insts_per_call",
               instructions /
                   static_cast<double>(sink_calls.batch + sink_calls.step));
  }
  report.set("trace.overhead_x", traced_s.median() / untraced_s.median());
  std::printf("trace overhead: traced run %.6f s / untraced run %.6f s\n",
              traced_s.median(), untraced_s.median());
}

}  // namespace

void run_cordic_workload(const Args& args, Report& report) {
  const Spec spec = spec_for(args.workload);
  const Dataset data = make_dataset(spec, derive_seed(args.seed, kTimedStream));
  if (args.trace) {
    run_per_layer(args, spec, data, report);
  } else {
    run_end_to_end(args, spec, data, report);
  }
  held_back_check(args.seed, report);
}

}  // namespace ledger
