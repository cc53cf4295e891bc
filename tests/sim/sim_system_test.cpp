// SimSystem facade: builder error paths (every configuration problem
// comes back through Expected, never a throw), equivalence with the
// hand-wired low-level API (identical cycle counts and results), and
// the run loop's stop points: however a run is cut into run() calls,
// faults fire and checkpoints land without changing the result.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "apps/cordic/cordic_app.hpp"
#include "apps/cordic/cordic_sw.hpp"
#include "apps/machine_peripherals.hpp"
#include "apps/matmul/matmul_reference.hpp"
#include "apps/matmul/matmul_sw.hpp"
#include "asm/assembler.hpp"
#include "core/cosim_engine.hpp"
#include "fault/fault_plan.hpp"
#include "fault/injector.hpp"
#include "obs/jsonl_sink.hpp"
#include "sim/sim_system.hpp"
#include "sysgen/blocks_basic.hpp"

namespace mbcosim::sim {
namespace {

namespace sg = mbcosim::sysgen;

// The quickstart "times three" application: multiply in hardware over
// FSL channel 0, +1 and control flow in software.
constexpr const char* kTimesThreeSource = R"(
  start:
    la   r5, inputs
    la   r6, outputs
    li   r7, 4
  loop:
    lwi  r3, r5, 0
    put  r3, rfsl0
    get  r4, rfsl0
    addik r4, r4, 1
    swi  r4, r6, 0
    addik r5, r5, 4
    addik r6, r6, 4
    addik r7, r7, -1
    bnei r7, loop
    halt
  inputs:  .word 1, 2, 10, 100
  outputs: .space 16
)";

struct TimesThree {
  std::unique_ptr<sg::Model> model;
  FslGateways io;
};

TimesThree build_times_three() {
  const FixFormat word32 = FixFormat::signed_fix(32, 0);
  const FixFormat boolf = FixFormat::unsigned_fix(1, 0);
  TimesThree hw;
  hw.model = std::make_unique<sg::Model>("times_three");
  auto& data_in = hw.model->add<sg::GatewayIn>("fsl.data", word32);
  auto& exists = hw.model->add<sg::GatewayIn>("fsl.exists", boolf);
  auto& read_ack = hw.model->add<sg::GatewayOut>("fsl.read", exists.out());
  auto& three =
      hw.model->add<sg::Constant>("three", Fix::from_int(word32, 3));
  auto& product = hw.model->add<sg::Mult>("mult", data_in.out(), three.out(),
                                          word32, /*latency=*/0);
  auto& data_out = hw.model->add<sg::GatewayOut>("fsl.dout", product.out());
  auto& write = hw.model->add<sg::GatewayOut>("fsl.write", exists.out());
  hw.io.s_data = &data_in;
  hw.io.s_exists = &exists;
  hw.io.s_read = &read_ack;
  hw.io.m_data = &data_out;
  hw.io.m_write = &write;
  return hw;
}

TEST(SimSystemBuilder, MissingProgramIsAnError) {
  auto built = SimSystem::Builder().build();
  ASSERT_FALSE(built.ok());
  EXPECT_NE(built.error().find("no program"), std::string::npos);
}

TEST(SimSystemBuilder, BadAssemblyIsAnError) {
  auto built = SimSystem::Builder().program("frobnicate r1, r2\n").build();
  ASSERT_FALSE(built.ok());
  EXPECT_NE(built.error().find("does not assemble"), std::string::npos);
}

TEST(SimSystemBuilder, ChannelOutOfRangeIsAnError) {
  TimesThree hw = build_times_three();
  auto built = SimSystem::Builder()
                   .program("halt\n")
                   .hardware(std::move(hw.model))
                   .bind_fsl(8, hw.io)
                   .build();
  ASSERT_FALSE(built.ok());
  EXPECT_NE(built.error().find("out of range"), std::string::npos);
}

TEST(SimSystemBuilder, ChannelBoundTwiceIsAnError) {
  TimesThree hw = build_times_three();
  auto built = SimSystem::Builder()
                   .program("halt\n")
                   .hardware(std::move(hw.model))
                   .bind_fsl(0, hw.io)
                   .bind_fsl(0, hw.io)
                   .build();
  ASSERT_FALSE(built.ok());
  EXPECT_NE(built.error().find("bound twice"), std::string::npos);
}

TEST(SimSystemBuilder, BindWithoutHardwareIsAnError) {
  TimesThree hw = build_times_three();  // keeps the gateways alive
  auto built =
      SimSystem::Builder().program("halt\n").bind_fsl(0, hw.io).build();
  ASSERT_FALSE(built.ok());
  EXPECT_NE(built.error().find("no hardware model"), std::string::npos);
}

TEST(SimSystemBuilder, IncompleteSlaveSideIsAnError) {
  TimesThree hw = build_times_three();
  FslGateways io = hw.io;
  io.s_read = nullptr;  // slave side now lacks its required read ack
  auto built = SimSystem::Builder()
                   .program("halt\n")
                   .hardware(std::move(hw.model))
                   .bind_fsl(0, io)
                   .build();
  ASSERT_FALSE(built.ok());
  EXPECT_NE(built.error().find("s_read"), std::string::npos);
}

TEST(SimSystemBuilder, EmptyGatewaySetIsAnError) {
  TimesThree hw = build_times_three();
  auto built = SimSystem::Builder()
                   .program("halt\n")
                   .hardware(std::move(hw.model))
                   .bind_fsl(0, FslGateways{})
                   .build();
  ASSERT_FALSE(built.ok());
  EXPECT_NE(built.error().find("binds no gateways"), std::string::npos);
}

TEST(SimSystemBuilder, ModelAndFactoryAreMutuallyExclusive) {
  TimesThree hw = build_times_three();
  auto built = SimSystem::Builder()
                   .program("halt\n")
                   .hardware(std::move(hw.model))
                   .hardware([] { return HardwareBundle{}; })
                   .build();
  ASSERT_FALSE(built.ok());
  EXPECT_NE(built.error().find("mutually exclusive"), std::string::npos);
}

TEST(SimSystemBuilder, FactoryExceptionIsCaptured) {
  auto built = SimSystem::Builder()
                   .program("halt\n")
                   .hardware([]() -> HardwareBundle {
                     throw SimError("peripheral generator exploded");
                   })
                   .build();
  ASSERT_FALSE(built.ok());
  EXPECT_NE(built.error().find("peripheral generator exploded"),
            std::string::npos);
}

TEST(SimSystemBuilder, ProgramTooLargeForMemoryIsAnError) {
  auto built = SimSystem::Builder()
                   .program(".space 4096\nhalt\n")
                   .memory_bytes(1024)
                   .build();
  ASSERT_FALSE(built.ok());
}

// The acceptance check of the facade: building through SimSystem must be
// cycle- and bit-identical to the ~20-line hand wiring it replaces.
TEST(SimSystem, MatchesManualWiring) {
  // Manual low-level wiring, exactly as examples/custom_peripheral.cpp.
  TimesThree manual_hw = build_times_three();
  const assembler::Program program =
      assembler::assemble_or_throw(kTimesThreeSource);
  iss::LmbMemory memory;
  memory.load_program(program);
  fsl::FslHub hub;
  iss::Processor cpu(isa::CpuConfig{}, memory, &hub);
  core::CoSimEngine engine(cpu, *manual_hw.model, hub);
  core::SlaveBinding slave;
  slave.channel = 0;
  slave.data = manual_hw.io.s_data;
  slave.exists = manual_hw.io.s_exists;
  slave.read = manual_hw.io.s_read;
  engine.bridge().bind_slave(slave);
  core::MasterBinding master;
  master.channel = 0;
  master.data = manual_hw.io.m_data;
  master.write = manual_hw.io.m_write;
  engine.bridge().bind_master(master);
  engine.reset(program.entry());
  const core::StopReason manual_reason = engine.run();
  const core::CoSimStats manual_stats = engine.stats();

  // The same design through the facade.
  TimesThree hw = build_times_three();
  auto built = SimSystem::Builder()
                   .program(kTimesThreeSource)
                   .hardware(std::move(hw.model))
                   .bind_fsl(0, hw.io)
                   .build();
  ASSERT_TRUE(built.ok()) << built.error();
  SimSystem system = std::move(built).value();
  const core::StopReason reason = system.run();
  const core::CoSimStats stats = system.stats();

  EXPECT_EQ(reason, manual_reason);
  EXPECT_EQ(stats.cycles, manual_stats.cycles);
  EXPECT_EQ(stats.instructions, manual_stats.instructions);
  EXPECT_EQ(stats.fsl_stall_cycles, manual_stats.fsl_stall_cycles);
  EXPECT_EQ(stats.bridge.words_to_hw, manual_stats.bridge.words_to_hw);
  EXPECT_EQ(stats.bridge.words_from_hw, manual_stats.bridge.words_from_hw);
  for (unsigned i = 0; i < 4; ++i) {
    EXPECT_EQ(system.word("outputs", i),
              memory.read_word(program.symbol("outputs") + 4 * i));
  }
}

TEST(SimSystem, SoftwareOnlySystemRuns) {
  auto built = SimSystem::Builder()
                   .program(R"(
                     li  r3, 0
                     li  r4, 10
                   loop:
                     addik r3, r3, 7
                     addik r4, r4, -1
                     bnei r4, loop
                     la  r5, result
                     swi r3, r5, 0
                     halt
                   result: .space 4
                   )")
                   .build();
  ASSERT_TRUE(built.ok()) << built.error();
  SimSystem system = std::move(built).value();
  EXPECT_EQ(system.hardware(), nullptr);
  EXPECT_EQ(system.engine(), nullptr);
  EXPECT_EQ(system.run(), core::StopReason::kHalted);
  EXPECT_EQ(system.word("result"), 70u);
  EXPECT_GT(system.stats().cycles, 0u);
  EXPECT_EQ(system.stats().hw_cycles_stepped, 0u);
}

TEST(SimSystem, SoftwareOnlyDeadlockIsReported) {
  // A blocking FSL read with no hardware attached can never complete.
  auto built = SimSystem::Builder()
                   .program("get r4, rfsl0\nhalt\n")
                   .deadlock_threshold(200)
                   .build();
  ASSERT_TRUE(built.ok()) << built.error();
  SimSystem system = std::move(built).value();
  EXPECT_EQ(system.run(), core::StopReason::kDeadlock);
}

TEST(SimSystem, HardwareDeadlockIsReported) {
  // A peripheral that never reads nor writes: the processor's blocking
  // get starves and the engine's deadlock heuristic must fire.
  auto model = std::make_unique<sg::Model>("dead");
  const FixFormat word32 = FixFormat::signed_fix(32, 0);
  const FixFormat boolf = FixFormat::unsigned_fix(1, 0);
  auto& data_in = model->add<sg::GatewayIn>("fsl.data", word32);
  auto& exists = model->add<sg::GatewayIn>("fsl.exists", boolf);
  auto& never =
      model->add<sg::Constant>("never", Fix::from_int(boolf, 0));
  auto& read_ack = model->add<sg::GatewayOut>("fsl.read", never.out());
  FslGateways io;
  io.s_data = &data_in;
  io.s_exists = &exists;
  io.s_read = &read_ack;
  auto built = SimSystem::Builder()
                   .program("put r3, rfsl0\nget r4, rfsl0\nhalt\n")
                   .hardware(std::move(model))
                   .bind_fsl(0, io)
                   .deadlock_threshold(500)
                   .build();
  ASSERT_TRUE(built.ok()) << built.error();
  SimSystem system = std::move(built).value();
  EXPECT_EQ(system.run(), core::StopReason::kDeadlock);
}

TEST(SimSystem, ResetAllowsRerun) {
  TimesThree hw = build_times_three();
  auto built = SimSystem::Builder()
                   .program(kTimesThreeSource)
                   .hardware(std::move(hw.model))
                   .bind_fsl(0, hw.io)
                   .build();
  ASSERT_TRUE(built.ok()) << built.error();
  SimSystem system = std::move(built).value();
  ASSERT_EQ(system.run(), core::StopReason::kHalted);
  const Cycle first = system.stats().cycles;
  system.reset();
  ASSERT_EQ(system.run(), core::StopReason::kHalted);
  EXPECT_EQ(system.stats().cycles, first);
}

TEST(SimSystem, ResourceAndEnergyReportsCoverTheWholeDesign) {
  TimesThree hw = build_times_three();
  auto built = SimSystem::Builder()
                   .program(kTimesThreeSource)
                   .hardware(std::move(hw.model))
                   .bind_fsl(0, hw.io)
                   .build();
  ASSERT_TRUE(built.ok()) << built.error();
  SimSystem system = std::move(built).value();
  ASSERT_EQ(system.run(), core::StopReason::kHalted);
  const auto report = system.resource_report();
  EXPECT_GT(report.estimated.slices, 0u);
  EXPECT_GT(report.estimated.mult18s, 0u);  // the peripheral's multiplier
  const auto energy = system.energy_report();
  EXPECT_GT(energy.processor_nj, 0.0);
  EXPECT_GT(energy.peripheral_nj, 0.0);
  EXPECT_EQ(energy.cycles, system.stats().cycles);
}

// ------------------------------------------------- stop points and cuts

using MakeBuilder = std::function<SimSystem::Builder()>;

// A pure-software accumulator loop (r3 is the running sum).
constexpr const char* kSumSource = R"(
    li  r3, 0
    li  r4, 300
  loop:
    addik r3, r3, 7
    addik r4, r4, -1
    bnei r4, loop
    la  r5, result
  done:
    swi r3, r5, 0
    halt
  result: .space 4
)";

SimSystem::Builder software_only() {
  SimSystem::Builder builder;
  builder.program(kSumSource);
  return builder;
}

// CORDIC division at P=4, the pipeline peripheral on FSL channel 0.
SimSystem::Builder cordic_p4() {
  apps::register_machine_peripherals();
  const auto [x, y] = apps::cordic::make_cordic_dataset(10, 7);
  machine::MachineDesc desc;
  machine::CoreDesc core;
  core.name = "cpu0";
  core.program = apps::cordic::hw_driver_program(x, y, 24, 4);
  desc.cores = {core};
  machine::PeripheralDesc pipeline;
  pipeline.core = "cpu0";
  pipeline.type = "cordic";
  pipeline.params["num_pes"] = 4;
  desc.peripherals = {pipeline};
  SimSystem::Builder builder;
  builder.machine(std::move(desc));
  return builder;
}

// Two cores, each driving its own block-multiplier peripheral, sharing
// no link. (The linked three-core farm further down covers cuts across
// cross-core traffic.)
SimSystem::Builder matmul_two_core() {
  namespace matmul = mbcosim::apps::matmul;
  apps::register_machine_peripherals();
  machine::CoreDesc core_template;
  core_template.name = "pe";
  core_template.program = matmul::hw_driver_program(
      matmul::make_matrix(8, 3), matmul::make_matrix(8, 7), 4);
  machine::MachineDesc desc =
      machine::MachineDesc::replicated(2, core_template);
  for (const machine::CoreDesc& core : desc.cores) {
    machine::PeripheralDesc mac;
    mac.core = core.name;
    mac.type = "matmul";
    mac.params["block_size"] = 4;
    desc.peripherals.push_back(mac);
  }
  SimSystem::Builder builder;
  builder.machine(std::move(desc)).workers(1);
  return builder;
}

// A register bit flip triggered when the processor reaches `label`.
std::string pc_fault(const std::string& source, const std::string& label) {
  char spec[96];
  std::snprintf(spec, sizeof spec, "site=reg,mode=bitflip,pc=0x%x,reg=3",
                assembler::assemble_or_throw(source).symbol(label));
  return spec;
}

struct Scenario {
  std::string fault_spec;  ///< empty: fault-free
  Cycle checkpoint_every = 0;
};

struct Outcome {
  core::StopReason reason = core::StopReason::kCycleLimit;
  core::CoSimStats stats;
  std::vector<unsigned char> image;  ///< snapshot(): the whole machine
  std::string metrics;
  std::vector<std::string> traces;  ///< one JSONL stream per core
  bool fault_applied = false;
  std::string fault_detail;
};

// Build the system for `scenario`, run it through run(cut) for every
// cut and then a final run(), and record everything observable. With
// `traced`, every core gets a JSONL sink and the system a metrics
// registry (which also keeps the processors on the precise path).
Outcome run_cut(const MakeBuilder& make, const Scenario& scenario,
                const std::vector<Cycle>& cuts, bool traced,
                const std::string& checkpoint_prefix) {
  SimSystem::Builder builder = make();
  if (!scenario.fault_spec.empty()) {
    const Expected<fault::FaultPlan> plan =
        fault::parse_plan(scenario.fault_spec);
    EXPECT_TRUE(plan.ok()) << plan.error();
    builder.fault(plan.value());
  }
  if (scenario.checkpoint_every != 0) {
    builder.checkpoint_every(scenario.checkpoint_every, checkpoint_prefix);
  }
  if (traced) builder.metrics();
  auto built = builder.build();
  EXPECT_TRUE(built.ok()) << built.error();
  SimSystem system = std::move(built).value();
  std::vector<std::unique_ptr<std::ostringstream>> streams;
  if (traced) {
    for (std::size_t i = 0; i < system.core_count(); ++i) {
      streams.push_back(std::make_unique<std::ostringstream>());
      system.trace_bus(i).add_sink(
          std::make_unique<obs::JsonlSink>(*streams.back()));
    }
  }
  for (const Cycle cut : cuts) system.run(cut);

  Outcome outcome;
  outcome.reason = system.run();
  outcome.stats = system.stats();
  outcome.image = system.snapshot();
  outcome.metrics = system.metrics_snapshot().to_string();
  for (const auto& stream : streams) outcome.traces.push_back(stream->str());
  if (const fault::Injector* injector = system.fault_injector()) {
    outcome.fault_applied = injector->applied();
    outcome.fault_detail = injector->detail();
  }
  return outcome;
}

void expect_same_outcome(const Outcome& cut, const Outcome& whole,
                         const std::string& what) {
  SCOPED_TRACE(what);
  EXPECT_EQ(cut.reason, whole.reason);
  EXPECT_EQ(cut.stats.cycles, whole.stats.cycles);
  EXPECT_EQ(cut.stats.instructions, whole.stats.instructions);
  EXPECT_EQ(cut.stats.fsl_stall_cycles, whole.stats.fsl_stall_cycles);
  EXPECT_EQ(cut.stats.hw_cycles_stepped, whole.stats.hw_cycles_stepped);
  EXPECT_EQ(cut.stats.hw_cycles_skipped, whole.stats.hw_cycles_skipped);
  EXPECT_EQ(cut.stats.bridge.words_to_hw, whole.stats.bridge.words_to_hw);
  EXPECT_EQ(cut.stats.bridge.words_from_hw,
            whole.stats.bridge.words_from_hw);
  EXPECT_TRUE(cut.image == whole.image) << "final machine state differs";
  EXPECT_EQ(cut.metrics, whole.metrics);
  ASSERT_EQ(cut.traces.size(), whole.traces.size());
  for (std::size_t i = 0; i < cut.traces.size(); ++i) {
    EXPECT_TRUE(cut.traces[i] == whole.traces[i])
        << "JSONL trace of core " << i << " differs";
  }
  EXPECT_EQ(cut.fault_applied, whole.fault_applied);
  EXPECT_EQ(cut.fault_detail, whole.fault_detail);
}

class ScratchDir {
 public:
  explicit ScratchDir(const std::string& name)
      : path_(std::filesystem::temp_directory_path() /
              ("mbcosim_" + name + "_" + std::to_string(::getpid()))) {
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~ScratchDir() { std::filesystem::remove_all(path_); }
  [[nodiscard]] std::string prefix(const std::string& stem) const {
    return (path_ / stem).string();
  }

 private:
  std::filesystem::path path_;
};

// Every scenario run whole and cut at `cuts`, untraced (batched fast
// path) and traced (precise path, JSONL + metrics): identical outcomes.
void expect_cut_invariant(const std::string& name, const MakeBuilder& make,
                          const std::vector<Scenario>& scenarios,
                          const std::vector<Cycle>& cuts) {
  const ScratchDir dir(name);
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    const Scenario& scenario = scenarios[i];
    for (const bool traced : {false, true}) {
      const std::string what =
          name + " [" +
          (scenario.fault_spec.empty() ? "no fault" : scenario.fault_spec) +
          ", checkpoint_every " + std::to_string(scenario.checkpoint_every) +
          (traced ? ", traced]" : ", untraced]");
      const std::string stem = "s" + std::to_string(i) + "_";
      const Outcome whole =
          run_cut(make, scenario, {}, traced, dir.prefix(stem + "whole_"));
      EXPECT_EQ(whole.reason, core::StopReason::kHalted) << what;
      if (!scenario.fault_spec.empty()) {
        EXPECT_TRUE(whole.fault_applied) << what;
      }
      const Outcome cut =
          run_cut(make, scenario, cuts, traced, dir.prefix(stem + "cut_"));
      expect_same_outcome(cut, whole, what);
    }
  }
}

TEST(SimSystemRunLoop, SoftwareOnlyRunIsCutInvariant) {
  const std::string at_done = pc_fault(kSumSource, "done");
  const std::vector<Scenario> scenarios = {
      {},
      {"site=reg,mode=bitflip,cycle=500,reg=3"},
      {at_done},
      {{}, 333},
      {"site=reg,mode=bitflip,cycle=500,reg=3", 333},
      {at_done, 333},
  };
  expect_cut_invariant("software_only", software_only, scenarios,
                       {1, 250, 497, 500, 501, 777, 905});
}

TEST(SimSystemRunLoop, CordicP4RunIsCutInvariant) {
  // The pc trigger is the top of the driver's result loop, first
  // reached after the pipeline has been filled.
  const auto [x, y] = apps::cordic::make_cordic_dataset(10, 7);
  const std::string at_recv_loop =
      pc_fault(apps::cordic::hw_driver_program(x, y, 24, 4), "recv_loop");
  const std::vector<Scenario> scenarios = {
      {},
      {"site=reg,mode=bitflip,cycle=1200,reg=3"},
      {at_recv_loop},
      {{}, 700},
      {"site=reg,mode=bitflip,cycle=1200,reg=3", 700},
      {at_recv_loop, 700},
  };
  expect_cut_invariant("cordic_p4", cordic_p4, scenarios,
                       {3, 640, 1195, 1200, 1203, 2048, 2999});
}

TEST(SimSystemRunLoop, TwoCoreMachineRunIsCutInvariant) {
  // Multi-core machines take cycle triggers only.
  const std::vector<Scenario> scenarios = {
      {},
      {"site=reg,mode=bitflip,cycle=3000,reg=3,core=1"},
      {{}, 2500},
      {"site=reg,mode=bitflip,cycle=3000,reg=3,core=1", 2500},
  };
  expect_cut_invariant("matmul_two_core", matmul_two_core, scenarios,
                       {100, 2990, 3000, 3001, 4100, 9999});
}

TEST(SimSystemRunLoop, FaultAndCheckpointsTogetherWriteCheckpoints) {
  const ScratchDir dir("fault_and_checkpoints");
  const Scenario faulted{"site=reg,mode=bitflip,cycle=500,reg=3"};
  const Scenario both{"site=reg,mode=bitflip,cycle=500,reg=3", 300};
  const Outcome plain =
      run_cut(software_only, faulted, {}, true, dir.prefix("plain_"));
  const Outcome checkpointed =
      run_cut(software_only, both, {}, true, dir.prefix("both_"));
  expect_same_outcome(checkpointed, plain, "fault + checkpoint_every");
  EXPECT_TRUE(checkpointed.fault_applied);
  // Boundaries at ~300, ~600 and ~900 cycles of a ~1210-cycle run.
  for (const char* file : {"both_000000.ckpt", "both_000001.ckpt",
                           "both_000002.ckpt"}) {
    EXPECT_TRUE(std::filesystem::exists(dir.prefix(file))) << file;
  }
}

// A run cut just before a cycle trigger must not fire it early: the
// plan stays armed, and the next run() fires it exactly where one
// uncut run does.
TEST(SimSystemRunLoop, CycleTriggerFiresOnlyWhenTheClockReachesIt) {
  const auto plan = fault::parse_plan("site=reg,mode=bitflip,cycle=500,reg=3");
  ASSERT_TRUE(plan.ok()) << plan.error();
  const auto build = [&plan] {
    auto built = software_only().fault(plan.value()).build();
    EXPECT_TRUE(built.ok()) << built.error();
    return std::move(built).value();
  };
  SimSystem whole = build();
  ASSERT_EQ(whole.run(), core::StopReason::kHalted);
  ASSERT_TRUE(whole.fault_injector()->applied());

  for (const Cycle k : {Cycle{1}, Cycle{3}, Cycle{100}}) {
    SCOPED_TRACE("cut at trigger - " + std::to_string(k));
    SimSystem cut = build();
    EXPECT_EQ(cut.run(500 - k), core::StopReason::kCycleLimit);
    EXPECT_LT(cut.stats().cycles, Cycle{500});
    EXPECT_FALSE(cut.fault_injector()->armed_or_fired());
    EXPECT_FALSE(cut.fault_injector()->applied());
    EXPECT_EQ(cut.run(), core::StopReason::kHalted);
    EXPECT_EQ(cut.stats().cycles, whole.stats().cycles);
    EXPECT_EQ(cut.stats().instructions, whole.stats().instructions);
    EXPECT_EQ(cut.word("result"), whole.word("result"));
    EXPECT_TRUE(cut.fault_injector()->applied());
    EXPECT_EQ(cut.fault_injector()->detail(),
              whole.fault_injector()->detail());
  }
}

TEST(SimSystemRunLoop, BudgetEndingBeforeTheTriggerLeavesTheFaultUnapplied) {
  const auto plan = fault::parse_plan("site=reg,mode=bitflip,cycle=900,reg=3");
  ASSERT_TRUE(plan.ok()) << plan.error();
  auto built = software_only().fault(plan.value()).build();
  ASSERT_TRUE(built.ok()) << built.error();
  SimSystem single = std::move(built).value();
  EXPECT_EQ(single.run(400), core::StopReason::kCycleLimit);
  EXPECT_FALSE(single.fault_injector()->applied());

  auto plan_on_core1 =
      fault::parse_plan("site=reg,mode=bitflip,cycle=3000,reg=3,core=1");
  ASSERT_TRUE(plan_on_core1.ok()) << plan_on_core1.error();
  auto built_machine = matmul_two_core().fault(plan_on_core1.value()).build();
  ASSERT_TRUE(built_machine.ok()) << built_machine.error();
  SimSystem machine = std::move(built_machine).value();
  EXPECT_EQ(machine.run(2000), core::StopReason::kCycleLimit);
  EXPECT_FALSE(machine.fault_injector()->applied());
  EXPECT_EQ(machine.run(), core::StopReason::kHalted);
  EXPECT_TRUE(machine.fault_injector()->applied());
}

// A program that deadlocks before reaching its pc trigger reports the
// deadlock exactly as a free run does: same diagnosis, same trace event.
TEST(SimSystemRunLoop, PcTriggeredRunReportsDeadlockLikeAFreeRun) {
  constexpr const char* kStarved = R"(
      li  r3, 5
    blocked:
      get r4, rfsl0
    never:
      halt
  )";
  const auto run = [](const char* fault_spec) {
    SimSystem::Builder builder;
    builder.program(kStarved).deadlock_threshold(150);
    if (fault_spec != nullptr) {
      const auto plan = fault::parse_plan(fault_spec);
      EXPECT_TRUE(plan.ok()) << plan.error();
      builder.fault(plan.value());
    }
    auto stream = std::make_unique<std::ostringstream>();
    std::ostringstream* trace = stream.get();
    builder.sink(std::make_unique<obs::JsonlSink>(*trace));
    auto built = builder.build();
    EXPECT_TRUE(built.ok()) << built.error();
    SimSystem system = std::move(built).value();
    const core::StopReason reason = system.run();
    const auto diagnosis = system.deadlock_diagnosis();
    return std::make_tuple(reason, diagnosis, trace->str(),
                           std::move(system));
  };
  const std::string at_never = pc_fault(kStarved, "never");
  auto [free_reason, free_diagnosis, free_trace, free_system] = run(nullptr);
  auto [pc_reason, pc_diagnosis, pc_trace, pc_system] =
      run(at_never.c_str());

  EXPECT_EQ(free_reason, core::StopReason::kDeadlock);
  EXPECT_EQ(pc_reason, core::StopReason::kDeadlock);
  ASSERT_TRUE(free_diagnosis.has_value());
  ASSERT_TRUE(pc_diagnosis.has_value());
  EXPECT_EQ(pc_diagnosis->to_string(), free_diagnosis->to_string());
  EXPECT_NE(free_trace.find("\"deadlock\""), std::string::npos);
  EXPECT_EQ(pc_trace, free_trace);
  EXPECT_FALSE(pc_system.fault_injector()->armed_or_fired());
}

// ------------------------------------------ linked machine, any cut

// Three cores over two cross-core links: the feeder streams four (x, y)
// pairs per pass to the worker, whose 4-PE CORDIC pipeline divides
// them, and the worker forwards the quotients to the collector. 500
// passes take more than 50000 cycles, with the cores blocking on each
// other's links all the way. Link barriers sit on quantum multiples
// however a run is cut, so every chunking and every restore must
// reproduce the uncut run.
constexpr const char* kLinkedFeeder = R"(
start:
  li r25, 500
pass_loop:
  la r21, data_x
  la r22, data_y
  li r29, 16
  addk r10, r0, r0
item_loop:
  lw r3, r21, r10
  put r3, rfsl1
  lw r4, r22, r10
  put r4, rfsl1
  addik r10, r10, 4
  rsub r3, r10, r29
  bnei r3, item_loop
  addik r25, r25, -1
  bnei r25, pass_loop
  halt
data_x:
  .word 0x01000000
  .word 0x02000000
  .word 0x01800000
  .word 0x04000000
data_y:
  .word 0x00800000
  .word 0x03000000
  .word 0x00c00000
  .word 0x01000000
)";

constexpr const char* kLinkedWorker = R"(
start:
  li r25, 500
pass_loop:
  cput r0, rfsl0
  li r5, 4
send_loop:
  get r3, rfsl1
  put r3, rfsl0
  get r3, rfsl1
  put r3, rfsl0
  put r0, rfsl0
  addik r5, r5, -1
  bnei r5, send_loop
  li r5, 4
recv_loop:
  get r3, rfsl0
  get r3, rfsl0
  get r3, rfsl0
  put r3, rfsl2
  addik r5, r5, -1
  bnei r5, recv_loop
  addik r25, r25, -1
  bnei r25, pass_loop
  halt
)";

constexpr const char* kLinkedCollector = R"(
start:
  li r25, 500
pass_loop:
  la r28, results
  li r29, 16
  addk r10, r0, r0
store_loop:
  get r3, rfsl1
  sw r3, r28, r10
  addik r10, r10, 4
  rsub r3, r10, r29
  bnei r3, store_loop
  addik r25, r25, -1
  bnei r25, pass_loop
  halt
results: .space 16
)";

SimSystem build_linked_farm(unsigned workers) {
  apps::register_machine_peripherals();
  machine::MachineDesc desc;
  machine::CoreDesc feeder;
  feeder.name = "feeder";
  feeder.program = kLinkedFeeder;
  machine::CoreDesc worker;
  worker.name = "worker";
  worker.program = kLinkedWorker;
  machine::CoreDesc collector;
  collector.name = "collector";
  collector.program = kLinkedCollector;
  desc.cores = {feeder, worker, collector};
  desc.links = {{"feeder", 1, "worker", 1}, {"worker", 2, "collector", 1}};
  machine::PeripheralDesc pipeline;
  pipeline.core = "worker";
  pipeline.type = "cordic";
  pipeline.channel = 0;
  pipeline.params["num_pes"] = 4;
  desc.peripherals = {pipeline};
  auto built = SimSystem::Builder().machine(std::move(desc)).workers(workers)
                   .build();
  EXPECT_TRUE(built.ok()) << built.error();
  return std::move(built).value();
}

struct LinkedRun {
  core::StopReason reason = core::StopReason::kCycleLimit;
  std::vector<core::CoSimStats> cores;
  u64 link_words = 0;
  std::vector<Word> results;
};

// Run `system` to the end — in one run() when `chunk` is 0, else in
// run(now + chunk) steps as a hosted session does — and record it.
LinkedRun finish_linked(SimSystem& system, Cycle chunk) {
  LinkedRun run;
  if (chunk == 0) {
    run.reason = system.run();
  } else {
    do {
      run.reason = system.run(system.stats().cycles + chunk);
    } while (run.reason == core::StopReason::kCycleLimit);
  }
  for (std::size_t i = 0; i < system.core_count(); ++i) {
    run.cores.push_back(system.core_stats(i));
  }
  run.link_words = system.machine_engine()->link_words();
  for (u32 i = 0; i < 4; ++i) {
    run.results.push_back(system.word_on(2, "results", i));
  }
  return run;
}

void expect_same_linked_run(const LinkedRun& run, const LinkedRun& whole,
                            const std::string& what) {
  SCOPED_TRACE(what);
  EXPECT_EQ(run.reason, whole.reason);
  EXPECT_EQ(run.link_words, whole.link_words);
  EXPECT_EQ(run.results, whole.results);
  ASSERT_EQ(run.cores.size(), whole.cores.size());
  for (std::size_t i = 0; i < run.cores.size(); ++i) {
    const core::CoSimStats& got = run.cores[i];
    const core::CoSimStats& want = whole.cores[i];
    EXPECT_EQ(got.cycles, want.cycles) << "core " << i;
    EXPECT_EQ(got.instructions, want.instructions) << "core " << i;
    EXPECT_EQ(got.fsl_stall_cycles, want.fsl_stall_cycles) << "core " << i;
    EXPECT_EQ(got.hw_cycles_stepped, want.hw_cycles_stepped) << "core " << i;
    EXPECT_EQ(got.hw_cycles_skipped, want.hw_cycles_skipped) << "core " << i;
    EXPECT_EQ(got.bridge.words_to_hw, want.bridge.words_to_hw)
        << "core " << i;
    EXPECT_EQ(got.bridge.words_from_hw, want.bridge.words_from_hw)
        << "core " << i;
    EXPECT_EQ(got.bridge.refused_writes, want.bridge.refused_writes)
        << "core " << i;
  }
}

TEST(SimSystemRunLoop, LinkedMachineIsCutAndRestoreInvariant) {
  SimSystem reference = build_linked_farm(1);
  const LinkedRun whole = finish_linked(reference, 0);
  ASSERT_EQ(whole.reason, core::StopReason::kHalted);
  ASSERT_GT(whole.cores[0].cycles, 50'000u);  // the 50000 chunk cuts too
  ASSERT_EQ(whole.link_words, 500u * 12u);
  ASSERT_EQ(reference.machine_engine()->quantum(), 64u);

  for (const unsigned workers : {1u, 3u}) {
    const std::string at = std::to_string(workers) + " workers";
    for (const Cycle chunk : {37u, 1000u, 50'000u}) {
      SimSystem system = build_linked_farm(workers);
      expect_same_linked_run(finish_linked(system, chunk), whole,
                             "chunks of " + std::to_string(chunk) + ", " +
                                 at);
    }
    // Saved off the quantum grid, restored into a fresh system.
    for (const Cycle stop : {1000u, 20'011u}) {
      SimSystem base = build_linked_farm(workers);
      ASSERT_EQ(base.run(stop), core::StopReason::kCycleLimit);
      const std::vector<unsigned char> image = base.snapshot();
      SimSystem restored = build_linked_farm(workers);
      const Status status = restored.restore_image(image);
      ASSERT_TRUE(status.ok) << status.message;
      expect_same_linked_run(finish_linked(restored, 0), whole,
                             "restored at " + std::to_string(stop) + ", " +
                                 at);
    }
  }
}

// A cut one cycle short of a barrier, while a core is in the middle of
// a 34-cycle divide that ends past it: that core's clock is already
// beyond the barrier when the run resumes, but the barrier must still
// happen where the uncut run has it. The producer's word waits in its
// FIFO for the barrier at cycle 64; the consumer is blocked on it.
TEST(SimSystemRunLoop, CutWhileACoreIsMidInstructionKeepsTheBarrier) {
  machine::MachineDesc desc;
  machine::CoreDesc producer;
  producer.name = "producer";
  producer.program = R"(
    li r3, 7
    li r6, 1000
    li r7, 3
    li r9, 4
    put r3, rfsl2
  loop:
    idiv r8, r7, r6
    addik r9, r9, -1
    bnei r9, loop
    halt
  )";
  machine::CoreDesc consumer;
  consumer.name = "consumer";
  consumer.program = R"(
    get r3, rfsl1
    la r5, result
    swi r3, r5, 0
    halt
  result: .space 4
  )";
  producer.has_divider = true;
  desc.cores = {producer, consumer};
  desc.links = {{"producer", 2, "consumer", 1}};
  const auto build = [&desc] {
    auto built = SimSystem::Builder().machine(desc).workers(1).build();
    EXPECT_TRUE(built.ok()) << built.error();
    return std::move(built).value();
  };
  const auto expect_same = [](SimSystem& run, SimSystem& whole,
                              const std::string& what) {
    SCOPED_TRACE(what);
    EXPECT_EQ(run.word_on(1, "result"), 7u);
    for (std::size_t i = 0; i < 2; ++i) {
      EXPECT_EQ(run.core_stats(i).cycles, whole.core_stats(i).cycles);
      EXPECT_EQ(run.core_stats(i).fsl_stall_cycles,
                whole.core_stats(i).fsl_stall_cycles);
    }
  };

  SimSystem whole = build();
  ASSERT_EQ(whole.run(), core::StopReason::kHalted);
  ASSERT_EQ(whole.machine_engine()->quantum(), 64u);

  SimSystem cut = build();
  ASSERT_EQ(cut.run(63), core::StopReason::kCycleLimit);
  ASSERT_GT(cut.core_stats(0).cycles, 64u);  // mid-divide across 64
  ASSERT_EQ(cut.core_stats(1).cycles, 63u);  // blocked on the link
  const std::vector<unsigned char> image = cut.snapshot();
  ASSERT_EQ(cut.run(), core::StopReason::kHalted);
  expect_same(cut, whole, "cut at 63");

  SimSystem restored = build();
  ASSERT_TRUE(restored.restore_image(image).ok);
  ASSERT_EQ(restored.run(), core::StopReason::kHalted);
  expect_same(restored, whole, "restored at 63");
}

// ------------------------------------------------- deadlocks, any cut

// The deadlock streak is engine state: a starved core must stop at the
// same cycle, with the same diagnosis, however the run is cut — in
// chunks shorter or longer than the threshold, at checkpoint_every
// boundaries, or through a save/restore taken mid-stall.
constexpr Cycle kStarvedThreshold = 2000;
constexpr Cycle kStarvedBudget = 1'000'000;

SimSystem::Builder starved_single_core() {
  SimSystem::Builder builder;
  builder.program(R"(
      li  r3, 5
    blocked:
      get r4, rfsl0
      halt
  )").deadlock_threshold(kStarvedThreshold);
  return builder;
}

SimSystem::Builder starved_two_core() {
  machine::MachineDesc desc;
  machine::CoreDesc producer;
  producer.name = "producer";
  producer.program = "halt\n";  // never feeds the link
  machine::CoreDesc consumer;
  consumer.name = "consumer";
  consumer.program = "get r3, rfsl1\nhalt\n";
  desc.cores = {producer, consumer};
  desc.links = {{"producer", 2, "consumer", 1}};
  SimSystem::Builder builder;
  builder.machine(std::move(desc)).deadlock_threshold(kStarvedThreshold);
  return builder;
}

struct DeadlockStop {
  core::StopReason reason = core::StopReason::kCycleLimit;
  std::vector<Cycle> cycles;  ///< per core
  std::size_t stop_core = 0;
  std::string diagnosis;
};

SimSystem build_from(SimSystem::Builder builder) {
  auto built = builder.build();
  EXPECT_TRUE(built.ok()) << built.error();
  return std::move(built).value();
}

// Run `system` until it stops: in one run() when `chunk` is 0, else in
// run(now + chunk) calls as a hosted session does.
DeadlockStop run_until_stop(SimSystem& system, Cycle chunk) {
  DeadlockStop stop;
  if (chunk == 0) {
    stop.reason = system.run(kStarvedBudget);
  } else {
    do {
      stop.reason = system.run(
          std::min(system.stats().cycles + chunk, kStarvedBudget));
    } while (stop.reason == core::StopReason::kCycleLimit &&
             system.stats().cycles < kStarvedBudget);
  }
  for (std::size_t i = 0; i < system.core_count(); ++i) {
    stop.cycles.push_back(system.core_stats(i).cycles);
  }
  stop.stop_core = system.stop_core();
  if (const auto diagnosis = system.deadlock_diagnosis()) {
    stop.diagnosis = diagnosis->to_string();
  }
  return stop;
}

void expect_same_stop(const DeadlockStop& got, const DeadlockStop& want,
                      const std::string& what) {
  SCOPED_TRACE(what);
  EXPECT_EQ(core::stop_reason_name(got.reason),
            std::string(core::stop_reason_name(want.reason)));
  EXPECT_EQ(got.cycles, want.cycles);
  EXPECT_EQ(got.stop_core, want.stop_core);
  EXPECT_EQ(got.diagnosis, want.diagnosis);
}

void expect_deadlock_cut_invariant(const std::string& name,
                                   const MakeBuilder& make) {
  SimSystem reference = build_from(make());
  const DeadlockStop whole = run_until_stop(reference, 0);
  ASSERT_EQ(whole.reason, core::StopReason::kDeadlock) << name;
  ASSERT_FALSE(whole.diagnosis.empty()) << name;

  for (const Cycle chunk : {Cycle{700}, Cycle{2047}, Cycle{4999}}) {
    SimSystem system = build_from(make());
    expect_same_stop(run_until_stop(system, chunk), whole,
                     name + ", chunks of " + std::to_string(chunk));
  }
  const ScratchDir dir(name + "_deadlock");
  for (const Cycle interval : {Cycle{900}, Cycle{3000}}) {
    SimSystem::Builder builder = make();
    builder.checkpoint_every(
        interval, dir.prefix("every" + std::to_string(interval) + "_"));
    SimSystem system = build_from(std::move(builder));
    expect_same_stop(run_until_stop(system, 0), whole,
                     name + ", checkpoint_every " + std::to_string(interval));
  }
  SimSystem base = build_from(make());
  ASSERT_EQ(base.run(1500), core::StopReason::kCycleLimit) << name;
  SimSystem restored = build_from(make());
  const Status status = restored.restore_image(base.snapshot());
  ASSERT_TRUE(status.ok) << status.message;
  expect_same_stop(run_until_stop(restored, 0), whole,
                   name + ", restored mid-stall at 1500");
}

TEST(SimSystemRunLoop, StarvedCoreDeadlockIsCutAndRestoreInvariant) {
  expect_deadlock_cut_invariant("starved_single_core", starved_single_core);
}

TEST(SimSystemRunLoop, StarvedMachineDeadlockIsCutAndRestoreInvariant) {
  expect_deadlock_cut_invariant("starved_two_core", starved_two_core);
}

}  // namespace
}  // namespace mbcosim::sim
