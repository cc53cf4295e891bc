// Multi-core machine tests: the declarative MachineDesc build path, the
// conservative-quantum parallel engine behind it, and the two promises
// the redesign makes —
//
//   1. determinism: stats and traces are byte-identical no matter how
//      many host workers advance the cores, and
//   2. compatibility: a single-core machine behaves exactly like the
//      legacy Builder shim it replaced.
//
// Also the home of the two-core FSL pipeline golden trace. Regenerate
// with:
//
//   MBCOSIM_REGEN_GOLDEN=1 ./tests/mbcosim_tests --gtest_filter='ManyCore.*'
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <initializer_list>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "apps/cordic/cordic_reference.hpp"
#include "apps/machine_peripherals.hpp"
#include "apps/matmul/matmul_app.hpp"
#include "core/manycore.hpp"
#include "fault/fault_plan.hpp"
#include "machine/machine_desc.hpp"
#include "obs/jsonl_sink.hpp"
#include "sim/peripheral_registry.hpp"
#include "sim/sim_system.hpp"
#include "sysgen/block.hpp"
#include "sysgen/model.hpp"

namespace mbcosim::sim {
namespace {

namespace cordic = mbcosim::apps::cordic;

/// ManyCoreEngine runs at most hardware_concurrency() lanes, so on a
/// small host a multi-worker run here starts fewer helper lanes than its
/// worker count says (on one CPU, none). Say so in the test log: a pass
/// there does not cover the lane barrier the worker count suggests.
void note_lane_shortfall(unsigned workers) {
  const unsigned host = std::max(std::thread::hardware_concurrency(), 1u);
  if (host < workers) {
    std::printf("[   NOTE   ] %u workers run on at most %u lane(s) here\n",
                workers, host);
  }
}

// ------------------------------------------------- two-core FSL pipeline

constexpr const char* kProducerProgram = R"(
start:
  la r21, data
  li r29, 16              # 4 words
  addk r10, r0, r0
loop:
  lw r3, r21, r10
  put r3, rfsl2
  addik r10, r10, 4
  rsub r3, r10, r29
  bnei r3, loop
  halt
data:
  .word 0x00000011
  .word 0x00000022
  .word 0x00000033
  .word 0x00000044
)";

constexpr const char* kConsumerProgram = R"(
start:
  la r28, results
  li r29, 16
  addk r10, r0, r0
loop:
  get r3, rfsl1
  sw r3, r28, r10
  addik r10, r10, 4
  rsub r3, r10, r29
  bnei r3, loop
  halt
results: .space 16
)";

machine::MachineDesc two_core_pipeline() {
  machine::MachineDesc desc;
  machine::CoreDesc producer;
  producer.name = "producer";
  producer.program = kProducerProgram;
  machine::CoreDesc consumer;
  consumer.name = "consumer";
  consumer.program = kConsumerProgram;
  desc.cores = {producer, consumer};
  desc.links = {{"producer", 2, "consumer", 1}};
  desc.quantum = 16;  // several rounds, with cross-quantum blocking
  return desc;
}

/// Build the two-core pipeline with one string-backed JSONL sink per
/// core, run it to completion, and return the concatenated traces
/// (producer first) — the golden-trace payload.
std::string run_traced_pipeline(std::vector<Word>* results = nullptr) {
  auto built = SimSystem::Builder().machine(two_core_pipeline()).build();
  EXPECT_TRUE(built.ok()) << built.error();
  SimSystem system = std::move(built).value();

  std::ostringstream producer_trace;
  std::ostringstream consumer_trace;
  system.trace_bus(0).add_sink(
      std::make_unique<obs::JsonlSink>(producer_trace));
  system.trace_bus(1).add_sink(
      std::make_unique<obs::JsonlSink>(consumer_trace));

  EXPECT_EQ(system.run(), core::StopReason::kHalted);
  if (results != nullptr) {
    for (u32 i = 0; i < 4; ++i) {
      results->push_back(system.word_on(1, "results", i));
    }
  }
  return producer_trace.str() + consumer_trace.str();
}

TEST(ManyCore, TwoCorePipelineDeliversWords) {
  std::vector<Word> results;
  const std::string trace = run_traced_pipeline(&results);
  ASSERT_FALSE(trace.empty());
  ASSERT_EQ(results.size(), 4u);
  EXPECT_EQ(results[0], 0x11u);
  EXPECT_EQ(results[1], 0x22u);
  EXPECT_EQ(results[2], 0x33u);
  EXPECT_EQ(results[3], 0x44u);
}

TEST(ManyCore, MachineAccessorsDescribeTheTopology) {
  auto built = SimSystem::Builder().machine(two_core_pipeline()).build();
  ASSERT_TRUE(built.ok()) << built.error();
  SimSystem system = std::move(built).value();

  EXPECT_EQ(system.core_count(), 2u);
  EXPECT_EQ(system.core_name(0), "producer");
  EXPECT_EQ(system.core_name(1), "consumer");
  ASSERT_NE(system.machine_engine(), nullptr);
  EXPECT_EQ(system.machine_desc().links.size(), 1u);

  ASSERT_EQ(system.run(), core::StopReason::kHalted);
  EXPECT_EQ(system.machine_engine()->link_words(), 4u);
  // Per-core stats split the machine aggregate.
  const core::CoSimStats total = system.stats();
  const core::CoSimStats producer = system.core_stats(0);
  const core::CoSimStats consumer = system.core_stats(1);
  EXPECT_EQ(total.instructions,
            producer.instructions + consumer.instructions);
  EXPECT_GT(consumer.fsl_stall_cycles, 0u);
}

TEST(ManyCore, TwoCorePipelineMatchesGoldenTrace) {
  const std::string golden_path =
      std::string(MBCOSIM_TEST_DATA_DIR) + "/machine_trace_golden.jsonl";
  const std::string trace = run_traced_pipeline();
  ASSERT_FALSE(trace.empty());

  if (std::getenv("MBCOSIM_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(golden_path, std::ios::binary);
    ASSERT_TRUE(out.good()) << "cannot write " << golden_path;
    out << trace;
    GTEST_SKIP() << "regenerated " << golden_path;
  }

  std::ifstream in(golden_path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden file " << golden_path
                         << " (regenerate with MBCOSIM_REGEN_GOLDEN=1)";
  std::stringstream golden;
  golden << in.rdbuf();

  std::istringstream got_stream(trace);
  std::istringstream want_stream(golden.str());
  std::string got;
  std::string want;
  std::size_t line = 0;
  while (std::getline(want_stream, want)) {
    ++line;
    ASSERT_TRUE(std::getline(got_stream, got))
        << "trace ends early at line " << line;
    ASSERT_EQ(got, want) << "first divergence at line " << line;
  }
  EXPECT_FALSE(std::getline(got_stream, got))
      << "trace has extra lines after line " << line;
}

TEST(ManyCore, RerunsAreByteIdentical) {
  EXPECT_EQ(run_traced_pipeline(), run_traced_pipeline());
}

// ------------------------------------------------------ CORDIC mini farm

// Scaled-down cordic_farm.json (examples/machines/): feeder -> worker
// (4-PE CORDIC pipeline) -> collector, four items in one set, one pass.
constexpr i32 kFarmX[4] = {0x01000000, 0x02000000, 0x01800000, 0x04000000};
constexpr i32 kFarmY[4] = {0x00800000, 0x03000000, 0x00c00000, 0x01000000};

constexpr const char* kFarmFeeder = R"(
start:
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

constexpr const char* kFarmWorker = R"(
start:
  cput r0, rfsl0          # control word: s0 = 0, single pass
  li r5, 4
send_loop:
  get r3, rfsl1
  put r3, rfsl0
  get r3, rfsl1
  put r3, rfsl0
  put r0, rfsl0           # Z = 0
  addik r5, r5, -1
  bnei r5, send_loop
  li r5, 4
recv_loop:
  get r3, rfsl0           # X out (discarded)
  get r3, rfsl0           # Y residue (discarded)
  get r3, rfsl0           # Z = quotient
  put r3, rfsl2
  addik r5, r5, -1
  bnei r5, recv_loop
  halt
)";

constexpr const char* kFarmCollector = R"(
start:
  la r28, results
  li r29, 16
  addk r10, r0, r0
store_loop:
  get r3, rfsl1
  sw r3, r28, r10
  addik r10, r10, 4
  rsub r3, r10, r29
  bnei r3, store_loop
  halt
results: .space 16
)";

machine::MachineDesc mini_farm() {
  machine::MachineDesc desc;
  machine::CoreDesc feeder;
  feeder.name = "feeder";
  feeder.program = kFarmFeeder;
  machine::CoreDesc worker;
  worker.name = "worker";
  worker.program = kFarmWorker;
  machine::CoreDesc collector;
  collector.name = "collector";
  collector.program = kFarmCollector;
  desc.cores = {feeder, worker, collector};
  desc.links = {{"feeder", 1, "worker", 1}, {"worker", 2, "collector", 1}};
  machine::PeripheralDesc pipeline;
  pipeline.core = "worker";
  pipeline.type = "cordic";
  pipeline.channel = 0;
  pipeline.params["num_pes"] = 4;
  desc.peripherals = {pipeline};
  desc.quantum = 16;
  return desc;
}

struct FarmRun {
  std::vector<std::string> traces;  ///< one JSONL stream per core
  core::CoSimStats stats;
  u64 link_words = 0;
  std::vector<Word> results;
};

FarmRun run_farm(unsigned workers) {
  note_lane_shortfall(workers);
  apps::register_machine_peripherals();
  auto built =
      SimSystem::Builder().machine(mini_farm()).workers(workers).build();
  EXPECT_TRUE(built.ok()) << built.error();
  SimSystem system = std::move(built).value();

  std::vector<std::unique_ptr<std::ostringstream>> streams;
  for (std::size_t i = 0; i < system.core_count(); ++i) {
    streams.push_back(std::make_unique<std::ostringstream>());
    system.trace_bus(i).add_sink(
        std::make_unique<obs::JsonlSink>(*streams.back()));
  }

  EXPECT_EQ(system.run(), core::StopReason::kHalted);

  FarmRun run;
  for (const auto& stream : streams) run.traces.push_back(stream->str());
  run.stats = system.stats();
  run.link_words = system.machine_engine()->link_words();
  for (u32 i = 0; i < 4; ++i) {
    run.results.push_back(system.word_on(2, "results", i));
  }
  return run;
}

TEST(ManyCore, FarmQuotientsMatchTheBitExactReference) {
  const FarmRun run = run_farm(1);
  ASSERT_EQ(run.results.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    cordic::CordicState state;
    state.x = kFarmX[i];
    state.y = kFarmY[i];
    const i32 expected = cordic::cordic_iterate(state, 0, 4).z;
    EXPECT_EQ(static_cast<i32>(run.results[i]), expected) << "item " << i;
  }
  // 8 words feeder -> worker, 4 quotients worker -> collector.
  EXPECT_EQ(run.link_words, 12u);
}

TEST(ManyCore, ResultsAreIndependentOfWorkerCount) {
  const FarmRun baseline = run_farm(1);
  for (const unsigned workers : {2u, 3u, 4u}) {
    const FarmRun run = run_farm(workers);
    EXPECT_EQ(run.results, baseline.results) << workers << " workers";
    EXPECT_EQ(run.link_words, baseline.link_words) << workers << " workers";
    EXPECT_EQ(run.stats.cycles, baseline.stats.cycles)
        << workers << " workers";
    EXPECT_EQ(run.stats.instructions, baseline.stats.instructions)
        << workers << " workers";
    EXPECT_EQ(run.stats.fsl_stall_cycles, baseline.stats.fsl_stall_cycles)
        << workers << " workers";
    ASSERT_EQ(run.traces.size(), baseline.traces.size());
    for (std::size_t i = 0; i < run.traces.size(); ++i) {
      EXPECT_EQ(run.traces[i], baseline.traces[i])
          << workers << " workers, core " << i << " trace diverged";
    }
  }
}

// ----------------------------------------------------- single-core shim

constexpr const char* kShimProgram = R"(
start:
  li r3, 10
  addk r4, r0, r0
loop:
  addk r4, r4, r3
  addik r3, r3, -1
  bnei r3, loop
  la r5, result
  swi r4, r5, 0
  halt
result: .space 4
)";

TEST(ManyCore, SingleCoreMachineMatchesTheLegacyBuilder) {
  auto legacy = SimSystem::Builder().program(kShimProgram).build();
  ASSERT_TRUE(legacy.ok()) << legacy.error();
  auto described = SimSystem::Builder()
                       .machine(machine::MachineDesc::single_core(kShimProgram))
                       .build();
  ASSERT_TRUE(described.ok()) << described.error();

  auto run_traced = [](SimSystem system) {
    std::ostringstream trace;
    system.trace_bus().add_sink(std::make_unique<obs::JsonlSink>(trace));
    EXPECT_EQ(system.run(), core::StopReason::kHalted);
    EXPECT_EQ(system.word_on(0, "result"), 55u);
    return std::make_pair(trace.str(), system.stats());
  };
  const auto [legacy_trace, legacy_stats] =
      run_traced(std::move(legacy).value());
  const auto [machine_trace, machine_stats] =
      run_traced(std::move(described).value());

  // The shim promise: byte-identical trace (no core origins, same
  // channel names) and identical statistics.
  ASSERT_FALSE(legacy_trace.empty());
  EXPECT_EQ(machine_trace, legacy_trace);
  EXPECT_EQ(machine_stats.cycles, legacy_stats.cycles);
  EXPECT_EQ(machine_stats.instructions, legacy_stats.instructions);
  // A single-core machine needs no machine engine at all.
  auto rebuilt = SimSystem::Builder()
                     .machine(machine::MachineDesc::single_core(kShimProgram))
                     .build();
  ASSERT_TRUE(rebuilt.ok());
  SimSystem single = std::move(rebuilt).value();
  EXPECT_EQ(single.machine_engine(), nullptr);
}

// ------------------------------------- halt attribution & debugger stepping

TEST(ManyCore, HaltIsAttributedToTheLastCoreToStop) {
  auto built = SimSystem::Builder().machine(two_core_pipeline()).build();
  ASSERT_TRUE(built.ok()) << built.error();
  SimSystem system = std::move(built).value();

  EXPECT_EQ(system.run(), core::StopReason::kHalted);
  // The producer drains its four words and halts long before the
  // consumer finishes storing them: the machine's halt belongs to the
  // consumer, not to core 0 by default (the old behavior this pins).
  EXPECT_EQ(system.stop_core(), 1u);
  EXPECT_LT(system.core_stats(0).cycles, system.core_stats(1).cycles);
}

TEST(ManyCore, CycleLimitStopNamesNoCore) {
  auto built = SimSystem::Builder().machine(two_core_pipeline()).build();
  ASSERT_TRUE(built.ok()) << built.error();
  SimSystem system = std::move(built).value();

  EXPECT_EQ(system.run(32), core::StopReason::kCycleLimit);
  EXPECT_EQ(system.stop_core(), core::MachineStop::kNoCore);
}

TEST(ManyCore, SteppingAHaltedCoreIsANoOp) {
  auto built = SimSystem::Builder().machine(two_core_pipeline()).build();
  ASSERT_TRUE(built.ok()) << built.error();
  SimSystem system = std::move(built).value();
  core::ManyCoreEngine* engine = system.machine_engine();
  ASSERT_NE(engine, nullptr);

  ASSERT_EQ(system.run(), core::StopReason::kHalted);
  const core::CoSimStats before = system.stats();
  const u64 link_words = engine->link_words();

  // Every core has halted; a debugger single-step of any of them must
  // report the halt without re-executing it (the regression: the step
  // used to run the halted processor again and skew its counters).
  for (std::size_t index = 0; index < engine->core_count(); ++index) {
    const iss::StepResult step = engine->debug_step(index);
    EXPECT_EQ(step.event, iss::Event::kHalted) << "core " << index;
    EXPECT_EQ(step.cycles, 0u) << "core " << index;
  }
  const core::CoSimStats after = system.stats();
  EXPECT_EQ(after.cycles, before.cycles);
  EXPECT_EQ(after.instructions, before.instructions);
  EXPECT_EQ(engine->link_words(), link_words);
}

// Debugger steps run the machine's own round loop: stepping core 0 and
// then another core before run() must end the farm exactly as a free
// run does — same clocks, stalls, link words and results.
TEST(ManyCore, DebugStepsThenRunMatchAFreeRun) {
  apps::register_machine_peripherals();
  const auto build = [](unsigned workers) {
    auto built =
        SimSystem::Builder().machine(mini_farm()).workers(workers).build();
    EXPECT_TRUE(built.ok()) << built.error();
    return std::move(built).value();
  };
  const auto results = [](SimSystem& system) {
    std::vector<Word> words;
    for (u32 i = 0; i < 4; ++i) words.push_back(system.word_on(2, "results", i));
    return words;
  };
  for (const unsigned workers : {1u, 3u}) {
    note_lane_shortfall(workers);
    SimSystem free_run = build(workers);
    ASSERT_EQ(free_run.run(), core::StopReason::kHalted);
    for (const int steps : {5, 40, 200}) {
      for (const std::size_t other : {std::size_t{1}, std::size_t{2}}) {
        SCOPED_TRACE(std::to_string(workers) + " workers, " +
                     std::to_string(steps) + " steps of core 0 then core " +
                     std::to_string(other));
        SimSystem system = build(workers);
        core::ManyCoreEngine* engine = system.machine_engine();
        ASSERT_NE(engine, nullptr);
        for (int i = 0; i < steps; ++i) {
          ASSERT_NE(engine->debug_step(0).event, iss::Event::kIllegal);
        }
        for (int i = 0; i < steps; ++i) {
          ASSERT_NE(engine->debug_step(other).event, iss::Event::kIllegal);
        }
        ASSERT_EQ(system.run(), core::StopReason::kHalted);
        EXPECT_EQ(system.stop_core(), free_run.stop_core());
        EXPECT_EQ(engine->link_words(),
                  free_run.machine_engine()->link_words());
        EXPECT_EQ(results(system), results(free_run));
        for (std::size_t i = 0; i < system.core_count(); ++i) {
          const core::CoSimStats got = system.core_stats(i);
          const core::CoSimStats want = free_run.core_stats(i);
          EXPECT_EQ(got.cycles, want.cycles) << "core " << i;
          EXPECT_EQ(got.instructions, want.instructions) << "core " << i;
          EXPECT_EQ(got.fsl_stall_cycles, want.fsl_stall_cycles)
              << "core " << i;
          EXPECT_EQ(got.hw_cycles_stepped, want.hw_cycles_stepped)
              << "core " << i;
          EXPECT_EQ(got.bridge.words_to_hw, want.bridge.words_to_hw)
              << "core " << i;
          EXPECT_EQ(got.bridge.words_from_hw, want.bridge.words_from_hw)
              << "core " << i;
        }
      }
    }
  }
}

// ------------------------------------------------ execution-tier identity

// The execution tiers must be invisible to the machine: identical
// CoSimStats, memory results and link traffic whichever tier every core
// runs on and however many host workers advance the quantum rounds.

struct TierRun {
  core::CoSimStats stats;
  u64 link_words = 0;
  std::vector<Word> results;
  iss::DbtStats dbt;
};

constexpr iss::ExecTier kAllTiers[] = {
    iss::ExecTier::kPrecise, iss::ExecTier::kPredecode, iss::ExecTier::kDbt};

void expect_tier_run_identical(const TierRun& run, const TierRun& baseline,
                               iss::ExecTier tier, unsigned workers) {
  const std::string label = std::string(iss::to_string(tier)) + " tier, " +
                            std::to_string(workers) + " workers";
  EXPECT_EQ(run.results, baseline.results) << label;
  EXPECT_EQ(run.link_words, baseline.link_words) << label;
  EXPECT_EQ(run.stats.cycles, baseline.stats.cycles) << label;
  EXPECT_EQ(run.stats.instructions, baseline.stats.instructions) << label;
  EXPECT_EQ(run.stats.fsl_stall_cycles, baseline.stats.fsl_stall_cycles)
      << label;
}

TierRun run_farm_with_tier(unsigned workers, iss::ExecTier tier) {
  note_lane_shortfall(workers);
  apps::register_machine_peripherals();
  machine::MachineDesc desc = mini_farm();
  for (auto& core : desc.cores) core.exec_tier = tier;
  auto built =
      SimSystem::Builder().machine(std::move(desc)).workers(workers).build();
  EXPECT_TRUE(built.ok()) << built.error();
  SimSystem system = std::move(built).value();
  EXPECT_EQ(system.run(), core::StopReason::kHalted);

  TierRun run;
  run.stats = system.stats();
  run.link_words = system.machine_engine()->link_words();
  run.dbt = system.dbt_stats();
  for (u32 i = 0; i < 4; ++i) {
    run.results.push_back(system.word_on(2, "results", i));
  }
  return run;
}

TEST(ManyCore, FarmTierIdentityAcrossWorkerCounts) {
  const TierRun baseline = run_farm_with_tier(1, iss::ExecTier::kPrecise);
  ASSERT_EQ(baseline.results.size(), 4u);
  for (const iss::ExecTier tier : kAllTiers) {
    for (const unsigned workers : {1u, 2u, 3u, 8u}) {
      expect_tier_run_identical(run_farm_with_tier(workers, tier), baseline,
                                tier, workers);
    }
  }
}

// A 2-core matmul machine (each core drives its own block-multiplier
// peripheral through the paper's streaming schedule) is hot enough to
// cross the dbt promotion threshold — the tier must actually engage and
// still be invisible in the statistics at every worker count.
TierRun run_matmul_machine(unsigned workers, iss::ExecTier tier) {
  namespace matmul = mbcosim::apps::matmul;
  apps::register_machine_peripherals();
  const matmul::Matrix a = matmul::make_matrix(8, 3);
  const matmul::Matrix b = matmul::make_matrix(8, 7);

  machine::CoreDesc core_template;
  core_template.name = "pe";
  core_template.program = matmul::hw_driver_program(a, b, 4);
  core_template.exec_tier = tier;
  machine::MachineDesc desc =
      machine::MachineDesc::replicated(2, core_template);
  for (const machine::CoreDesc& core : desc.cores) {
    machine::PeripheralDesc mac;
    mac.core = core.name;
    mac.type = "matmul";
    mac.channel = 0;
    mac.params["block_size"] = 4;
    desc.peripherals.push_back(mac);
  }
  desc.quantum = 64;

  auto built =
      SimSystem::Builder().machine(std::move(desc)).workers(workers).build();
  EXPECT_TRUE(built.ok()) << built.error();
  SimSystem system = std::move(built).value();
  EXPECT_EQ(system.run(), core::StopReason::kHalted);

  TierRun run;
  run.stats = system.stats();
  run.link_words = system.machine_engine()->link_words();
  run.dbt = system.dbt_stats();
  const matmul::Matrix expected = matmul::multiply_reference(a, b);
  for (std::size_t core = 0; core < 2; ++core) {
    for (u32 i = 0; i < 8 * 8; ++i) {
      run.results.push_back(system.word_on(core, "mat_c", i));
      EXPECT_EQ(static_cast<i32>(run.results.back()),
                expected.data[i])
          << "core " << core << " element " << i;
    }
  }
  return run;
}

TEST(ManyCore, MatmulMachineTierIdentityAcrossWorkerCounts) {
  const TierRun baseline = run_matmul_machine(1, iss::ExecTier::kPrecise);
  ASSERT_EQ(baseline.results.size(), 2u * 8 * 8);
  EXPECT_EQ(baseline.dbt.blocks_translated, 0u);  // precise tier: no dbt
  for (const iss::ExecTier tier : kAllTiers) {
    for (const unsigned workers : {1u, 2u, 8u}) {
      expect_tier_run_identical(run_matmul_machine(workers, tier), baseline,
                                tier, workers);
    }
  }
  // The driver loops are hot: the dbt tier must actually have engaged.
  const TierRun dbt = run_matmul_machine(2, iss::ExecTier::kDbt);
  EXPECT_GE(dbt.dbt.blocks_translated, 2u);  // at least one block per core
  EXPECT_GT(dbt.dbt.dbt_instructions, 0u);
}

// ------------------------------------------------------------ host lanes

// run() spreads the cores over min(workers, live cores, host threads)
// lanes, a core always on the same lane. Whatever the placement —
// several cores per lane, cores halting or trapping on helper lanes —
// the machine must be byte-identical to the serial run.

/// Run `desc` at `workers` with a JSONL sink per core; returns the stop,
/// the stop core, per-core traces and stats.
struct LaneRun {
  core::StopReason reason = core::StopReason::kCycleLimit;
  std::size_t stop_core = core::MachineStop::kNoCore;
  std::vector<std::string> traces;
  std::vector<core::CoSimStats> stats;
  u64 link_words = 0;
};

LaneRun run_lanes(const machine::MachineDesc& desc, unsigned workers) {
  note_lane_shortfall(workers);
  auto built = SimSystem::Builder().machine(desc).workers(workers).build();
  EXPECT_TRUE(built.ok()) << built.error();
  SimSystem system = std::move(built).value();
  std::vector<std::unique_ptr<std::ostringstream>> streams;
  for (std::size_t i = 0; i < system.core_count(); ++i) {
    streams.push_back(std::make_unique<std::ostringstream>());
    system.trace_bus(i).add_sink(
        std::make_unique<obs::JsonlSink>(*streams.back()));
  }
  LaneRun run;
  run.reason = system.run();
  run.stop_core = system.stop_core();
  for (std::size_t i = 0; i < system.core_count(); ++i) {
    run.traces.push_back(streams[i]->str());
    run.stats.push_back(system.core_stats(i));
  }
  run.link_words = system.machine_engine()->link_words();
  return run;
}

void expect_same_lane_run(const LaneRun& run, const LaneRun& serial,
                          unsigned workers) {
  SCOPED_TRACE(std::to_string(workers) + " workers");
  EXPECT_EQ(run.reason, serial.reason);
  EXPECT_EQ(run.stop_core, serial.stop_core);
  EXPECT_EQ(run.link_words, serial.link_words);
  ASSERT_EQ(run.traces.size(), serial.traces.size());
  for (std::size_t i = 0; i < run.traces.size(); ++i) {
    EXPECT_EQ(run.traces[i], serial.traces[i]) << "core " << i;
    EXPECT_EQ(run.stats[i].cycles, serial.stats[i].cycles) << "core " << i;
    EXPECT_EQ(run.stats[i].instructions, serial.stats[i].instructions)
        << "core " << i;
    EXPECT_EQ(run.stats[i].fsl_stall_cycles, serial.stats[i].fsl_stall_cycles)
        << "core " << i;
  }
}

// A six-core chain: a source, four relays that each add one, a sink.
// Six live cores outnumber the lanes up to 5 workers.
machine::MachineDesc relay_chain() {
  machine::MachineDesc desc;
  machine::CoreDesc source;
  source.name = "source";
  source.program = R"(
start:
  li r5, 8
  li r3, 100
loop:
  put r3, rfsl2
  addik r3, r3, 100
  addik r5, r5, -1
  bnei r5, loop
  halt
)";
  desc.cores.push_back(source);
  for (int i = 0; i < 4; ++i) {
    machine::CoreDesc relay;
    relay.name = "relay" + std::to_string(i);
    // Relay i idles i*3 iterations per word, so the lanes' cores run at
    // different speeds.
    relay.program = R"(
start:
  li r5, 8
loop:
  get r3, rfsl1
  li r6, )" + std::to_string(i * 3 + 1) + R"(
idle:
  addik r6, r6, -1
  bnei r6, idle
  addik r3, r3, 1
  put r3, rfsl2
  addik r5, r5, -1
  bnei r5, loop
  halt
)";
    desc.cores.push_back(relay);
  }
  machine::CoreDesc sink;
  sink.name = "sink";
  sink.program = R"(
start:
  la r28, results
  li r29, 32
  addk r10, r0, r0
loop:
  get r3, rfsl1
  sw r3, r28, r10
  addik r10, r10, 4
  rsub r3, r10, r29
  bnei r3, loop
  halt
results: .space 32
)";
  desc.cores.push_back(sink);
  for (std::size_t i = 0; i + 1 < desc.cores.size(); ++i) {
    desc.links.push_back({desc.cores[i].name, 2, desc.cores[i + 1].name, 1});
  }
  desc.quantum = 16;
  return desc;
}

TEST(ManyCore, MoreCoresThanLanesMatchesSerial) {
  const machine::MachineDesc desc = relay_chain();
  const LaneRun serial = run_lanes(desc, 1);
  ASSERT_EQ(serial.reason, core::StopReason::kHalted);
  EXPECT_EQ(serial.stop_core, 5u);  // the sink stores the last word
  EXPECT_EQ(serial.link_words, 5u * 8u);
  for (const unsigned workers : {2u, 3u, 4u, 5u, 8u}) {
    expect_same_lane_run(run_lanes(desc, workers), serial, workers);
  }
  // The sink saw every word pass all four relays.
  auto built = SimSystem::Builder().machine(desc).workers(4).build();
  ASSERT_TRUE(built.ok()) << built.error();
  SimSystem system = std::move(built).value();
  ASSERT_EQ(system.run(), core::StopReason::kHalted);
  for (u32 i = 0; i < 8; ++i) {
    EXPECT_EQ(system.word_on(5, "results", i), 100u * (i + 1) + 4u) << i;
  }
}

// Three independent cores: a long counting loop on core 0 (the calling
// thread's lane), a core that halts early on core 1, and core 2, which
// ends in `idiv` — illegal without a divider — or, with `trap` false, in
// a halt. With three lanes (three host threads or more), the early halt
// and the trap both happen on helper lanes.
machine::MachineDesc halt_and_trap(bool trap) {
  machine::MachineDesc desc;
  machine::CoreDesc spinner;
  spinner.name = "spinner";
  spinner.program = R"(
  li r5, 900
loop:
  addik r5, r5, -1
  bnei r5, loop
  halt
)";
  machine::CoreDesc quitter;
  quitter.name = "quitter";
  quitter.program = R"(
  li r5, 20
loop:
  addik r5, r5, -1
  bnei r5, loop
  halt
)";
  machine::CoreDesc ender;
  ender.name = "ender";
  ender.program = std::string(R"(
  li r5, 150
loop:
  addik r5, r5, -1
  bnei r5, loop
)") + (trap ? "  idiv r3, r4, r5\n" : "") + "  halt\n";
  desc.cores = {spinner, quitter, ender};
  desc.quantum = 32;
  return desc;
}

TEST(ManyCore, HaltAndTrapOnHelperLanesMatchSerial) {
  const LaneRun trapped = run_lanes(halt_and_trap(true), 1);
  ASSERT_EQ(trapped.reason, core::StopReason::kIllegal);
  EXPECT_EQ(trapped.stop_core, 2u);
  const LaneRun halted = run_lanes(halt_and_trap(false), 1);
  ASSERT_EQ(halted.reason, core::StopReason::kHalted);
  EXPECT_EQ(halted.stop_core, 0u);  // the spinner halts last
  EXPECT_LT(halted.stats[1].cycles, halted.stats[2].cycles);
  EXPECT_LT(halted.stats[2].cycles, halted.stats[0].cycles);
  for (const unsigned workers : {2u, 3u, 8u}) {
    expect_same_lane_run(run_lanes(halt_and_trap(true), workers), trapped,
                         workers);
    expect_same_lane_run(run_lanes(halt_and_trap(false), workers), halted,
                         workers);
  }
}

// A hardware model that gives up with SimError after `cycles` steps.
class FailAfter : public sysgen::Block {
 public:
  FailAfter(sysgen::Model& model, std::string name, u64 cycles)
      : Block(model, std::move(name)), left_(cycles) {}
  [[nodiscard]] bool is_sequential() const override { return true; }
  void latch() override {
    if (--left_ == 0) throw SimError("fail_after: the model gave up");
  }

 private:
  u64 left_;
};

/// Run halt_and_trap(false) with a failing model on `core` at each
/// worker count; run() must throw the model's SimError every time.
void expect_model_failure_reaches_the_caller(
    const std::string& core, std::initializer_list<unsigned> worker_counts) {
  // Registered once per process; a second add() is refused harmlessly.
  (void)PeripheralRegistry::instance().add(
      "fail_after", [](const machine::PeripheralDesc&) {
        HardwareBundle bundle;
        bundle.model = std::make_unique<sysgen::Model>("fail_after");
        bundle.model->add<FailAfter>("fail", 200);
        return bundle;
      });
  machine::MachineDesc desc = halt_and_trap(false);
  machine::PeripheralDesc failing;
  failing.core = core;
  failing.type = "fail_after";
  desc.peripherals = {failing};
  for (const unsigned workers : worker_counts) {
    note_lane_shortfall(workers);
    auto built = SimSystem::Builder().machine(desc).workers(workers).build();
    ASSERT_TRUE(built.ok()) << built.error();
    SimSystem system = std::move(built).value();
    try {
      system.run();
      ADD_FAILURE() << workers << " workers: run() returned";
    } catch (const SimError& error) {
      EXPECT_STREQ(error.what(), "fail_after: the model gave up")
          << workers << " workers";
    }
  }
}

TEST(ManyCore, ExceptionOnAHelperLaneReachesTheCaller) {
  // Core 2 runs on a helper lane from 3 workers (and host threads) on.
  expect_model_failure_reaches_the_caller("ender", {1u, 3u});
}

TEST(ManyCore, ExceptionOnTheCallingLaneStopsTheHelpers) {
  // Core 0 runs on the calling thread's lane: run() unwinds from lane 0
  // while the helper lanes are still serving rounds.
  expect_model_failure_reaches_the_caller("spinner", {1u, 2u, 3u});
}

// ------------------------------------------------- deadlock & build errors

TEST(ManyCore, StarvedConsumerIsAMachineDeadlock) {
  machine::MachineDesc desc = two_core_pipeline();
  desc.cores[0].program = "halt\n";  // producer never feeds the link
  auto built = SimSystem::Builder()
                   .machine(std::move(desc))
                   .deadlock_threshold(2000)
                   .build();
  ASSERT_TRUE(built.ok()) << built.error();
  SimSystem system = std::move(built).value();

  EXPECT_EQ(system.run(), core::StopReason::kDeadlock);
  EXPECT_EQ(system.stop_core(), 1u);
  const auto diagnosis = system.deadlock_diagnosis();
  ASSERT_TRUE(diagnosis.has_value());
  EXPECT_NE(diagnosis->channel.find("hw_to_mb1"), std::string::npos)
      << diagnosis->channel;
}

TEST(ManyCore, BuilderRejectsMachinePlusLegacySetters) {
  auto with_program = SimSystem::Builder()
                          .machine(two_core_pipeline())
                          .program("halt\n")
                          .build();
  ASSERT_FALSE(with_program.ok());
  EXPECT_NE(with_program.error().find("mutually exclusive"),
            std::string::npos)
      << with_program.error();

  auto with_memory = SimSystem::Builder()
                         .machine(two_core_pipeline())
                         .memory_bytes(4096)
                         .build();
  ASSERT_FALSE(with_memory.ok());
  EXPECT_NE(with_memory.error().find("memory_bytes()"), std::string::npos)
      << with_memory.error();
}

TEST(ManyCore, BuilderRejectsOutOfRangeCoreReferences) {
  auto bad_gdb =
      SimSystem::Builder().machine(two_core_pipeline()).gdb_core(5).build();
  ASSERT_FALSE(bad_gdb.ok());
  EXPECT_NE(bad_gdb.error().find("gdb_core 5 is out of range"),
            std::string::npos)
      << bad_gdb.error();

  fault::FaultPlan plan;
  plan.trigger_value = 10;
  plan.core = 5;
  auto bad_fault =
      SimSystem::Builder().machine(two_core_pipeline()).fault(plan).build();
  ASSERT_FALSE(bad_fault.ok());
  EXPECT_NE(bad_fault.error().find("fault plan targets core 5"),
            std::string::npos)
      << bad_fault.error();

  fault::FaultPlan pc_plan;
  pc_plan.trigger = fault::TriggerKind::kPc;
  auto pc_fault = SimSystem::Builder()
                      .machine(two_core_pipeline())
                      .fault(pc_plan)
                      .build();
  ASSERT_FALSE(pc_fault.ok());
  EXPECT_NE(pc_fault.error().find("pc-triggered"), std::string::npos)
      << pc_fault.error();
}

TEST(ManyCore, BuilderRejectsUnknownPeripheralTypes) {
  machine::MachineDesc desc = two_core_pipeline();
  machine::PeripheralDesc fft;
  fft.core = "producer";
  fft.type = "fft";
  fft.channel = 3;
  desc.peripherals = {fft};
  auto built = SimSystem::Builder().machine(std::move(desc)).build();
  ASSERT_FALSE(built.ok());
  EXPECT_NE(built.error().find("unknown peripheral type 'fft'"),
            std::string::npos)
      << built.error();
}

}  // namespace
}  // namespace mbcosim::sim
