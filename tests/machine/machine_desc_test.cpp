// MachineDesc unit tests: preset constructors, JSON parse/serialize
// round-trips, and the structured error channel — every rejection comes
// back as "[code] message" with a stable bracketed code from
// machine::kDescErrorCodes, never an exception or exit.
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include <gtest/gtest.h>

#include "machine/machine_desc.hpp"

namespace mbcosim::machine {
namespace {

bool starts_with(const std::string& text, const std::string& prefix) {
  return text.rfind(prefix, 0) == 0;
}

void expect_parse_error(const std::string& json, const std::string& code) {
  const auto result = MachineDesc::from_json(json);
  ASSERT_FALSE(result.ok()) << "accepted: " << json;
  EXPECT_TRUE(starts_with(result.error(), code))
      << "want prefix " << code << ", got: " << result.error();
}

// ---------------------------------------------------------------- presets

TEST(MachineDesc, SingleCorePresetIsTheLegacyShape) {
  const MachineDesc desc = MachineDesc::single_core("halt\n");
  ASSERT_EQ(desc.cores.size(), 1u);
  EXPECT_EQ(desc.cores[0].name, "cpu0");
  EXPECT_EQ(desc.cores[0].program, "halt\n");
  EXPECT_TRUE(desc.links.empty());
  EXPECT_TRUE(desc.peripherals.empty());
  EXPECT_TRUE(desc.validate().ok);
}

TEST(MachineDesc, ReplicatedNamesCoresFromTheTemplateStem) {
  CoreDesc core_template;
  core_template.program = "halt\n";
  core_template.has_divider = true;
  core_template.exec_tier = iss::ExecTier::kPrecise;

  const MachineDesc plain = MachineDesc::replicated(3, core_template);
  ASSERT_EQ(plain.cores.size(), 3u);
  EXPECT_EQ(plain.cores[0].name, "cpu0");
  EXPECT_EQ(plain.cores[2].name, "cpu2");
  EXPECT_TRUE(plain.cores[1].has_divider);
  EXPECT_EQ(plain.cores[1].exec_tier, iss::ExecTier::kPrecise);
  EXPECT_TRUE(plain.validate().ok);

  core_template.name = "node";
  const MachineDesc named = MachineDesc::replicated(2, core_template);
  ASSERT_EQ(named.cores.size(), 2u);
  EXPECT_EQ(named.cores[0].name, "node0");
  EXPECT_EQ(named.cores[1].name, "node1");
}

TEST(MachineDesc, CoreIndexAndFindCore) {
  MachineDesc desc = MachineDesc::single_core("halt\n");
  EXPECT_EQ(desc.core_index("cpu0"), 0u);
  EXPECT_EQ(desc.core_index("ghost"), desc.cores.size());
  EXPECT_NE(desc.find_core("cpu0"), nullptr);
  EXPECT_EQ(desc.find_core("ghost"), nullptr);
}

// ------------------------------------------------------------------ parse

TEST(MachineDesc, ParsesMinimalMachineWithDefaults) {
  const auto result = MachineDesc::from_json(
      R"({"cores": [{"name": "cpu0", "program": "halt\n"}]})");
  ASSERT_TRUE(result.ok()) << result.error();
  const MachineDesc& desc = result.value();
  ASSERT_EQ(desc.cores.size(), 1u);
  EXPECT_EQ(desc.cores[0].program, "halt\n");
  EXPECT_EQ(desc.cores[0].memory_bytes, 64u * 1024u);
  EXPECT_TRUE(desc.cores[0].has_barrel_shifter);
  EXPECT_TRUE(desc.cores[0].has_multiplier);
  EXPECT_FALSE(desc.cores[0].has_divider);
  EXPECT_EQ(desc.cores[0].exec_tier, iss::ExecTier::kDbt);
  EXPECT_EQ(desc.fifo_depth, 16u);
  EXPECT_EQ(desc.quantum, Cycle{64});
}

TEST(MachineDesc, ParsesExecTierPerCore) {
  const auto result = MachineDesc::from_json(R"({"cores": [
    {"name": "a", "program": "halt\n", "exec_tier": "precise"},
    {"name": "b", "program": "halt\n", "exec_tier": "predecode"},
    {"name": "c", "program": "halt\n", "exec_tier": "dbt"}]})");
  ASSERT_TRUE(result.ok()) << result.error();
  const MachineDesc& desc = result.value();
  ASSERT_EQ(desc.cores.size(), 3u);
  EXPECT_EQ(desc.cores[0].exec_tier, iss::ExecTier::kPrecise);
  EXPECT_EQ(desc.cores[1].exec_tier, iss::ExecTier::kPredecode);
  EXPECT_EQ(desc.cores[2].exec_tier, iss::ExecTier::kDbt);
}

// The retired "predecode" key is an unknown key now: ignored, so older
// machine files still load (every tier gives identical results).
TEST(MachineDesc, IgnoresRetiredPredecodeKey) {
  const auto result = MachineDesc::from_json(R"({"cores": [
    {"name": "a", "program": "halt\n", "predecode": false}]})");
  ASSERT_TRUE(result.ok()) << result.error();
  EXPECT_EQ(result.value().cores[0].exec_tier, iss::ExecTier::kDbt);
  EXPECT_EQ(result.value().to_json().find("predecode"), std::string::npos);
}

TEST(MachineDesc, ParsesTopologyAndPeripheralParams) {
  const auto result = MachineDesc::from_json(R"({
    "quantum": 32,
    "fifo_depth": 8,
    "cores": [
      {"name": "feeder", "program": "halt\n", "multiplier": false},
      {"name": "worker", "program": "halt\n", "memory_bytes": 4096}
    ],
    "links": [
      {"from": "feeder", "from_channel": 1, "to": "worker", "to_channel": 2}
    ],
    "peripherals": [
      {"core": "worker", "type": "cordic", "channel": 0, "num_pes": 8}
    ]
  })");
  ASSERT_TRUE(result.ok()) << result.error();
  const MachineDesc& desc = result.value();
  EXPECT_EQ(desc.quantum, Cycle{32});
  EXPECT_EQ(desc.fifo_depth, 8u);
  ASSERT_EQ(desc.cores.size(), 2u);
  EXPECT_FALSE(desc.cores[0].has_multiplier);
  EXPECT_EQ(desc.cores[1].memory_bytes, 4096u);
  ASSERT_EQ(desc.links.size(), 1u);
  EXPECT_EQ(desc.links[0].from, "feeder");
  EXPECT_EQ(desc.links[0].from_channel, 1u);
  EXPECT_EQ(desc.links[0].to, "worker");
  EXPECT_EQ(desc.links[0].to_channel, 2u);
  ASSERT_EQ(desc.peripherals.size(), 1u);
  EXPECT_EQ(desc.peripherals[0].type, "cordic");
  ASSERT_EQ(desc.peripherals[0].params.count("num_pes"), 1u);
  EXPECT_EQ(desc.peripherals[0].params.at("num_pes"), 8);
}

TEST(MachineDesc, RoundTripsThroughJson) {
  MachineDesc desc;
  CoreDesc feeder;
  feeder.name = "feeder";
  feeder.program = "# \"quoted\"\n\tput r3, rfsl1\n  halt\n";
  feeder.has_multiplier = false;
  CoreDesc worker;
  worker.name = "worker";
  worker.program_file = "worker.s";
  worker.memory_bytes = 4096;
  worker.has_divider = true;
  worker.exec_tier = iss::ExecTier::kPredecode;
  desc.cores = {feeder, worker};
  desc.links = {{"feeder", 1, "worker", 1}};
  PeripheralDesc cordic;
  cordic.core = "worker";
  cordic.type = "cordic";
  cordic.channel = 0;
  cordic.params["num_pes"] = 16;
  desc.peripherals = {cordic};
  desc.fifo_depth = 8;
  desc.quantum = 32;

  const std::string json = desc.to_json();
  const auto reparsed = MachineDesc::from_json(json);
  ASSERT_TRUE(reparsed.ok()) << reparsed.error();
  // Serialization is canonical, so a round-trip reproduces the text
  // exactly — which also proves every field survived.
  EXPECT_EQ(reparsed.value().to_json(), json);
}

// ------------------------------------------------- structured error codes

TEST(MachineDescErrors, JsonSyntax) {
  expect_parse_error("", "[json-syntax]");
  expect_parse_error("{", "[json-syntax]");
  expect_parse_error("{\"cores\": [}", "[json-syntax]");
  expect_parse_error("{} trailing", "[json-syntax]");
  // Floats are rejected up front: machine files are integer-only.
  expect_parse_error(
      R"({"quantum": 1.5, "cores": [{"name": "a", "program": "halt\n"}]})",
      "[json-syntax]");
}

TEST(MachineDescErrors, MissingField) {
  expect_parse_error("{}", "[missing-field]");
  expect_parse_error(R"({"cores": [{"program": "halt\n"}]})",
                     "[missing-field]");
  expect_parse_error(R"({
    "cores": [{"name": "a", "program": "halt\n"}],
    "links": [{"from": "a", "from_channel": 0, "to_channel": 0}]})",
                     "[missing-field]");
}

TEST(MachineDescErrors, BadField) {
  expect_parse_error("[]", "[bad-field]");
  expect_parse_error(R"({"cores": 42})", "[bad-field]");
  expect_parse_error(R"({"cores": [{"name": 7, "program": "halt\n"}]})",
                     "[bad-field]");
  expect_parse_error(
      R"({"cores": [{"name": "a", "program": "halt\n", "divider": 1}]})",
      "[bad-field]");
  expect_parse_error(R"({
    "cores": [{"name": "a", "program": "halt\n"}],
    "peripherals": [{"core": "a", "type": "cordic", "num_pes": "eight"}]})",
                     "[bad-field]");
}

TEST(MachineDescErrors, BadExecTier) {
  expect_parse_error(
      R"({"cores": [{"name": "a", "program": "halt\n", "exec_tier": "jit"}]})",
      "[bad-exec-tier]");
  // A non-string value is a type error, not a tier-name error.
  expect_parse_error(
      R"({"cores": [{"name": "a", "program": "halt\n", "exec_tier": 2}]})",
      "[bad-field]");
}

TEST(MachineDescErrors, TopologyValidation) {
  expect_parse_error(R"({"cores": []})", "[no-cores]");
  expect_parse_error(R"({"cores": [{"name": "bad name", "program": "x"}]})",
                     "[bad-core-name]");
  expect_parse_error(R"({"cores": [
      {"name": "a", "program": "halt\n"},
      {"name": "a", "program": "halt\n"}]})",
                     "[duplicate-core]");
  expect_parse_error(R"({"cores": [{"name": "a"}]})", "[no-program]");
  expect_parse_error(
      R"({"cores": [{"name": "a", "program": "x", "program_file": "x.s"}]})",
      "[program-conflict]");
  expect_parse_error(
      R"({"cores": [{"name": "a", "program": "x", "memory_bytes": 0}]})",
      "[bad-memory]");
  expect_parse_error(
      R"({"quantum": 0, "cores": [{"name": "a", "program": "x"}]})",
      "[bad-quantum]");
  expect_parse_error(
      R"({"fifo_depth": 0, "cores": [{"name": "a", "program": "x"}]})",
      "[bad-fifo-depth]");
}

TEST(MachineDescErrors, GraphValidation) {
  const char* two_cores = R"("cores": [
      {"name": "a", "program": "halt\n"},
      {"name": "b", "program": "halt\n"}])";
  auto with = [two_cores](const std::string& rest) {
    return "{" + std::string(two_cores) + ", " + rest + "}";
  };
  expect_parse_error(
      with(R"("links": [{"from": "ghost", "from_channel": 0,
                         "to": "b", "to_channel": 0}])"),
      "[unknown-core]");
  expect_parse_error(
      with(R"("peripherals": [{"core": "ghost", "type": "cordic"}])"),
      "[unknown-core]");
  expect_parse_error(
      with(R"("links": [{"from": "a", "from_channel": 8,
                         "to": "b", "to_channel": 0}])"),
      "[channel-range]");
  expect_parse_error(
      with(R"("peripherals": [{"core": "a", "type": "cordic",
                               "channel": 9}])"),
      "[channel-range]");
  expect_parse_error(
      with(R"("links": [{"from": "a", "from_channel": 0,
                         "to": "a", "to_channel": 1}])"),
      "[self-link]");
  // Two links claiming the same writer endpoint, then the same reader.
  expect_parse_error(
      with(R"("links": [
        {"from": "a", "from_channel": 0, "to": "b", "to_channel": 0},
        {"from": "a", "from_channel": 0, "to": "b", "to_channel": 1}])"),
      "[link-conflict]");
  expect_parse_error(
      with(R"("links": [
        {"from": "a", "from_channel": 0, "to": "b", "to_channel": 0},
        {"from": "a", "from_channel": 1, "to": "b", "to_channel": 0}])"),
      "[link-conflict]");
  // A link landing on a channel a peripheral owns is also a conflict.
  expect_parse_error(
      with(R"("peripherals": [{"core": "b", "type": "cordic", "channel": 0}],
           "links": [{"from": "a", "from_channel": 0,
                      "to": "b", "to_channel": 0}])"),
      "[link-conflict]");
  expect_parse_error(
      with(R"("peripherals": [
        {"core": "a", "type": "cordic", "channel": 0},
        {"core": "a", "type": "matmul", "channel": 0}])"),
      "[channel-conflict]");
}

TEST(MachineDescErrors, ValidateCatchesProgrammaticMistakes) {
  // validate() is the same gate from_json runs; programmatic edits that
  // bypass the parser still get structured errors.
  MachineDesc desc = MachineDesc::single_core("halt\n");
  desc.cores[0].memory_bytes = 6;  // not a word multiple
  const Status status = desc.validate();
  ASSERT_FALSE(status.ok);
  EXPECT_TRUE(starts_with(status.message, "[bad-memory]")) << status.message;
}

// ---------------------------------------------------------------- file io

TEST(MachineDescFile, MissingFileIsAStructuredError) {
  const auto result =
      MachineDesc::from_file("/nonexistent/machine/path.json");
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(starts_with(result.error(), "[file-io]")) << result.error();
}

TEST(MachineDescFile, RewritesRelativeProgramPaths) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() / "mbcosim_machine_desc_test";
  fs::create_directories(dir);
  {
    std::ofstream program(dir / "prog.s");
    program << "halt\n";
    std::ofstream machine(dir / "machine.json");
    machine << R"({"cores": [{"name": "cpu0", "program_file": "prog.s"}]})";
  }

  const auto result = MachineDesc::from_file((dir / "machine.json").string());
  ASSERT_TRUE(result.ok()) << result.error();
  const MachineDesc& desc = result.value();
  ASSERT_EQ(desc.cores.size(), 1u);
  // The relative "prog.s" now resolves from anywhere, not just from the
  // machine file's directory.
  EXPECT_EQ(desc.cores[0].program_file, (dir / "prog.s").string());
  std::ifstream check(desc.cores[0].program_file);
  EXPECT_TRUE(check.good());

  fs::remove_all(dir);
}

}  // namespace
}  // namespace mbcosim::machine
