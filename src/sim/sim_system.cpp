#include "sim/sim_system.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <utility>

#include "asm/assembler.hpp"
#include "common/stopwatch.hpp"
#include "fault/injector.hpp"
#include "isa/isa.hpp"
#include "iss/debugger.hpp"
#include "iss/memory.hpp"
#include "obs/jsonl_sink.hpp"
#include "obs/vcd_sink.hpp"
#include "rsp/cosim_target.hpp"
#include "rsp/transport.hpp"
#include "sim/peripheral_registry.hpp"
#include "sim/sim_state.hpp"

namespace mbcosim::sim {

namespace {

/// "trace.jsonl" + "cpu1" -> "trace.cpu1.jsonl"; no extension appends.
std::string per_core_path(const std::string& path, const std::string& name) {
  const std::size_t slash = path.find_last_of('/');
  const std::size_t dot = path.find_last_of('.');
  if (dot == std::string::npos ||
      (slash != std::string::npos && dot < slash)) {
    return path + "." + name;
  }
  return path.substr(0, dot) + "." + name + path.substr(dot);
}

}  // namespace

SimSystem::SimSystem(std::unique_ptr<State> state) : state_(std::move(state)) {}
SimSystem::SimSystem(SimSystem&&) noexcept = default;
SimSystem& SimSystem::operator=(SimSystem&&) noexcept = default;
SimSystem::~SimSystem() = default;

void SimSystem::reset() {
  for (auto& core : state_->cores) {
    core->engine->reset(core->program.entry());
    // Return every component to fault-free operation, then re-arm the
    // configured plan with fresh one-shot state for the new run.
    core->hub.clear_faults();
    if (core->opb) core->opb->clear_fault();
  }
  if (state_->machine_engine) state_->machine_engine->reset_progress();
  state_->stop_core = 0;
  if (state_->injector) {
    State::Core& target = *state_->cores[state_->fault_core];
    state_->injector =
        std::make_unique<fault::Injector>(state_->injector->plan());
    state_->injector->arm(&target.hub, target.opb.get());
  }
}

core::StopReason SimSystem::run(Cycle max_cycles) {
  Stopwatch watch;
  State& s = *state_;
  State::Core& fault_target = *s.cores[s.fault_core];
  constexpr Cycle kNoCheckpoint = ~Cycle{0};
  Cycle next_checkpoint = s.checkpoint_interval != 0
                              ? stats().cycles + s.checkpoint_interval
                              : kNoCheckpoint;
  u64 seq = 0;
  core::StopReason reason;
  for (;;) {
    // The stop-point schedule: advance to the nearest of the budget, a
    // pending fault trigger and the next checkpoint boundary.
    fault::Injector* pending =
        s.injector != nullptr && s.injector->needs_point_trigger() &&
                !s.injector->armed_or_fired()
            ? s.injector.get()
            : nullptr;
    const bool cycle_trigger =
        pending != nullptr &&
        pending->plan().trigger == fault::TriggerKind::kCycle;
    Cycle target = std::min(max_cycles, next_checkpoint);
    std::optional<Addr> stop_pc;
    if (cycle_trigger) {
      target = std::min<Cycle>(target, pending->plan().trigger_value);
    } else if (pending != nullptr) {
      stop_pc = static_cast<Addr>(pending->plan().trigger_value);
    }
    if (s.machine_engine) {
      // Multi-core machines reject pc triggers at build()/arm_fault.
      const core::MachineStop stop = s.machine_engine->run(target);
      s.stop_core = stop.core;
      reason = stop.reason;
    } else {
      reason = s.c0().engine->run(target, stop_pc);
    }
    if (reason != core::StopReason::kCycleLimit) break;

    // Fire or save whatever is due at this stop. A cycle trigger fires
    // once the clock reaches it, however the run was cut; the engine
    // stops short of `target` only at the trigger PC.
    const Cycle now = stats().cycles;
    if (pending != nullptr &&
        (cycle_trigger ? now >= pending->plan().trigger_value
                       : now < target)) {
      pending->fire(fault_target.cpu, &fault_target.hub,
                    fault_target.opb.get(), &fault_target.trace_bus);
    }
    if (next_checkpoint < max_cycles && now >= next_checkpoint) {
      char suffix[32];
      std::snprintf(suffix, sizeof suffix, "%06llu.ckpt",
                    static_cast<unsigned long long>(seq++));
      if (const Status saved = save_checkpoint(s.checkpoint_prefix + suffix);
          !saved.ok) {
        std::fprintf(stderr, "SimSystem: periodic checkpoint failed: %s\n",
                     saved.message.c_str());
      }
      next_checkpoint = now + s.checkpoint_interval;
    }
    if (now >= max_cycles) break;
  }
  s.last_run_wall_seconds = watch.elapsed_seconds();
  // Make every attached sink durable after each run: the JSONL/VCD files
  // are complete on disk even if the caller never destroys the system.
  for (auto& core : s.cores) core->trace_bus.flush();
  return reason;
}

core::CoSimStats SimSystem::stats() const {
  if (state_->machine_engine) return state_->machine_engine->aggregate_stats();
  return core_stats(0);
}

core::CoSimStats SimSystem::core_stats(std::size_t index) const {
  return state_->cores[index]->engine->stats();
}

obs::TraceBus& SimSystem::trace_bus(std::size_t index) {
  return state_->cores[index]->trace_bus;
}

double SimSystem::run_wall_seconds() const noexcept {
  return state_->last_run_wall_seconds;
}

estimate::ResourceReport SimSystem::resource_report() const {
  if (!state_->machine_engine) {
    return estimate::estimate_system(State::describe(state_->c0()));
  }
  // Machine estimate: one processor system per core, parts prefixed
  // with the core name so the report reads like the floorplan.
  estimate::ResourceReport total;
  for (const auto& core : state_->cores) {
    estimate::ResourceReport report =
        estimate::estimate_system(State::describe(*core));
    for (estimate::ResourcePart& part : report.parts) {
      part.name = core->name + "." + part.name;
      total.parts.push_back(std::move(part));
    }
    total.estimated += report.estimated;
    total.implemented += report.implemented;
  }
  return total;
}

energy::EnergyReport SimSystem::energy_report() const {
  if (!state_->machine_engine) {
    return energy_report(resource_report().implemented);
  }
  // Machine estimate: each core's dynamic + static share, summed; the
  // cores tick one shared clock, so the covered cycle count is the max.
  energy::EnergyReport total;
  for (const auto& core : state_->cores) {
    const estimate::ResourceReport report =
        estimate::estimate_system(State::describe(*core));
    const energy::EnergyReport slice = energy::estimate_energy(
        core->cpu.stats(), core->hardware.get(),
        core->engine->stats().hw_cycles_stepped, report.implemented);
    total.processor_nj += slice.processor_nj;
    total.peripheral_nj += slice.peripheral_nj;
    total.static_nj += slice.static_nj;
    total.cycles = std::max(total.cycles, slice.cycles);
  }
  return total;
}

energy::EnergyReport SimSystem::energy_report(
    const ResourceVec& implemented) const {
  // A whole-machine resource vector cannot be split back per core;
  // recompute from scratch instead of misattributing the static share.
  if (state_->machine_engine) return energy_report();
  const State::Core& core = state_->c0();
  return energy::estimate_energy(core.cpu.stats(), core.hardware.get(),
                                 stats().hw_cycles_stepped, implemented);
}

iss::DbtStats SimSystem::dbt_stats() const {
  iss::DbtStats total;
  for (const auto& core : state_->cores) {
    const iss::DbtStats& dbt = core->cpu.dbt_stats();
    total.blocks_translated += dbt.blocks_translated;
    total.block_dispatches += dbt.block_dispatches;
    total.smc_retirements += dbt.smc_retirements;
    total.dbt_instructions += dbt.dbt_instructions;
  }
  return total;
}

namespace {

// Superblock-tier counters ride along in the metrics snapshot once the
// core has executed anything (a pre-run snapshot stays empty). They are
// emitted even when the core never reached the dbt tier — as zeros — so
// the counter-key schema is identical across exec tiers and streamed
// snapshots diff cleanly tier-against-tier.
// Note an enabled trace bus (any sink, which
// Builder::metrics attaches) forces the precise fallback, so these are
// zero under --metrics unless the tier ran before the sink was enabled;
// `monitor stats` is the live view (DESIGN.md §12).
void inject_dbt_counters(obs::MetricsSnapshot& snapshot,
                         const iss::Processor& cpu,
                         const std::string& prefix) {
  const iss::DbtStats& dbt = cpu.dbt_stats();
  snapshot.counters[prefix + "dbt.blocks_translated"] = dbt.blocks_translated;
  snapshot.counters[prefix + "dbt.block_dispatches"] = dbt.block_dispatches;
  snapshot.counters[prefix + "dbt.smc_retirements"] = dbt.smc_retirements;
  snapshot.counters[prefix + "dbt.fast_path_instructions"] =
      dbt.dbt_instructions;
}

}  // namespace

obs::MetricsSnapshot SimSystem::metrics_snapshot() const {
  if (!state_->machine_engine) {
    const State::Core& core = state_->c0();
    if (core.metrics == nullptr) return obs::MetricsSnapshot{};
    obs::MetricsSnapshot snapshot = core.metrics->snapshot();
    if (!snapshot.empty() || core.cpu.cycle() != 0) {
      inject_dbt_counters(snapshot, core.cpu, "");
    }
    return snapshot;
  }
  // Merge the per-core registries under "corename." key prefixes.
  obs::MetricsSnapshot merged;
  for (const auto& core : state_->cores) {
    if (core->metrics == nullptr) continue;
    obs::MetricsSnapshot snapshot = core->metrics->snapshot();
    if (!snapshot.empty() || core->cpu.cycle() != 0) {
      inject_dbt_counters(snapshot, core->cpu, "");
    }
    for (auto& [key, value] : snapshot.counters) {
      merged.counters[core->name + "." + key] = value;
    }
    for (auto& [key, histogram] : snapshot.histograms) {
      merged.histograms[core->name + "." + key] = std::move(histogram);
    }
  }
  return merged;
}

obs::TraceBus& SimSystem::trace_bus() noexcept {
  return state_->c0().trace_bus;
}

iss::Processor& SimSystem::cpu() noexcept { return state_->c0().cpu; }
const iss::Processor& SimSystem::cpu() const noexcept {
  return state_->c0().cpu;
}
iss::LmbMemory& SimSystem::memory() noexcept { return state_->c0().memory; }
const iss::LmbMemory& SimSystem::memory() const noexcept {
  return state_->c0().memory;
}
const assembler::Program& SimSystem::program() const noexcept {
  return state_->c0().program;
}
sysgen::Model* SimSystem::hardware() noexcept {
  return state_->c0().hardware.get();
}
const sysgen::Model* SimSystem::hardware() const noexcept {
  return state_->c0().hardware.get();
}
core::CoSimEngine* SimSystem::engine() noexcept {
  State::Core& core = state_->c0();
  return core.hardware ? &*core.engine : nullptr;
}

fsl::FslHub& SimSystem::fsl_hub() noexcept { return state_->c0().hub; }

bus::OpbBus* SimSystem::opb() noexcept { return state_->c0().opb.get(); }

std::size_t SimSystem::core_count() const noexcept {
  return state_->cores.size();
}

const std::string& SimSystem::core_name(std::size_t index) const {
  return state_->cores[index]->name;
}

iss::Processor& SimSystem::cpu(std::size_t index) {
  return state_->cores[index]->cpu;
}

const assembler::Program& SimSystem::program(std::size_t index) const {
  return state_->cores[index]->program;
}

core::ManyCoreEngine* SimSystem::machine_engine() noexcept {
  return state_->machine_engine ? &*state_->machine_engine : nullptr;
}

std::size_t SimSystem::stop_core() const noexcept { return state_->stop_core; }

const machine::MachineDesc& SimSystem::machine_desc() const noexcept {
  return state_->desc;
}

Addr SimSystem::symbol_on(std::size_t index, const std::string& name) const {
  return state_->cores[index]->program.symbol(name);
}

Word SimSystem::word_on(std::size_t index, const std::string& name,
                        u32 word_index) const {
  const State::Core& core = *state_->cores[index];
  return core.memory.read_word(core.program.symbol(name) + 4 * word_index);
}

Status SimSystem::arm_fault(const fault::FaultPlan& plan, bool immediate) {
  if (Status valid = fault::validate_plan(plan); !valid.ok) return valid;
  if (plan.core >= state_->cores.size()) {
    return Status::failure(
        "fault plan targets core " + std::to_string(plan.core) +
        " but the machine has " + std::to_string(state_->cores.size()) +
        " core(s)");
  }
  if (state_->cores.size() > 1 &&
      plan.trigger == fault::TriggerKind::kPc) {
    return Status::failure(
        "pc-triggered fault plans are not supported on multi-core machines "
        "(use a cycle trigger)");
  }
  // Replace any previous arming wholesale so re-arming is idempotent —
  // including a previous plan on a different core.
  for (auto& core : state_->cores) {
    core->hub.clear_faults();
    if (core->opb) core->opb->clear_fault();
  }
  state_->fault_core = plan.core;
  State::Core& target = *state_->cores[plan.core];
  state_->injector = std::make_unique<fault::Injector>(plan);
  state_->injector->arm(&target.hub, target.opb.get());
  if (immediate && state_->injector->needs_point_trigger()) {
    state_->injector->fire(target.cpu, &target.hub, target.opb.get(),
                           &target.trace_bus);
  }
  return {};
}

const fault::Injector* SimSystem::fault_injector() const noexcept {
  return state_->injector.get();
}

std::optional<core::DeadlockDiagnosis> SimSystem::deadlock_diagnosis() const {
  if (state_->machine_engine && state_->machine_engine->deadlock_diagnosis()) {
    return state_->machine_engine->deadlock_diagnosis();
  }
  return state_->c0().engine->deadlock_diagnosis();
}

Status SimSystem::sink_status() const {
  for (const auto& core : state_->cores) {
    if (Status status = core->trace_bus.status(); !status.ok) return status;
  }
  return {};
}

std::optional<u16> SimSystem::gdb_port() const noexcept {
  return state_->gdb_port;
}

Expected<rsp::SessionEnd> SimSystem::serve_gdb() {
  if (!state_->gdb_port) {
    return Expected<rsp::SessionEnd>::failure(
        "SimSystem: no gdb port configured (call Builder::gdb_server)");
  }
  return serve_gdb(*state_->gdb_port);
}

Expected<rsp::SessionEnd> SimSystem::serve_gdb(
    u16 port, std::function<void(u16)> on_listen) {
  using Failure = Expected<rsp::SessionEnd>;
  Expected<rsp::TcpListener> bound = rsp::TcpListener::listen(port);
  if (!bound) {
    return Failure::failure("SimSystem: gdb server: " + bound.error());
  }
  rsp::TcpListener listener = std::move(bound).value();
  if (on_listen) on_listen(listener.port());
  std::unique_ptr<rsp::Transport> transport = listener.accept();
  if (transport == nullptr) {
    return Failure::failure("SimSystem: gdb server accepted no client");
  }
  GdbServeHooks hooks;
  hooks.busy_listener = &listener;  // late arrivals get "E.srv-busy"
  return serve_gdb_on(*transport, hooks);
}

Expected<rsp::SessionEnd> SimSystem::serve_gdb_on(rsp::Transport& transport,
                                                  const GdbServeHooks& hooks) {
  // The debugger drives one core (Builder::gdb_core, default 0); on a
  // multi-core machine each of its steps advances the whole machine
  // through ManyCoreEngine::debug_step so cross-links stay live.
  State::Core& debugged = *state_->cores[state_->gdb_core];
  iss::Debugger debugger(debugged.cpu);
  rsp::CoSimTarget target(debugger, [this, &debugged]() -> core::DebugStep {
    if (state_->machine_engine) {
      return state_->machine_engine->debug_step(state_->gdb_core);
    }
    return debugged.engine->debug_step();
  });
  // System-level monitor verbs layered over the debugger's vocabulary,
  // so `monitor metrics` / `monitor stats` work from a gdb prompt.
  target.set_monitor_extra([this](std::string_view line) -> std::string {
    if (line == "metrics") {
      const obs::MetricsSnapshot snapshot = metrics_snapshot();
      if (snapshot.empty()) {
        return "metrics: not enabled (build with Builder::metrics)";
      }
      return snapshot.to_string();
    }
    if (line == "fault") {
      const fault::Injector* injector = fault_injector();
      if (injector == nullptr) return "fault: none armed";
      std::string out = "fault: " + injector->plan().to_string();
      out += injector->armed_or_fired()
                 ? (injector->applied() ? "\nstate: " + injector->detail()
                                        : "\nstate: engaged, not applied")
                 : "\nstate: waiting for trigger";
      return out;
    }
    if (line.rfind("fault ", 0) == 0) {
      const Expected<fault::FaultPlan> parsed =
          fault::parse_plan(std::string(line.substr(6)));
      if (!parsed) return "fault: " + parsed.error();
      // From a debugger the system is stopped at the prompt: point
      // triggers fire right here; count triggers arm and fire later.
      if (const Status status = arm_fault(parsed.value(), true); !status.ok) {
        return "fault: " + status.message;
      }
      return "fault: " + fault_injector()->detail();
    }
    if (line.rfind("checkpoint ", 0) == 0) {
      const std::string path(line.substr(11));
      if (path.empty()) return "checkpoint: missing path";
      if (const Status saved = save_checkpoint(path); !saved.ok) {
        return "checkpoint: " + saved.message;
      }
      return "checkpoint: saved to " + path;
    }
    if (line.rfind("restore ", 0) == 0) {
      const std::string path(line.substr(8));
      if (path.empty()) return "restore: missing path";
      if (const Status restored = restore(path); !restored.ok) {
        return "restore: " + restored.message;
      }
      return "restore: restored from " + path;
    }
    if (line == "stats") return stats_text(*this);
    return {};
  });

  rsp::RspServer server(transport, target);
  server.set_busy_listener(hooks.busy_listener);
  server.set_cancel(hooks.cancel);
  const rsp::SessionEnd end = server.serve();
  // The client may have run the program to completion: make the trace
  // sinks durable exactly as run() does.
  for (auto& core : state_->cores) core->trace_bus.flush();
  return end;
}

std::string stats_text(const SimSystem& system) {
  const core::CoSimStats s = system.stats();
  std::string out;
  out += "cycles " + std::to_string(s.cycles);
  out += "\ninstructions " + std::to_string(s.instructions);
  out += "\nfsl_stall_cycles " + std::to_string(s.fsl_stall_cycles);
  out += "\nhw_cycles_stepped " + std::to_string(s.hw_cycles_stepped);
  out += "\nhw_cycles_skipped " + std::to_string(s.hw_cycles_skipped);
  out += "\nwords_to_hw " + std::to_string(s.bridge.words_to_hw);
  out += "\nwords_from_hw " + std::to_string(s.bridge.words_from_hw);
  const iss::DbtStats dbt = system.dbt_stats();
  out += "\ndbt_blocks_translated " + std::to_string(dbt.blocks_translated);
  out += "\ndbt_block_dispatches " + std::to_string(dbt.block_dispatches);
  out += "\ndbt_smc_retirements " + std::to_string(dbt.smc_retirements);
  out += "\ndbt_fast_path_instructions " + std::to_string(dbt.dbt_instructions);
  if (system.core_count() > 1) {
    for (std::size_t i = 0; i < system.core_count(); ++i) {
      const core::CoSimStats cs = system.core_stats(i);
      const std::string& name = system.core_name(i);
      out += "\ncore." + name + ".cycles " + std::to_string(cs.cycles);
      out += "\ncore." + name + ".instructions " +
             std::to_string(cs.instructions);
      out += "\ncore." + name + ".fsl_stall_cycles " +
             std::to_string(cs.fsl_stall_cycles);
    }
  }
  out += "\n";
  return out;
}

Addr SimSystem::symbol(const std::string& name) const {
  return state_->c0().program.symbol(name);
}

Word SimSystem::word(const std::string& name, u32 index) const {
  return state_->c0().memory.read_word(symbol(name) + 4 * index);
}

// ---------------------------------------------------------------------------
// Builder

SimSystem::Builder& SimSystem::Builder::machine(machine::MachineDesc desc) {
  machine_ = std::move(desc);
  return *this;
}

SimSystem::Builder& SimSystem::Builder::workers(unsigned count) {
  workers_ = count;
  return *this;
}

SimSystem::Builder& SimSystem::Builder::gdb_core(std::size_t index) {
  gdb_core_ = index;
  return *this;
}

SimSystem::Builder& SimSystem::Builder::program(std::string_view source) {
  source_ = std::string(source);
  image_.reset();
  return *this;
}

SimSystem::Builder& SimSystem::Builder::program(assembler::Program image) {
  image_ = std::move(image);
  source_.reset();
  return *this;
}

SimSystem::Builder& SimSystem::Builder::cpu_config(
    const isa::CpuConfig& config) {
  cpu_config_ = config;
  single_core_setter_ = "cpu_config";
  return *this;
}

SimSystem::Builder& SimSystem::Builder::memory_bytes(u32 bytes) {
  memory_bytes_ = bytes;
  single_core_setter_ = "memory_bytes";
  return *this;
}

SimSystem::Builder& SimSystem::Builder::fifo_depth(std::size_t depth) {
  fifo_depth_ = depth;
  single_core_setter_ = "fifo_depth";
  return *this;
}

SimSystem::Builder& SimSystem::Builder::hardware(
    std::unique_ptr<sysgen::Model> model) {
  model_ = std::move(model);
  return *this;
}

SimSystem::Builder& SimSystem::Builder::hardware(HardwareFactory factory) {
  factory_ = std::move(factory);
  return *this;
}

SimSystem::Builder& SimSystem::Builder::bind_fsl(unsigned channel,
                                                 const FslGateways& io) {
  bindings_.push_back({channel, io});
  return *this;
}

SimSystem::Builder& SimSystem::Builder::exec_tier(iss::ExecTier tier) {
  exec_tier_ = tier;
  single_core_setter_ = "exec_tier";
  return *this;
}

SimSystem::Builder& SimSystem::Builder::quiescence(Cycle drain_cycles) {
  quiescence_ = drain_cycles;
  single_core_setter_ = "quiescence";
  return *this;
}

SimSystem::Builder& SimSystem::Builder::deadlock_threshold(Cycle threshold) {
  deadlock_threshold_ = threshold;
  return *this;
}

SimSystem::Builder& SimSystem::Builder::custom_instruction(
    unsigned slot, iss::CustomInstruction unit) {
  custom_.emplace_back(slot, std::move(unit));
  return *this;
}

SimSystem::Builder& SimSystem::Builder::opb(std::unique_ptr<bus::OpbBus> bus) {
  opb_ = std::move(bus);
  return *this;
}

SimSystem::Builder& SimSystem::Builder::fault(const fault::FaultPlan& plan) {
  fault_plan_ = plan;
  return *this;
}

SimSystem::Builder& SimSystem::Builder::trace(std::string path) {
  trace_path_ = std::move(path);
  return *this;
}

SimSystem::Builder& SimSystem::Builder::vcd(std::string path) {
  vcd_path_ = std::move(path);
  return *this;
}

SimSystem::Builder& SimSystem::Builder::metrics() {
  metrics_ = true;
  return *this;
}

SimSystem::Builder& SimSystem::Builder::sink(
    std::unique_ptr<obs::TraceSink> sink) {
  extra_sinks_.push_back(std::move(sink));
  return *this;
}

SimSystem::Builder& SimSystem::Builder::gdb_server(u16 port) {
  gdb_port_ = port;
  return *this;
}

Expected<SimSystem> SimSystem::Builder::build() {
  using Failure = Expected<SimSystem>;

  // 0. Settle on the machine description: the one given to machine(),
  // or one synthesized from the legacy single-core setters (the shim
  // path every pre-machine caller takes). Mixing the two is ambiguous
  // and rejected with a setter-specific diagnostic.
  const bool from_machine = machine_.has_value();
  if (from_machine) {
    if (source_ || image_) {
      return Failure::failure(
          "SimSystem: machine() and program() are mutually exclusive — core "
          "programs come from the machine description");
    }
    if (model_ || factory_) {
      return Failure::failure(
          "SimSystem: machine() and hardware() are mutually exclusive — "
          "peripherals come from the machine description via the "
          "PeripheralRegistry");
    }
    if (!bindings_.empty()) {
      return Failure::failure(
          "SimSystem: machine() and bind_fsl() are mutually exclusive — "
          "peripheral channels come from the machine description");
    }
    if (opb_) {
      return Failure::failure(
          "SimSystem: machine() and opb() are mutually exclusive — OPB "
          "buses are not describable per core yet");
    }
    if (!custom_.empty()) {
      return Failure::failure(
          "SimSystem: machine() and custom_instruction() are mutually "
          "exclusive — custom instructions are not describable per core yet");
    }
    if (single_core_setter_ != nullptr) {
      return Failure::failure(std::string("SimSystem: machine() and ") +
                              single_core_setter_ +
                              "() are mutually exclusive — per-core options "
                              "come from the machine description");
    }
  } else if (!source_ && !image_) {
    return Failure::failure(
        "SimSystem: no program was given (call Builder::program)");
  }
  machine::MachineDesc desc;
  if (from_machine) {
    desc = std::move(*machine_);
    if (const Status valid = desc.validate(); !valid.ok) {
      return Failure::failure("SimSystem: " + valid.message);
    }
  } else {
    machine::CoreDesc core;
    core.name = "cpu0";
    if (source_) core.program = *source_;
    core.memory_bytes = memory_bytes_;
    core.has_barrel_shifter = cpu_config_.has_barrel_shifter;
    core.has_multiplier = cpu_config_.has_multiplier;
    core.has_divider = cpu_config_.has_divider;
    core.exec_tier = exec_tier_;
    desc.cores.push_back(std::move(core));
    desc.fifo_depth = fifo_depth_;
  }
  const bool multi = desc.cores.size() > 1;

  // 1. Software and per-core skeletons (program, memory, FIFOs, CPU).
  auto state = std::make_unique<State>();
  state->gdb_port = gdb_port_;
  state->checkpoint_interval = checkpoint_interval_;
  state->checkpoint_prefix = checkpoint_prefix_;
  for (const machine::CoreDesc& core_desc : desc.cores) {
    assembler::Program program;
    if (!from_machine && image_) {
      program = std::move(*image_);
    } else {
      std::string source;
      if (!from_machine) {
        source = *source_;
      } else if (!core_desc.program.empty()) {
        source = core_desc.program;
      } else {
        std::ifstream in(core_desc.program_file, std::ios::binary);
        if (!in) {
          return Failure::failure("SimSystem: [file-io] cannot read program "
                                  "file '" + core_desc.program_file +
                                  "' for core '" + core_desc.name + "'");
        }
        std::ostringstream text;
        text << in.rdbuf();
        source = text.str();
      }
      Expected<assembler::Program> assembled = assembler::assemble(source);
      if (!assembled) {
        return Failure::failure(
            from_machine
                ? "SimSystem: core '" + core_desc.name +
                      "': program does not assemble: " + assembled.error()
                : "SimSystem: program does not assemble: " + assembled.error());
      }
      program = std::move(assembled).value();
    }

    isa::CpuConfig config = cpu_config_;
    if (from_machine) {
      config = isa::CpuConfig{};
      config.has_barrel_shifter = core_desc.has_barrel_shifter;
      config.has_multiplier = core_desc.has_multiplier;
      config.has_divider = core_desc.has_divider;
    }
    // The FSL channel names (and with them trace/VCD signal names) are
    // scoped by the core name only on real multi-core machines, so a
    // single-core system's output stays byte-identical to before.
    const std::string hub_prefix =
        multi ? core_desc.name + "." : std::string();
    auto core = std::make_unique<State::Core>(
        core_desc.name, std::move(program), config,
        static_cast<u32>(core_desc.memory_bytes), desc.fifo_depth, hub_prefix);
    core->cpu.set_exec_tier(core_desc.exec_tier);
    state->cores.push_back(std::move(core));
  }
  State::Core& c0 = state->c0();

  // 2. Hardware. Shared attachment logic: validate a bundle's channel
  // bindings, then rebuild the core's lock-step engine around it.
  const auto attach = [](State::Core& core, HardwareBundle bundle,
                         const std::string& prefix) -> Status {
    std::set<unsigned> bound;
    unsigned links = 0;
    for (const auto& binding : bundle.channels) {
      if (binding.channel >= fsl::FslHub::kChannels) {
        return Status::failure(
            prefix + "FSL channel " + std::to_string(binding.channel) +
            " is out of range (0.." +
            std::to_string(fsl::FslHub::kChannels - 1) + ")");
      }
      if (!bound.insert(binding.channel).second) {
        return Status::failure(prefix + "FSL channel " +
                               std::to_string(binding.channel) +
                               " is bound twice");
      }
      const FslGateways& io = binding.io;
      if (!io.has_slave() && !io.has_master()) {
        return Status::failure(prefix + "FSL channel " +
                               std::to_string(binding.channel) +
                               " binds no gateways");
      }
      if (io.has_slave() && (io.s_data == nullptr || io.s_exists == nullptr ||
                             io.s_read == nullptr)) {
        return Status::failure(
            prefix + "the slave side of FSL channel " +
            std::to_string(binding.channel) +
            " needs the s_data, s_exists and s_read gateways");
      }
      if (io.has_master() && (io.m_data == nullptr || io.m_write == nullptr)) {
        return Status::failure(prefix + "the master side of FSL channel " +
                               std::to_string(binding.channel) +
                               " needs the m_data and m_write gateways");
      }
      links += (io.has_slave() ? 1u : 0u) + (io.has_master() ? 1u : 0u);
    }
    core.fsl_links += links;
    core.hardware = std::move(bundle.model);
    core.engine.emplace(core.cpu, *core.hardware, core.hub);
    for (const auto& binding : bundle.channels) {
      const FslGateways& io = binding.io;
      if (io.has_slave()) {
        core::SlaveBinding slave;
        slave.channel = binding.channel;
        slave.data = io.s_data;
        slave.exists = io.s_exists;
        slave.control = io.s_control;
        slave.read = io.s_read;
        core.engine->bridge().bind_slave(slave);
      }
      if (io.has_master()) {
        core::MasterBinding master;
        master.channel = binding.channel;
        master.data = io.m_data;
        master.control = io.m_control;
        master.write = io.m_write;
        master.full = io.m_full;
        core.engine->bridge().bind_master(master);
      }
    }
    core.engine->set_quiescence_window(bundle.quiescence);
    return {};
  };

  if (model_ && factory_) {
    return Failure::failure(
        "SimSystem: both a hardware model and a hardware factory were "
        "given; they are mutually exclusive");
  }
  if (!from_machine) {
    // Legacy path: a ready-made model, or a factory that also carries
    // its own channel bindings, wired onto the (only) core.
    std::unique_ptr<sysgen::Model> model = std::move(model_);
    if (factory_) {
      try {
        HardwareBundle produced = factory_();
        model = std::move(produced.model);
        for (const auto& binding : produced.channels) {
          bindings_.push_back(binding);
        }
      } catch (const std::exception& error) {
        return Failure::failure(std::string("SimSystem: hardware factory "
                                            "failed: ") + error.what());
      }
      if (model == nullptr) {
        return Failure::failure(
            "SimSystem: the hardware factory returned no model");
      }
    }
    if (model == nullptr && !bindings_.empty()) {
      return Failure::failure(
          "SimSystem: bind_fsl was called but no hardware model was given");
    }
    if (model != nullptr) {
      HardwareBundle bundle;
      bundle.model = std::move(model);
      bundle.channels = std::move(bindings_);
      bundle.quiescence = quiescence_;
      if (Status status = attach(c0, std::move(bundle), "SimSystem: ");
          !status.ok) {
        return Failure::failure(status.message);
      }
    }
  } else {
    // Machine path: peripherals resolved against the registry. One
    // hardware model per core — a core's peripherals must be merged
    // into one model type, exactly like one Builder::hardware() call.
    std::set<std::size_t> with_peripheral;
    for (const machine::PeripheralDesc& peripheral : desc.peripherals) {
      const std::size_t index = desc.core_index(peripheral.core);
      if (!with_peripheral.insert(index).second) {
        return Failure::failure("SimSystem: core '" + peripheral.core +
                                "' has more than one peripheral; a core "
                                "hosts at most one hardware model");
      }
      const PeripheralFactory* factory =
          PeripheralRegistry::instance().find(peripheral.type);
      if (factory == nullptr) {
        std::string known;
        for (const std::string& type : PeripheralRegistry::instance().types()) {
          known += known.empty() ? type : ", " + type;
        }
        return Failure::failure(
            "SimSystem: unknown peripheral type '" + peripheral.type +
            "' on core '" + peripheral.core + "'" +
            (known.empty() ? std::string(" (no types are registered; call "
                                         "apps::register_machine_peripherals)")
                           : " (registered: " + known + ")"));
      }
      HardwareBundle bundle;
      try {
        bundle = (*factory)(peripheral);
      } catch (const std::exception& error) {
        return Failure::failure("SimSystem: peripheral '" + peripheral.type +
                                "' on core '" + peripheral.core +
                                "': " + error.what());
      }
      if (bundle.model == nullptr) {
        return Failure::failure("SimSystem: peripheral '" + peripheral.type +
                                "' on core '" + peripheral.core +
                                "' produced no model");
      }
      const std::string prefix =
          "SimSystem: core '" + peripheral.core + "': ";
      if (Status status =
              attach(*state->cores[index], std::move(bundle), prefix);
          !status.ok) {
        return Failure::failure(status.message);
      }
    }
    if (multi) {
      // Peripheral-less cores of a machine get an empty hardware model
      // (zero blocks, zero resources), which the machine engine ticks.
      for (auto& core : state->cores) {
        if (core->hardware) continue;
        HardwareBundle bundle;
        bundle.model = std::make_unique<sysgen::Model>(core->name + ".none");
        if (Status status =
                attach(*core, std::move(bundle), "SimSystem: ");
            !status.ok) {
          return Failure::failure(status.message);
        }
      }
    }
  }

  // 3. Fault plan, debug-core and machine-wide option checks.
  if (fault_plan_) {
    if (const Status valid = fault::validate_plan(*fault_plan_); !valid.ok) {
      return Failure::failure("SimSystem: " + valid.message);
    }
    if (fault_plan_->core >= desc.cores.size()) {
      return Failure::failure(
          "SimSystem: fault plan targets core " +
          std::to_string(fault_plan_->core) + " but the machine has " +
          std::to_string(desc.cores.size()) + " core(s)");
    }
    if (multi && fault_plan_->trigger == fault::TriggerKind::kPc) {
      return Failure::failure(
          "SimSystem: pc-triggered fault plans are not supported on "
          "multi-core machines (use a cycle trigger)");
    }
    state->fault_core = fault_plan_->core;
    state->injector = std::make_unique<fault::Injector>(*fault_plan_);
  }
  if (gdb_core_ >= desc.cores.size()) {
    return Failure::failure("SimSystem: gdb_core " +
                            std::to_string(gdb_core_) +
                            " is out of range for a machine with " +
                            std::to_string(desc.cores.size()) + " core(s)");
  }
  state->gdb_core = gdb_core_;
  if (opb_) {
    c0.opb = std::move(opb_);
    c0.cpu.attach_opb(c0.opb.get());
  }

  // 4. Observability sinks, one set per core. The buses live inside the
  // heap-allocated core blocks, so the pointers handed to the
  // components survive moves of the SimSystem itself. On multi-core
  // machines file sinks split per core ("t.jsonl" -> "t.cpu1.jsonl")
  // and every event is stamped with its core of origin.
  for (auto& core : state->cores) {
    if (trace_path_) {
      const std::string path =
          multi ? per_core_path(*trace_path_, core->name) : *trace_path_;
      auto sink = std::make_unique<obs::JsonlSink>(path);
      if (!sink->ok()) {
        return Failure::failure("SimSystem: cannot open trace file '" + path +
                                "'");
      }
      sink->set_disassembler(
          [](Addr, Word raw) { return isa::disassemble(raw); });
      core->trace_bus.add_sink(std::move(sink));
    }
    if (vcd_path_) {
      const std::string path =
          multi ? per_core_path(*vcd_path_, core->name) : *vcd_path_;
      auto sink = std::make_unique<obs::VcdSink>(path);
      if (!sink->ok()) {
        return Failure::failure("SimSystem: cannot open VCD file '" + path +
                                "'");
      }
      core->trace_bus.add_sink(std::move(sink));
    }
    if (metrics_) {
      auto registry = std::make_unique<obs::MetricsRegistry>();
      core->metrics = registry.get();
      core->trace_bus.add_sink(std::move(registry));
    }
    if (multi) core->trace_bus.set_origin(core->name.c_str());
    // Always wired (the bus without sinks costs one enabled() load per
    // would-be event), so sinks can also be attached after build() via
    // SimSystem::trace_bus().
    core->cpu.set_trace_bus(&core->trace_bus);
    core->hub.set_trace_bus(&core->trace_bus);
    if (core->opb) core->opb->set_trace_bus(&core->trace_bus);
    core->engine->set_trace_bus(&core->trace_bus);
    core->engine->set_deadlock_threshold(deadlock_threshold_);
  }
  for (auto& extra : extra_sinks_) {
    if (extra != nullptr) c0.trace_bus.add_sink(std::move(extra));
  }

  // 5. Load programs, custom instructions, and the machine engine.
  try {
    for (auto& core : state->cores) {
      core->memory.load_program(core->program);
    }
    for (auto& [slot, unit] : custom_) {
      c0.cpu.register_custom_instruction(slot, std::move(unit));
    }
  } catch (const std::exception& error) {
    return Failure::failure(std::string("SimSystem: ") + error.what());
  }
  if (multi) {
    state->machine_engine.emplace(desc.quantum);
    state->machine_engine->set_workers(workers_);
    state->machine_engine->set_deadlock_threshold(deadlock_threshold_);
    for (auto& core : state->cores) {
      state->machine_engine->add_core(core->name, core->cpu, *core->engine,
                                      core->hub);
    }
    for (const machine::LinkDesc& link : desc.links) {
      const std::size_t from = desc.core_index(link.from);
      const std::size_t to = desc.core_index(link.to);
      state->cores[from]->fsl_links += 1;
      state->cores[to]->fsl_links += 1;
      if (Status status = state->machine_engine->link(
              from, link.from_channel, to, link.to_channel);
          !status.ok) {
        return Failure::failure("SimSystem: " + status.message);
      }
    }
  }
  state->desc = std::move(desc);

  SimSystem system(std::move(state));
  system.reset();
  return system;
}

}  // namespace mbcosim::sim
