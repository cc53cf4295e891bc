// Target adapter bridging the RSP server onto the simulated machine:
// registers and memory come from iss::Processor (through the
// iss::Debugger front end, whose breakpoint set and `monitor` command
// vocabulary are reused), and run control advances the machine through
// one machine-step function — core::CoSimEngine::debug_step for a single
// core, core::ManyCoreEngine::debug_step for a machine — so the hardware
// models, the FSL channels and the deadlock streak stay exactly where a
// free run would have them at every stop.
#pragma once

#include <functional>
#include <string>

#include "core/cosim_engine.hpp"
#include "iss/debugger.hpp"
#include "rsp/target.hpp"

namespace mbcosim::rsp {

class CoSimTarget final : public Target {
 public:
  /// One precise step of the whole machine; a step that completes the
  /// engine's deadlock streak stops a resume/step with kStalled.
  using StepFn = std::function<core::DebugStep()>;

  /// `debugger` (aliased, not owned) is the debugged processor's front
  /// end; `step` advances the machine it belongs to.
  CoSimTarget(iss::Debugger& debugger, StepFn step)
      : dbg_(debugger), step_(std::move(step)) {}

  /// Extra monitor-command handler consulted before the debugger's own
  /// vocabulary (an empty reply falls through). SimSystem installs the
  /// `metrics` / `stats` verbs here.
  void set_monitor_extra(std::function<std::string(std::string_view)> extra) {
    monitor_extra_ = std::move(extra);
  }

  [[nodiscard]] iss::Debugger& debugger() noexcept { return dbg_; }

  // -- Target ----------------------------------------------------------
  [[nodiscard]] Word read_reg(unsigned index) override;
  bool write_reg(unsigned index, Word value) override;
  bool read_mem(Addr addr, u32 length, std::string& out) override;
  bool write_mem(Addr addr, std::string_view bytes) override;
  void add_breakpoint(Addr addr) override { dbg_.add_breakpoint(addr); }
  void remove_breakpoint(Addr addr) override { dbg_.remove_breakpoint(addr); }
  StopInfo resume(Cycle max_cycles, bool step_off_breakpoint) override {
    return advance(max_cycles, step_off_breakpoint, false);
  }
  StopInfo step_one(Cycle max_cycles) override {
    return advance(max_cycles, true, true);
  }
  std::string monitor(std::string_view line) override;
  [[nodiscard]] Cycle cycles() const override {
    return dbg_.cpu().cycle();
  }

 private:
  /// Machine steps for at most `max_cycles`, stopping at a breakpoint
  /// (not when stepping one instruction) or once that one retires.
  StopInfo advance(Cycle max_cycles, bool step_off_breakpoint,
                   bool one_instruction);

  iss::Debugger& dbg_;
  StepFn step_;
  std::function<std::string(std::string_view)> monitor_extra_;
};

}  // namespace mbcosim::rsp
