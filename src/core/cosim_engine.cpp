#include "core/cosim_engine.hpp"

#include <cstdio>

#include "ckpt/ckpt.hpp"
#include "isa/isa.hpp"

namespace mbcosim::core {

std::string DeadlockDiagnosis::to_string() const {
  if (channel.empty()) {
    return "deadlock: processor blocked (no FSL access decodes at pc 0x" +
           [](Addr a) {
             char buffer[16];
             std::snprintf(buffer, sizeof buffer, "%08x", a);
             return std::string(buffer);
           }(pc) +
           ")";
  }
  char buffer[192];
  std::snprintf(buffer, sizeof buffer,
                "deadlock: blocking %s on %s (fsl %u) at pc 0x%08x, "
                "fifo %u/%u, blocked %llu cycles",
                is_get ? "get" : "put", channel.c_str(), channel_id, pc,
                occupancy, depth,
                static_cast<unsigned long long>(blocked_cycles));
  return buffer;
}

DeadlockDiagnosis diagnose_deadlock(const iss::Processor& cpu,
                                    const fsl::FslHub& hub,
                                    Cycle blocked_cycles) {
  DeadlockDiagnosis diagnosis;
  diagnosis.pc = cpu.pc();
  diagnosis.blocked_cycles = blocked_cycles;
  if (!cpu.memory().contains(cpu.pc(), 4)) return diagnosis;
  const isa::Instruction in = isa::decode(cpu.memory().read_word(cpu.pc()));
  if (in.op != isa::Op::kGet && in.op != isa::Op::kPut) return diagnosis;
  diagnosis.is_get = in.op == isa::Op::kGet;
  diagnosis.channel_id = in.fsl_id;
  const fsl::FslChannel& channel = diagnosis.is_get ? hub.from_hw(in.fsl_id)
                                                    : hub.to_hw(in.fsl_id);
  diagnosis.channel = channel.name();
  diagnosis.occupancy = static_cast<u32>(channel.occupancy());
  diagnosis.depth = static_cast<u32>(channel.depth());
  return diagnosis;
}

void CoSimEngine::reset(Addr pc) {
  cpu_.reset(pc);
  if (hardware_ != nullptr) hardware_->reset();
  bridge_.hub().clear();
  hw_cycles_ = 0;
  idle_streak_ = 0;
  skipped_cycles_ = 0;
  blocked_streak_ = 0;
  streak_traffic_ = traffic();
  last_deadlock_.reset();
}

void CoSimEngine::tick_hardware(Cycle cycles) {
  if (hardware_ == nullptr) return;
  Cycle skipped_this_call = 0;
  for (Cycle i = 0; i < cycles; ++i) {
    if (quiescence_window_ > 0) {
      if (bridge_.interface_active()) {
        idle_streak_ = 0;
      } else if (++idle_streak_ > quiescence_window_) {
        // The peripheral has provably drained: fast-forward this cycle.
        ++skipped_cycles_;
        ++skipped_this_call;
        ++hw_cycles_;
        continue;
      }
    }
    if (trace_bus_ != nullptr) trace_bus_->set_time(hw_cycles_);
    bridge_.pre_cycle();
    hardware_->step();
    bridge_.post_cycle();
    ++hw_cycles_;
  }
  if (skipped_this_call != 0 && trace_bus_ != nullptr &&
      trace_bus_->enabled()) {
    obs::TraceEvent event;
    event.kind = obs::EventKind::kQuiesceSkip;
    event.cycle = hw_cycles_;
    event.skipped = skipped_this_call;
    trace_bus_->emit(event);
  }
}

// Inline so that run()'s streak locals stay in registers through its
// loop instead of living at an address this call writes through.
inline DebugStep CoSimEngine::precise_step(Cycle& blocked, u64& traffic) {
  DebugStep step{cpu_.step()};
  // Keep the hardware clock in lock step with the processor clock.
  tick_hardware(step.cycles);
  if (step.event == iss::Event::kRetired) {
    blocked = 0;
    traffic = this->traffic();
  } else if (step.event == iss::Event::kFslStall) {
    if (const u64 now = this->traffic(); now != traffic) {
      blocked = 0;
      traffic = now;
    } else if (++blocked >= deadlock_threshold_) {
      step.deadlock = true;
      report_deadlock(blocked);
    }
  }
  return step;
}

void CoSimEngine::report_deadlock(Cycle blocked) {
  last_deadlock_ = diagnose_deadlock(cpu_, bridge_.hub(), blocked);
  if (trace_bus_ != nullptr && trace_bus_->enabled()) {
    obs::TraceEvent event;
    event.kind = obs::EventKind::kDeadlock;
    event.cycle = cpu_.cycle();
    event.cycles = blocked;
    event.channel = last_deadlock_->channel.empty()
                        ? nullptr
                        : last_deadlock_->channel.c_str();
    trace_bus_->emit(event);
  }
}

DebugStep CoSimEngine::debug_step() {
  return precise_step(blocked_streak_, streak_traffic_);
}

StopReason CoSimEngine::run(Cycle max_cycles, std::optional<Addr> stop_pc) {
  // The streak stays in locals for the loop and is written back on exit.
  Cycle blocked = blocked_streak_;
  u64 traffic = streak_traffic_;
  StopReason reason = StopReason::kCycleLimit;
  while (!cpu_.halted() && cpu_.cycle() < max_cycles) {
    if (stop_pc) {
      // A batch could run past the stop PC: stay on the precise path.
      if (cpu_.pc() == *stop_pc) break;
    } else if (cpu_.fast_path_available()) {
      // Multi-cycle quantum: run the CPU ahead through code that cannot
      // touch the FSL interface, then advance the hardware model by the
      // same number of cycles. The two sides interact only through the
      // FIFOs, and the batch stops *before* any FSL access, so both
      // clocks agree at every FIFO handshake — the same cycle accuracy
      // as strict one-step alternation, at a fraction of the cost.
      const iss::BatchResult batch = cpu_.run_batch(max_cycles, true);
      if (batch.cycles != 0) {
        tick_hardware(batch.cycles);
        blocked = 0;
        traffic = this->traffic();
      }
      if (batch.stop == iss::BatchStop::kHalted) {
        reason = StopReason::kHalted;
        break;
      }
      if (batch.stop == iss::BatchStop::kIllegal) {
        reason = StopReason::kIllegal;
        break;
      }
      if (batch.stop == iss::BatchStop::kBudget) continue;  // loop exits
      // kFslPending (or kPrecise): the hardware is at cycle parity; the
      // next instruction takes the precise lock-step path below.
    }
    const DebugStep step = precise_step(blocked, traffic);
    if (step.deadlock) {
      reason = StopReason::kDeadlock;
      break;
    }
    if (step.event == iss::Event::kHalted) {
      reason = StopReason::kHalted;
      break;
    }
    if (step.event == iss::Event::kIllegal) {
      reason = StopReason::kIllegal;
      break;
    }
  }
  blocked_streak_ = blocked;
  streak_traffic_ = traffic;
  if (reason == StopReason::kCycleLimit && cpu_.halted()) {
    return StopReason::kHalted;
  }
  return reason;
}

void CoSimEngine::save_state(ckpt::Writer& writer) const {
  writer.write_u64(blocked_streak_);
  writer.write_u64(streak_traffic_);
  writer.write_bool(hardware_ != nullptr);
  if (hardware_ == nullptr) return;
  hardware_->save_state(writer);
  writer.write_u64(hw_cycles_);
  writer.write_u64(idle_streak_);
  writer.write_u64(skipped_cycles_);
  bridge_.save_state(writer);
}

bool CoSimEngine::load_state(ckpt::Reader& reader) {
  last_deadlock_.reset();
  blocked_streak_ = reader.read_u64();
  streak_traffic_ = reader.read_u64();
  if (reader.read_bool() != (hardware_ != nullptr)) return false;
  if (hardware_ == nullptr) return reader.ok();
  if (!hardware_->load_state(reader)) return false;
  hw_cycles_ = reader.read_u64();
  idle_streak_ = reader.read_u64();
  skipped_cycles_ = reader.read_u64();
  if (!bridge_.load_state(reader)) return false;
  return reader.ok();
}

CoSimStats CoSimEngine::stats() const {
  CoSimStats stats;
  stats.cycles = cpu_.stats().cycles;
  stats.instructions = cpu_.stats().instructions;
  stats.fsl_stall_cycles = cpu_.stats().fsl_stall_cycles;
  stats.hw_cycles_stepped = hw_cycles_ - skipped_cycles_;
  stats.hw_cycles_skipped = skipped_cycles_;
  stats.bridge = bridge_.stats();
  return stats;
}

}  // namespace mbcosim::core
