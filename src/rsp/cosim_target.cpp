#include "rsp/cosim_target.hpp"

#include <sstream>

namespace mbcosim::rsp {

Word CoSimTarget::read_reg(unsigned index) {
  iss::Processor& cpu = dbg_.cpu();
  if (index < isa::kNumRegisters) return cpu.reg(index);
  if (index == kRegPc) return cpu.pc();
  if (index == kRegMsr) return cpu.msr();
  return 0;
}

bool CoSimTarget::write_reg(unsigned index, Word value) {
  iss::Processor& cpu = dbg_.cpu();
  if (index < isa::kNumRegisters) {
    cpu.set_reg(index, value);  // r0 writes are architectural no-ops
    return true;
  }
  if (index == kRegPc) {
    cpu.set_pc(static_cast<Addr>(value));
    return true;
  }
  if (index == kRegMsr) {
    cpu.set_msr(value);
    return true;
  }
  return false;
}

bool CoSimTarget::read_mem(Addr addr, u32 length, std::string& out) {
  const iss::LmbMemory& memory = dbg_.cpu().memory();
  if (!memory.contains(addr, length)) return false;
  out.reserve(out.size() + length);
  for (u32 i = 0; i < length; ++i) {
    out.push_back(static_cast<char>(memory.read_byte(addr + i)));
  }
  return true;
}

bool CoSimTarget::write_mem(Addr addr, std::string_view bytes) {
  iss::Processor& cpu = dbg_.cpu();
  iss::LmbMemory& memory = cpu.memory();
  const u32 length = static_cast<u32>(bytes.size());
  if (!memory.contains(addr, length)) return false;
  for (u32 i = 0; i < length; ++i) {
    memory.write_byte(addr + i, static_cast<u8>(bytes[i]));
  }
  // The write may have patched instruction words (this is exactly how
  // gdb plants software breakpoints): drop the predecoded entries of
  // every word the range touches.
  for (Addr word = addr & ~Addr{3}; word < addr + length; word += 4) {
    cpu.invalidate_predecode(word);
  }
  return true;
}

StopInfo CoSimTarget::advance(Cycle max_cycles, bool step_off_breakpoint,
                              bool one_instruction) {
  iss::Processor& cpu = dbg_.cpu();
  if (cpu.halted()) return {StopInfo::Kind::kHalted, cpu.pc()};
  const Cycle start = cpu.cycle();
  bool first = step_off_breakpoint;
  // FSL stalls are ridden out: the rest of the machine is catching up.
  while (cpu.cycle() - start < max_cycles) {
    if (!first && dbg_.has_breakpoint(cpu.pc())) {
      return {StopInfo::Kind::kBreakpoint, cpu.pc()};
    }
    first = one_instruction;
    const core::DebugStep step = step_();
    if (step.deadlock) return {StopInfo::Kind::kStalled, cpu.pc()};
    switch (step.event) {
      case iss::Event::kHalted:
        return {StopInfo::Kind::kHalted, cpu.pc()};
      case iss::Event::kIllegal:
        return {StopInfo::Kind::kIllegal, cpu.pc()};
      case iss::Event::kRetired:
        if (one_instruction) return {StopInfo::Kind::kStep, cpu.pc()};
        break;
      case iss::Event::kFslStall:
        break;
    }
  }
  return {StopInfo::Kind::kBudget, cpu.pc()};
}

std::string CoSimTarget::monitor(std::string_view line) {
  if (monitor_extra_) {
    std::string reply = monitor_extra_(line);
    if (!reply.empty()) return reply;
  }
  // The debugger's own run control steps the bare processor, leaving
  // the hardware models and the other cores behind.
  std::string verb;
  std::istringstream(std::string(line)) >> verb;
  if (verb == "step") {
    return "error: monitor step bypasses the co-simulation; use gdb's stepi";
  }
  if (verb == "cont") {
    return "error: monitor cont bypasses the co-simulation; use gdb's "
           "continue";
  }
  return dbg_.command(line);
}

}  // namespace mbcosim::rsp
