// The debug-target abstraction the RSP server drives: registers, memory,
// breakpoints and run control, independent of how the machine behind it
// is simulated. One adapter (CoSimTarget) bridges it onto the ISS and
// the co-simulation engine that advances the whole machine, so
// continue/step keep the hardware models and the FSL channels at cycle
// parity with the software exactly as a free run does.
#pragma once

#include <string>
#include <string_view>

#include "common/types.hpp"

namespace mbcosim::rsp {

/// Stand-in register numbering of the MB32 remote target (DESIGN.md
/// "Remote debug"): gdb register 0..31 are r0..r31, 32 is the PC, 33 is
/// the machine status register. All are 32-bit, little-endian on the
/// wire like the LMB memory.
inline constexpr unsigned kNumRegs = 34;
inline constexpr unsigned kRegPc = 32;
inline constexpr unsigned kRegMsr = 33;

/// Why a resume / step returned control to the protocol layer.
struct StopInfo {
  enum class Kind : u8 {
    kBreakpoint,  ///< stopped on a software breakpoint
    kStep,        ///< single step retired
    kHalted,      ///< program end (branch-to-self) — maps to an exit reply
    kIllegal,     ///< architectural error (undecodable word / bad unit)
    kStalled,     ///< FSL deadlock heuristic fired (no progress possible)
    kBudget,      ///< cycle quantum exhausted; the target can keep running
  };
  Kind kind = Kind::kStep;
  Addr pc = 0;
};

class Target {
 public:
  virtual ~Target() = default;

  /// Value of gdb register `index` (see the numbering above); 0 for an
  /// index outside the file.
  [[nodiscard]] virtual Word read_reg(unsigned index) = 0;
  /// False for an index outside the file (writes to r0 succeed as no-ops).
  virtual bool write_reg(unsigned index, Word value) = 0;

  /// Append `length` guest bytes starting at `addr` to `out`; false when
  /// the range leaves the guest memory (nothing appended).
  virtual bool read_mem(Addr addr, u32 length, std::string& out) = 0;
  /// Write raw bytes into guest memory; false when out of range.
  virtual bool write_mem(Addr addr, std::string_view bytes) = 0;

  virtual void add_breakpoint(Addr addr) = 0;
  virtual void remove_breakpoint(Addr addr) = 0;

  /// Run until a stop condition or at most `max_cycles` simulated cycles
  /// (Kind::kBudget — the server polls for an interrupt and resumes).
  /// `step_off_breakpoint` suppresses the breakpoint check before the
  /// first instruction so a resume from a breakpoint address makes
  /// progress; the server passes true only on the first quantum.
  virtual StopInfo resume(Cycle max_cycles, bool step_off_breakpoint) = 0;

  /// Execute exactly one instruction, riding out FSL stalls for at most
  /// `max_cycles` simulated cycles (Kind::kBudget: nothing retired yet —
  /// the server polls for an interrupt and steps again).
  virtual StopInfo step_one(Cycle max_cycles) = 0;

  /// Execute a `monitor` command (gdb `qRcmd`) and return its reply text.
  virtual std::string monitor(std::string_view line) = 0;

  /// Current simulated cycle (diagnostics / stop-reply annotations).
  [[nodiscard]] virtual Cycle cycles() const = 0;
};

}  // namespace mbcosim::rsp
