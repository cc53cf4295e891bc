// Typed observability events — the vocabulary of the TraceBus (see
// trace_bus.hpp). Every instrumented component of the simulator reports
// what it did through one flat, cheap-to-construct TraceEvent; sinks
// (JSONL log, VCD waveform, metrics registry) interpret the fields that
// their kind defines. This is the high-level analog of the Simulink
// scopes the paper attaches to the co-simulated design: the same
// signals — instruction retirement, FSL FIFO handshakes and occupancy,
// OPB wait states, engine fast-forwarding — without dropping to the
// low-level RTL waveforms.
#pragma once

#include "common/types.hpp"

namespace mbcosim::obs {

enum class EventKind : u8 {
  // Instruction-step events (iss::Processor), one per Processor::step.
  kInstrRetire,   ///< instruction completed; pc/raw/cycles valid
  kInstrStall,    ///< blocked blocking FSL access burned one cycle
  kInstrHalt,     ///< the halting branch-to-self retired
  kInstrIllegal,  ///< undecodable word, disabled unit, or fetch fault
  // FSL FIFO events (fsl::FslChannel); channel/occupancy/depth valid.
  kFslPush,       ///< a word entered the FIFO (data/control valid)
  kFslPop,        ///< a word left the FIFO (data/control valid)
  kFslRefused,    ///< a push was refused because the FIFO was full
  // OPB events (bus::OpbBus); addr/wait_states valid.
  kOpbRead,
  kOpbWrite,
  // Engine events (core::CoSimEngine, software-only cores included).
  kQuiesceSkip,   ///< `skipped` quiescent hardware cycles fast-forwarded
  kDeadlock,      ///< deadlock heuristic fired after `cycles` blocked
  // Fault-injection events (src/fault); `label` carries site/mode or the
  // outcome class, `detail` the human-readable specifics.
  kFaultInject,   ///< a fault fired into the running system
  kFaultOutcome,  ///< an experiment classified its faulted run
};

/// Stable lower-case name of an event kind (used by the JSONL sink and
/// the metrics registry's counter keys).
[[nodiscard]] constexpr const char* kind_name(EventKind kind) noexcept {
  switch (kind) {
    case EventKind::kInstrRetire: return "retire";
    case EventKind::kInstrStall: return "stall";
    case EventKind::kInstrHalt: return "halt";
    case EventKind::kInstrIllegal: return "illegal";
    case EventKind::kFslPush: return "fsl_push";
    case EventKind::kFslPop: return "fsl_pop";
    case EventKind::kFslRefused: return "fsl_refused";
    case EventKind::kOpbRead: return "opb_read";
    case EventKind::kOpbWrite: return "opb_write";
    case EventKind::kQuiesceSkip: return "quiesce_skip";
    case EventKind::kDeadlock: return "deadlock";
    case EventKind::kFaultInject: return "fault_inject";
    case EventKind::kFaultOutcome: return "fault_outcome";
  }
  return "unknown";
}

/// One observability event. A flat struct rather than a variant so the
/// emitting hot paths pay one aggregate initialization and no
/// allocation; only the fields the kind documents are meaningful.
struct TraceEvent {
  EventKind kind = EventKind::kInstrRetire;
  Cycle cycle = 0;  ///< simulated time the event belongs to

  /// Originating core of the event ("cpu0", "cpu1", ...) on a multi-core
  /// machine; null on single-core systems, where sink output must stay
  /// byte-identical to earlier releases. Stamped centrally by the
  /// emitting core's TraceBus (TraceBus::set_origin), so producers never
  /// set it themselves. Points at storage owned by the machine
  /// description and outlives the sink callback.
  const char* origin = nullptr;

  // Instruction events.
  Addr pc = 0;
  Word raw = 0;      ///< fetched instruction word (0 on a fetch fault)
  Cycle cycles = 0;  ///< cycles this step consumed / blocked streak length

  // FSL events. `channel` points at the channel's own name storage and
  // is valid only for the duration of the sink callback.
  const char* channel = nullptr;
  u32 occupancy = 0;  ///< FIFO occupancy after the operation
  u32 depth = 0;
  Word data = 0;
  bool control = false;

  // OPB events.
  Addr addr = 0;
  Cycle wait_states = 0;

  // Engine events.
  Cycle skipped = 0;  ///< quiescent cycles fast-forwarded in this hop

  // Fault events. Both pointers reference storage with static lifetime
  // (enum-name tables) or storage that outlives the sink callback.
  const char* label = nullptr;   ///< "site/mode" or outcome class name
  const char* detail = nullptr;  ///< human-readable injection specifics
};

}  // namespace mbcosim::obs
