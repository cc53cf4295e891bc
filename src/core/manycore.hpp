// ManyCoreEngine: deterministic parallel co-simulation of N soft
// processors, each with its own hardware model and FSL hub, cross-wired
// by quantum-synchronized FSL links. This generalizes CoSimEngine from
// the paper's single MicroBlaze (Figure 3) to a farm of them — the
// multi-processor variant the paper sketches for larger System
// Generator designs — while keeping the property that makes the rest of
// the repo trustworthy: the simulation result is a pure function of the
// machine description, independent of host thread count or scheduling.
//
// Execution model (conservative quantum synchronization):
//   - Time advances in rounds that end on the absolute quantum grid
//     (q, 2q, 3q, ...). In each round every unfinished core runs alone
//     — its processor, its peripherals, its private FIFOs — up to the
//     shared target, the next quantum multiple (or the run's budget, if
//     that comes first). Cores share no mutable state during a round.
//   - At each quantum multiple the orchestrator thread moves words
//     across the declared cross-core links in declaration order,
//     bounded by destination FIFO space. A word written in round R is
//     thus visible to its reader in round R+1 — the quantum is the link
//     latency. A round cut short by the budget transfers nothing, and
//     the next run() finishes it, so where a run is cut (or
//     checkpointed and restored) never moves a barrier.
//   - A core blocked on an empty (or full) cross-linked FIFO burns
//     stall cycles to the round target exactly like a single-core
//     processor blocked on slow hardware, so cycle accounting never
//     depends on what the other cores happened to be doing.
//
// Host threads: each run() call runs its rounds on fixed lanes — the
// calling thread plus helper threads that live only for that call. A
// core always runs on the same lane, and lanes meet at a spin-then-park
// barrier (see manycore.cpp).
//
// Determinism: rounds are sequential; within a round each core touches
// only core-local state; barrier transfers run on one thread in fixed
// order. Worker count changes which host thread executes a core's
// round — never the order of operations any simulated component
// observes. The machine determinism test asserts byte-identical stats
// and traces at 1, 2, 3 and N workers (tests/machine).
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "common/types.hpp"
#include "core/cosim_engine.hpp"
#include "fsl/fsl_channel.hpp"
#include "fsl/fsl_hub.hpp"
#include "iss/processor.hpp"

namespace mbcosim::ckpt {
class Writer;
class Reader;
}  // namespace mbcosim::ckpt

namespace mbcosim::core {

/// How a machine-level run ended. `core` identifies the culprit for
/// kIllegal / kDeadlock, and for kHalted the last core to halt (ties at
/// the same cycle go to the highest index) — all indices into add_core
/// order. It is kNoCore for kCycleLimit and for a kHalted stop with no
/// observable halt (an empty machine).
struct MachineStop {
  /// Sentinel: no core is responsible for (or known for) this stop.
  static constexpr std::size_t kNoCore = static_cast<std::size_t>(-1);

  StopReason reason = StopReason::kCycleLimit;
  std::size_t core = kNoCore;
};

class ManyCoreEngine {
 public:
  explicit ManyCoreEngine(Cycle quantum = 64) : quantum_(quantum) {}

  /// Register a core. The processor/engine/hub are owned by the caller
  /// (sim::SimSystem keeps them in per-core state blocks) and must
  /// outlive the engine. Cores run in add order; `name` is used in
  /// diagnostics. The per-core engine's own deadlock heuristic is
  /// disabled — a core starving on a cross-link is not deadlocked until
  /// the *whole machine* stops making progress (see set_deadlock_...).
  std::size_t add_core(std::string name, iss::Processor& cpu,
                       CoSimEngine& engine, fsl::FslHub& hub);

  /// Cross-wire `from`'s put-channel to `to`'s get-channel. Channel
  /// validity and conflicts are checked by machine::MachineDesc; this
  /// rejects only out-of-range core indices / channel ids.
  Status link(std::size_t from_core, unsigned from_channel,
              std::size_t to_core, unsigned to_channel);

  /// Host threads (lanes) that advance the cores in each round: run()
  /// uses min(workers, unfinished cores, hardware threads) of them, the
  /// calling thread included. 0 = one per host hardware thread; 1 =
  /// fully serial on the calling thread. Purely a host-performance knob:
  /// results are identical for every value.
  void set_workers(unsigned workers) noexcept { workers_ = workers; }

  /// Machine-level deadlock heuristic: after this many consecutive
  /// simulated cycles in which no core retired an instruction and no
  /// link moved a word, run() gives up (rounded up to whole quanta).
  /// The stall streak is engine state that changes only at quantum
  /// multiples, so run() cuts, debugger steps and restores never move
  /// the stop.
  void set_deadlock_threshold(Cycle cycles) noexcept {
    deadlock_threshold_ = cycles;
  }

  /// Run the machine until every core halts, any core traps, the
  /// machine deadlocks, or `max_cycles` is reached (per-core clock).
  /// Rounds end on quantum multiples, so a run cut at any budget and
  /// resumed gives the same result as one uncut run.
  MachineStop run(Cycle max_cycles);

  /// One debugger step of core `index`: finish the rounds its clock has
  /// already passed, step its processor once, then run the round loop
  /// up to its new clock — on the calling thread, with no helper lanes.
  /// Interleaving debug_step with run() therefore preserves every
  /// statistic, barrier and deadlock stop exactly. The step reports a
  /// machine deadlock the rounds detect, and a trap of any core as
  /// kIllegal. Stepping a core that has already halted is a no-op
  /// reporting kHalted (zero cycles).
  DebugStep debug_step(std::size_t index);

  [[nodiscard]] std::size_t core_count() const noexcept {
    return nodes_.size();
  }
  [[nodiscard]] const std::string& core_name(std::size_t index) const {
    return nodes_[index].name;
  }
  /// Per-core statistics, in add order.
  [[nodiscard]] CoSimStats core_stats(std::size_t index) const {
    return nodes_[index].engine->stats();
  }
  /// Machine totals: cycle count is the maximum per-core clock (the
  /// cores share one system clock); the other fields are sums.
  [[nodiscard]] CoSimStats aggregate_stats() const;
  /// Words moved across every cross-core link so far.
  [[nodiscard]] u64 link_words() const noexcept { return link_words_; }

  /// Diagnosis of the most recent machine deadlock (empty otherwise):
  /// the first blocked core's parked FSL access, channel and FIFO state.
  [[nodiscard]] const std::optional<DeadlockDiagnosis>& deadlock_diagnosis()
      const noexcept {
    return last_deadlock_;
  }
  /// Core index the deadlock diagnosis refers to.
  [[nodiscard]] std::size_t deadlock_core() const noexcept {
    return deadlock_core_;
  }

  [[nodiscard]] Cycle quantum() const noexcept { return quantum_; }

  /// Forget run progress — finished flags, round position, stall
  /// streak, link word counter, halt attribution, deadlock diagnosis.
  /// Call after resetting every core's engine (the caller owns them, so
  /// the reset loop lives there, in sim::SimSystem).
  void reset_progress() noexcept {
    for (Node& node : nodes_) {
      node.finished = false;
      node.last = StopReason::kCycleLimit;
    }
    round_end_ = 0;
    stalled_ = 0;
    progress_mark_ = 0;
    link_words_ = 0;
    last_deadlock_.reset();
    deadlock_core_ = 0;
    last_halted_core_ = MachineStop::kNoCore;
    last_halt_cycle_ = 0;
  }

  /// Checkpoint the engine's own run progress — per-core finished flags
  /// and last stop reasons, the round position, the stall streak, the
  /// link word counter, halt attribution. Core components (processors,
  /// engines, hubs) are serialized by their owner; the deadlock
  /// diagnosis is diagnostic output and is cleared on restore.
  void save_state(ckpt::Writer& writer) const;
  [[nodiscard]] bool load_state(ckpt::Reader& reader);

 private:
  struct Node {
    std::string name;
    iss::Processor* cpu = nullptr;
    CoSimEngine* engine = nullptr;
    fsl::FslHub* hub = nullptr;
    bool finished = false;       ///< halted (terminal; ignored in rounds)
    StopReason last = StopReason::kCycleLimit;
  };

  struct CrossLink {
    std::size_t from_core = 0;
    std::size_t to_core = 0;
    fsl::FslChannel* source = nullptr;  ///< writer's to_hw FIFO
    fsl::FslChannel* sink = nullptr;    ///< reader's from_hw FIFO
  };

  /// Drain every link's source FIFO into its sink FIFO, bounded by
  /// space; returns the number of words moved. Runs on one thread only.
  u64 transfer_links();
  /// The host threads of one run() or debug_step() call (manycore.cpp).
  class Lanes;

  /// The round loop: rounds up to `max_cycles`, each run on `lanes`.
  MachineStop run_rounds(Cycle max_cycles, Lanes& lanes);
  /// At a quantum multiple: extend or reset the stall streak, comparing
  /// instructions plus link words with their total at the previous
  /// multiple; true (with the diagnosis recorded) once it reaches the
  /// deadlock threshold.
  bool stalled_at_barrier();

  /// Advance core `index` to `target` unless it has halted. Touches only
  /// that core's node and components, so lanes may call it concurrently
  /// for distinct cores.
  void advance(std::size_t index, Cycle target);
  /// Record that core `index` halted at its current clock. Runs on the
  /// orchestrator thread only (callers diff finished flags after the
  /// round barrier); keeps the latest halt, ties to the highest index.
  void note_halt(std::size_t index);

  std::vector<Node> nodes_;
  std::vector<CrossLink> links_;
  Cycle quantum_ = 64;
  /// Cycle the last round ended at: every unfinished core's clock is at
  /// or past it, and the next round ends at the next quantum multiple
  /// above it.
  Cycle round_end_ = 0;
  /// Machine stall streak in cycles, and the instructions-plus-link-
  /// words total at the quantum multiple where it last reset.
  Cycle stalled_ = 0;
  u64 progress_mark_ = 0;
  unsigned workers_ = 0;
  Cycle deadlock_threshold_ = 100'000;
  u64 link_words_ = 0;
  std::optional<DeadlockDiagnosis> last_deadlock_;
  std::size_t deadlock_core_ = 0;
  std::size_t last_halted_core_ = MachineStop::kNoCore;
  Cycle last_halt_cycle_ = 0;
};

}  // namespace mbcosim::core
