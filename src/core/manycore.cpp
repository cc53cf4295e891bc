#include "core/manycore.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <optional>
#include <thread>
#include <utility>

#include "ckpt/ckpt.hpp"

namespace mbcosim::core {

namespace {

/// Effectively-infinite per-core deadlock threshold: a core starving on
/// a cross-link looks exactly like a core starving on slow hardware,
/// and only the machine-level heuristic may call it a deadlock.
constexpr Cycle kNeverDeadlock = ~Cycle{0} >> 1;

/// How long a waiting lane polls before it parks. A round of the
/// shipped CORDIC farm costs ~100 us of host time, nearly all of it the
/// worker core's; the lanes that finish early poll through the rest of
/// the round and start the next one the moment it is published, instead
/// of paying a futex wake-up on the critical path. Past the bound they
/// park, so a lane with nothing to do for long costs no CPU.
constexpr auto kSpinFor = std::chrono::microseconds(200);

unsigned host_threads() noexcept {
  static const unsigned count =
      std::max(std::thread::hardware_concurrency(), 1u);
  return count;
}

/// Lanes of every run() in progress in this process (a server hosts one
/// engine per session). Polling only pays while they fit on the host's
/// threads; past that a polling lane takes its CPU from a busy lane of
/// another run, so waits park at once.
std::atomic<unsigned> lanes_in_use{0};

void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

/// Wait until `word` differs from `old`: poll with a pause hint for up
/// to kSpinFor while the host is not oversubscribed (lanes_in_use), then
/// park in std::atomic::wait. Returns the new value.
u32 await_change(const std::atomic<u32>& word, u32 old) {
  if (lanes_in_use.load(std::memory_order_relaxed) <= host_threads()) {
    const auto deadline = std::chrono::steady_clock::now() + kSpinFor;
    for (unsigned polls = 1;; ++polls) {
      const u32 now = word.load(std::memory_order_acquire);
      if (now != old) return now;
      if (polls % 64 == 0 && std::chrono::steady_clock::now() >= deadline) {
        break;
      }
      cpu_relax();
    }
  }
  word.wait(old, std::memory_order_acquire);
  return word.load(std::memory_order_acquire);
}

}  // namespace

/// The host threads of one run() or debug_step() call (a debug step
/// has lane 0 only). Lane 0 is the calling thread (the orchestrator);
/// every other lane is a helper std::jthread that lives exactly as long
/// as this object. The k-th unfinished core at
/// construction always runs on lane k mod lanes, so a core's ISS and
/// hardware-model state stay on one host thread for the whole call.
///
/// A round: the orchestrator publishes the target and bumps `epoch_`,
/// runs lane 0, then waits until `done_` counts every helper. A helper
/// waits for the epoch to move, runs its cores and bumps `done_`. Both
/// waits poll, then park (await_change). With one lane there are no
/// helpers and a round is lane 0 plus two uncontended atomic updates.
class ManyCoreEngine::Lanes {
 public:
  Lanes(ManyCoreEngine& engine, unsigned count)
      : engine_(engine), cores_(count), errors_(count), count_(count) {
    std::size_t rank = 0;
    for (std::size_t i = 0; i < engine.nodes_.size(); ++i) {
      if (!engine.nodes_[i].finished) cores_[rank++ % count].push_back(i);
    }
    helpers_.reserve(count - 1);
    lanes_in_use.fetch_add(count_, std::memory_order_relaxed);
    try {
      for (unsigned lane = 1; lane < count; ++lane) {
        helpers_.emplace_back([this, lane] { serve(lane); });
      }
    } catch (...) {
      // Out of threads: release the helpers already started, which
      // helpers_ then joins on the way out.
      stop();
      throw;
    }
  }
  Lanes(const Lanes&) = delete;
  Lanes& operator=(const Lanes&) = delete;
  // Also reached by unwinding mid-round: a helper still running its
  // cores sees the new epoch once it is done and exits. helpers_ joins
  // in its destructor, before the atomics go away.
  ~Lanes() { stop(); }

  /// Advance every lane's unfinished cores to `target`; returns once
  /// all of them have. An exception a core throws on a helper lane is
  /// rethrown here, as it would be from the calling thread at one lane.
  void run_round(Cycle target) {
    target_ = target;
    done_.store(0, std::memory_order_relaxed);
    epoch_.fetch_add(1, std::memory_order_release);
    epoch_.notify_all();
    run_lane(0);
    const auto helpers = static_cast<u32>(helpers_.size());
    for (u32 done = done_.load(std::memory_order_acquire); done != helpers;) {
      done = await_change(done_, done);
    }
    for (std::exception_ptr& error : errors_) {
      if (error) std::rethrow_exception(std::exchange(error, nullptr));
    }
  }

 private:
  void stop() {
    stopping_.store(true, std::memory_order_relaxed);
    epoch_.fetch_add(1, std::memory_order_release);
    epoch_.notify_all();
    lanes_in_use.fetch_sub(count_, std::memory_order_relaxed);
  }

  void run_lane(unsigned lane) {
    for (const std::size_t index : cores_[lane]) {
      engine_.advance(index, target_);
    }
  }

  void serve(unsigned lane) {
    u32 seen = 0;
    for (;;) {
      seen = await_change(epoch_, seen);
      if (stopping_.load(std::memory_order_relaxed)) return;
      try {
        run_lane(lane);
      } catch (...) {
        errors_[lane] = std::current_exception();
      }
      done_.fetch_add(1, std::memory_order_acq_rel);
      done_.notify_one();
    }
  }

  ManyCoreEngine& engine_;
  std::vector<std::vector<std::size_t>> cores_;  ///< core indices by lane
  /// What a helper lane's cores threw this round; each slot is written
  /// by its lane only, read by the orchestrator after the round.
  std::vector<std::exception_ptr> errors_;
  const unsigned count_;  ///< lanes, counted in lanes_in_use
  // Written by the orchestrator before the epoch bump that publishes
  // it; helpers read it only after seeing that bump.
  Cycle target_ = 0;
  // Atomic: stop() runs on unwinding too, while a helper may still be
  // reading it for the round the orchestrator abandoned.
  std::atomic<bool> stopping_{false};
  alignas(64) std::atomic<u32> epoch_{0};  ///< bumped once per round
  alignas(64) std::atomic<u32> done_{0};   ///< helpers done this round
  std::vector<std::jthread> helpers_;      ///< last member: joins first
};

std::size_t ManyCoreEngine::add_core(std::string name, iss::Processor& cpu,
                                     CoSimEngine& engine, fsl::FslHub& hub) {
  engine.set_deadlock_threshold(kNeverDeadlock);
  Node node;
  node.name = std::move(name);
  node.cpu = &cpu;
  node.engine = &engine;
  node.hub = &hub;
  nodes_.push_back(std::move(node));
  return nodes_.size() - 1;
}

Status ManyCoreEngine::link(std::size_t from_core, unsigned from_channel,
                            std::size_t to_core, unsigned to_channel) {
  if (from_core >= nodes_.size() || to_core >= nodes_.size()) {
    return Status::failure("ManyCoreEngine::link: core index out of range");
  }
  if (from_channel >= fsl::FslHub::kChannels ||
      to_channel >= fsl::FslHub::kChannels) {
    return Status::failure("ManyCoreEngine::link: channel id out of range");
  }
  CrossLink link;
  link.from_core = from_core;
  link.to_core = to_core;
  link.source = &nodes_[from_core].hub->to_hw(from_channel);
  link.sink = &nodes_[to_core].hub->from_hw(to_channel);
  links_.push_back(link);
  return {};
}

u64 ManyCoreEngine::transfer_links() {
  u64 moved = 0;
  for (const CrossLink& link : links_) {
    while (link.source->exists() && !link.sink->full()) {
      const std::optional<fsl::FslEntry> entry = link.source->try_read();
      if (!entry) break;
      link.sink->try_write(entry->data, entry->control);
      ++moved;
    }
  }
  link_words_ += moved;
  return moved;
}

void ManyCoreEngine::advance(std::size_t index, Cycle target) {
  // Only this core's node and components: its processor, hardware
  // model, FIFOs and trace bus are private until the round barrier.
  Node& node = nodes_[index];
  if (node.finished) return;
  node.last = node.engine->run(target);
  if (node.last == StopReason::kHalted) node.finished = true;
}

void ManyCoreEngine::note_halt(std::size_t index) {
  const Cycle cycle = nodes_[index].cpu->cycle();
  // Ties break on the index, not on call order: a debugger step notes
  // its core's halt before the round it ends in notes the others'.
  if (last_halted_core_ == MachineStop::kNoCore ||
      cycle > last_halt_cycle_ ||
      (cycle == last_halt_cycle_ && index > last_halted_core_)) {
    last_halted_core_ = index;
    last_halt_cycle_ = cycle;
  }
}

MachineStop ManyCoreEngine::run(Cycle max_cycles) {
  if (nodes_.empty()) return {StopReason::kHalted, MachineStop::kNoCore};

  std::size_t live = 0;
  for (const Node& node : nodes_) {
    if (!node.finished) ++live;
  }
  if (live == 0) return {StopReason::kHalted, last_halted_core_};

  // Lane count never affects results (see the file comment), only host
  // wall-clock; more lanes than host threads would only take turns.
  const unsigned host = host_threads();
  const unsigned wanted = workers_ == 0 ? host : workers_;
  Lanes lanes(*this, static_cast<unsigned>(std::min<std::size_t>(
                         {wanted, live, host})));
  return run_rounds(max_cycles, lanes);
}

MachineStop ManyCoreEngine::run_rounds(Cycle max_cycles, Lanes& lanes) {
  // Halt attribution: rounds flip finished flags on helper lanes, so
  // which cores halted this round is recovered here by diffing the
  // flags across the barrier — note_halt runs orchestrator-side only.
  std::vector<char> was_finished(nodes_.size(), 0);
  while (round_end_ < max_cycles) {
    // Rounds end on the absolute quantum grid whatever cycle this call
    // started from: a run cut at the budget resumes the same round.
    const Cycle target =
        std::min((round_end_ / quantum_ + 1) * quantum_, max_cycles);
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
      was_finished[i] = nodes_[i].finished ? 1 : 0;
    }

    lanes.run_round(target);
    round_end_ = target;
    std::size_t live = 0;
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
      if (was_finished[i] == 0 && nodes_[i].finished) note_halt(i);
      if (!nodes_[i].finished) ++live;
    }
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
      if (!nodes_[i].finished && nodes_[i].last == StopReason::kIllegal) {
        return {StopReason::kIllegal, i};
      }
    }

    const bool barrier = target % quantum_ == 0;
    if (barrier) transfer_links();
    if (live == 0) return {StopReason::kHalted, last_halted_core_};
    if (barrier && stalled_at_barrier()) {
      return {StopReason::kDeadlock, deadlock_core_};
    }
  }
  return {StopReason::kCycleLimit, MachineStop::kNoCore};
}

bool ManyCoreEngine::stalled_at_barrier() {
  u64 progress = link_words_;
  for (const Node& node : nodes_) {
    progress += node.cpu->stats().instructions;
  }
  if (progress != progress_mark_) {
    progress_mark_ = progress;
    stalled_ = 0;
    return false;
  }
  stalled_ += quantum_;
  if (stalled_ < deadlock_threshold_) return false;
  // Blame the first core parked on a decodable FSL access; fall back to
  // the first live core when none decodes (e.g. a custom busy-wait) so
  // the diagnosis always names a core.
  std::size_t fallback = nodes_.size();
  deadlock_core_ = nodes_.size();
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].finished) continue;
    if (fallback == nodes_.size()) fallback = i;
    DeadlockDiagnosis diagnosis =
        diagnose_deadlock(*nodes_[i].cpu, *nodes_[i].hub, stalled_);
    if (!diagnosis.channel.empty()) {
      deadlock_core_ = i;
      last_deadlock_ = std::move(diagnosis);
      return true;
    }
  }
  deadlock_core_ = fallback;
  last_deadlock_ = diagnose_deadlock(*nodes_[fallback].cpu,
                                     *nodes_[fallback].hub, stalled_);
  return true;
}

DebugStep ManyCoreEngine::debug_step(std::size_t index) {
  Node& node = nodes_[index];
  // A halted core is terminal: stepping it again must not re-execute
  // the halt instruction (which would skew its cycle/instruction
  // counters and could drag other cores forward). Report the halt.
  if (node.finished) return {{iss::Event::kHalted, 0}};
  // Rounds a free run would finish before this core's next instruction
  // (it may be ahead of the last round: a cut mid-instruction, or steps
  // of another core), then the step, then the rounds up to its new
  // clock — a run() that stopped here would have done the same. One
  // lane: the rounds run on the calling thread, with no helpers.
  Lanes lanes(*this, 1);
  const auto rounds_to_clock = [this, &node, &lanes](DebugStep& step) {
    const MachineStop stop = run_rounds(node.cpu->cycle(), lanes);
    if (stop.reason == StopReason::kDeadlock) step.deadlock = true;
    if (stop.reason == StopReason::kIllegal) step.event = iss::Event::kIllegal;
    return step.deadlock || step.event == iss::Event::kIllegal;
  };
  DebugStep step{{iss::Event::kFslStall, 0}};
  if (rounds_to_clock(step)) return step;
  step = node.engine->debug_step();
  if (step.event == iss::Event::kHalted) {
    node.finished = true;
    note_halt(index);
  }
  rounds_to_clock(step);
  return step;
}

void ManyCoreEngine::save_state(ckpt::Writer& writer) const {
  writer.write_u64(nodes_.size());
  for (const Node& node : nodes_) {
    writer.write_bool(node.finished);
    writer.write_u8(static_cast<u8>(node.last));
  }
  writer.write_u64(round_end_);
  writer.write_u64(stalled_);
  writer.write_u64(progress_mark_);
  writer.write_u64(link_words_);
  writer.write_u64(static_cast<u64>(last_halted_core_));
  writer.write_u64(last_halt_cycle_);
}

bool ManyCoreEngine::load_state(ckpt::Reader& reader) {
  if (reader.read_u64() != nodes_.size()) return false;
  for (Node& node : nodes_) {
    node.finished = reader.read_bool();
    const u8 last = reader.read_u8();
    if (last > static_cast<u8>(StopReason::kDeadlock)) return false;
    node.last = static_cast<StopReason>(last);
  }
  round_end_ = reader.read_u64();
  stalled_ = reader.read_u64();
  progress_mark_ = reader.read_u64();
  link_words_ = reader.read_u64();
  last_halted_core_ = static_cast<std::size_t>(reader.read_u64());
  last_halt_cycle_ = reader.read_u64();
  last_deadlock_.reset();
  deadlock_core_ = 0;
  return reader.ok();
}

CoSimStats ManyCoreEngine::aggregate_stats() const {
  CoSimStats total;
  for (const Node& node : nodes_) {
    const CoSimStats stats = node.engine->stats();
    total.cycles = std::max(total.cycles, stats.cycles);
    total.instructions += stats.instructions;
    total.fsl_stall_cycles += stats.fsl_stall_cycles;
    total.hw_cycles_stepped += stats.hw_cycles_stepped;
    total.hw_cycles_skipped += stats.hw_cycles_skipped;
    total.bridge.words_to_hw += stats.bridge.words_to_hw;
    total.bridge.words_from_hw += stats.bridge.words_from_hw;
    total.bridge.refused_writes += stats.bridge.refused_writes;
  }
  return total;
}

}  // namespace mbcosim::core
