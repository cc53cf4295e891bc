// Model: a complete hardware design (the contents of one System Generator
// sheet) plus its cycle-based scheduler. The co-simulation engine drives
// the customized hardware peripherals by calling step() once per simulated
// clock cycle (paper Section III-A: "whenever there is data coming from
// the processor, simulation of these hardware designs is carried out
// within the Simulink modeling environment"). Elaboration compiles the
// block graph into a flat op schedule over one slot file (schedule.hpp).
#pragma once

#include <deque>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/resources.hpp"
#include "common/types.hpp"
#include "sysgen/block.hpp"
#include "sysgen/schedule.hpp"
#include "sysgen/signal.hpp"

namespace mbcosim::sysgen {

class Model {
 public:
  explicit Model(std::string name) : name_(std::move(name)) {}
  Model(const Model&) = delete;
  Model& operator=(const Model&) = delete;

  [[nodiscard]] const std::string& name() const noexcept { return name_; }

  /// Construct a block in place; the model owns it.
  template <typename BlockType, typename... Args>
  BlockType& add(Args&&... args) {
    if (elaborated_) {
      throw SimError("Model '" + name_ + "': cannot add blocks after "
                     "elaboration");
    }
    auto block = std::make_unique<BlockType>(*this, std::forward<Args>(args)...);
    BlockType& ref = *block;
    block_names_.try_emplace(ref.name(), &ref);  // the first of a name wins
    blocks_.push_back(std::move(block));
    return ref;
  }

  /// Create a named signal owned by the model (blocks normally create
  /// their outputs through Block::make_output, which calls this).
  Signal& make_signal(std::string signal_name, FixFormat format);

  /// Freeze the graph: order combinational blocks topologically, reject
  /// algebraic loops, and compile every block into the op schedule (format
  /// checks included). Called automatically by the first step().
  void elaborate();
  [[nodiscard]] bool elaborated() const noexcept { return elaborated_; }

  /// Reset every block and signal; keeps the elaboration.
  void reset();

  /// Advance one clock cycle: one pass over the compiled schedule.
  void step() {
    if (!elaborated_) elaborate();
    run_schedule(ops_, slots_.data(), operands_.data());
    ++cycle_;
  }
  /// Advance n cycles.
  void run(Cycle cycles);

  [[nodiscard]] Cycle cycle() const noexcept { return cycle_; }

  [[nodiscard]] std::size_t block_count() const noexcept {
    return blocks_.size();
  }
  [[nodiscard]] std::size_t signal_count() const noexcept {
    return signals_.size();
  }

  /// Sum of the per-block resource estimates (the System Generator
  /// "resource estimator" analog, paper Section II).
  [[nodiscard]] ResourceVec resources() const;

  /// Look up a block / signal by full name; nullptr when absent.
  [[nodiscard]] Block* find_block(const std::string& block_name) const;
  [[nodiscard]] Signal* find_signal(const std::string& signal_name) const;
  /// True when `signal` was created by this model.
  [[nodiscard]] bool owns(const Signal& signal) const noexcept {
    return signal.index() < signals_.size() &&
           &signals_[signal.index()] == &signal;
  }

  [[nodiscard]] const std::vector<std::unique_ptr<Block>>& blocks()
      const noexcept {
    return blocks_;
  }

  /// Checkpoint the model: clock cycle, every signal's raw value and
  /// every block's internal state, in creation order (block and signal
  /// counts double as shape checks). load_state returns false when the
  /// snapshot was taken from a differently-shaped design.
  void save_state(ckpt::Writer& writer) const;
  [[nodiscard]] bool load_state(ckpt::Reader& reader);

 private:
  std::string name_;
  std::vector<std::unique_ptr<Block>> blocks_;
  std::deque<Signal> signals_;  // deque: stable addresses
  // Name indexes; the keys view the names the blocks and signals own.
  std::unordered_map<std::string_view, Block*> block_names_;
  std::unordered_map<std::string_view, Signal*> signal_names_;
  // The compiled schedule: ops in phase order, the operand lists of
  // variable-fan-in ops, and the slot file (signals, then scratch).
  std::vector<Op> ops_;
  std::vector<u32> operands_;
  std::vector<i64> slots_;
  bool elaborated_ = false;
  Cycle cycle_ = 0;
};

}  // namespace mbcosim::sysgen
