#include "sysgen/model.hpp"

#include <unordered_map>

#include "ckpt/ckpt.hpp"

namespace mbcosim::sysgen {

// ----- Block base ----------------------------------------------------------

Block::Block(Model& model, std::string name)
    : model_(model), name_(std::move(name)) {}

Signal& Block::make_output(const std::string& suffix, FixFormat format) {
  Signal& signal = model_.make_signal(name_ + "." + suffix, format);
  signal.set_driver(this);
  outputs_.push_back(&signal);
  return signal;
}

void Block::lower(Lowering& lowering) {
  if (is_sequential()) {
    lowering.output(Op(OpCode::kOpaqueOutput, this));
    lowering.latch(Op(OpCode::kOpaqueLatch, this));
  } else {
    lowering.combinational(Op(OpCode::kOpaquePropagate, this));
  }
}

const Signal& Block::in(std::size_t index) const {
  if (index >= inputs_.size()) {
    throw SimError("Block '" + name_ + "': input index " +
                   std::to_string(index) + " out of range (" +
                   std::to_string(inputs_.size()) + " inputs)");
  }
  return *inputs_[index];
}

// ----- Model ----------------------------------------------------------------

Signal& Model::make_signal(std::string signal_name, FixFormat format) {
  if (elaborated_) {
    throw SimError("Model '" + name_ + "': cannot add signal '" +
                   signal_name + "' after elaboration");
  }
  if (signal_names_.contains(signal_name)) {
    throw SimError("Model '" + name_ + "': duplicate signal '" + signal_name +
                   "'");
  }
  Signal& signal = signals_.emplace_back(std::move(signal_name), format);
  signal.index_ = static_cast<u32>(signals_.size() - 1);
  signal_names_.emplace(signal.name(), &signal);
  return signal;
}

void Model::elaborate() {
  if (elaborated_) return;
  for (const auto& block : blocks_) block->check();

  // Reserve the schedule at its upper bounds before any scratch work: a
  // library block emits at most three ops and one scratch slot, and the
  // operand lists hold block inputs. The compile's scratch then sits
  // above the schedule on the heap and is released as one piece.
  std::size_t input_count = 0;
  for (const auto& block : blocks_) input_count += block->inputs().size();
  ops_.reserve(3 * blocks_.size());
  operands_.reserve(input_count);
  slots_.reserve(signals_.size() + blocks_.size());

  std::vector<Block*> sequential;
  std::vector<Block*> combinational;
  for (const auto& block : blocks_) {
    if (block->is_sequential()) {
      sequential.push_back(block.get());
    } else {
      combinational.push_back(block.get());
    }
  }

  // Kahn's algorithm over the combinational dependency graph: an edge
  // A -> B exists when combinational block B reads a signal driven by
  // combinational block A. Sequential drivers impose no ordering (their
  // outputs are valid from phase 0). Blocks are numbered by position in
  // `combinational`.
  const auto count = static_cast<u32>(combinational.size());
  std::unordered_map<const Block*, u32> position;
  for (u32 i = 0; i < count; ++i) position.emplace(combinational[i], i);
  std::vector<std::vector<u32>> consumers(count);
  std::vector<u32> pending(count, 0);
  for (u32 i = 0; i < count; ++i) {
    for (const Signal* input : combinational[i]->inputs()) {
      const auto driver = position.find(input->driver());
      if (driver != position.end()) {
        consumers[driver->second].push_back(i);
        pending[i] += 1;
      }
    }
  }
  std::vector<u32> ready;
  for (u32 i = 0; i < count; ++i) {
    if (pending[i] == 0) ready.push_back(i);
  }
  std::vector<Block*> combinational_order;
  while (!ready.empty()) {
    const u32 i = ready.back();
    ready.pop_back();
    combinational_order.push_back(combinational[i]);
    for (const u32 next : consumers[i]) {
      if (--pending[next] == 0) ready.push_back(next);
    }
  }
  if (combinational_order.size() != count) {
    std::string cycle_members;
    for (u32 i = 0; i < count; ++i) {
      if (pending[i] != 0) {
        if (!cycle_members.empty()) cycle_members += ", ";
        cycle_members += combinational[i]->name();
      }
    }
    throw SimError("Model '" + name_ +
                   "': algebraic loop through combinational blocks: " +
                   cycle_members + " (insert a Delay or Register)");
  }

  // Compile: sequential blocks in creation order contribute the output
  // and latch phases, combinational blocks the middle phase in
  // topological order. Any SimError leaves the model unelaborated.
  operands_.clear();
  Lowering lowering(*this, static_cast<u32>(signals_.size()), operands_);
  for (Block* block : sequential) block->lower(lowering);
  for (Block* block : combinational_order) block->lower(lowering);
  ops_.insert(ops_.end(), lowering.output_.begin(), lowering.output_.end());
  ops_.insert(ops_.end(), lowering.combinational_.begin(),
              lowering.combinational_.end());
  ops_.insert(ops_.end(), lowering.latch_.begin(), lowering.latch_.end());

  // Move every signal's value into the slot file and point it there.
  slots_.assign(lowering.next_scratch_, 0);
  for (Signal& signal : signals_) {
    slots_[signal.index_] = *signal.slot_;
    signal.slot_ = &slots_[signal.index_];
  }
  elaborated_ = true;
}

void Model::reset() {
  for (auto& signal : signals_) signal.reset();
  for (const auto& block : blocks_) block->reset();
  cycle_ = 0;
}

void Model::run(Cycle cycles) {
  for (Cycle i = 0; i < cycles; ++i) step();
}

ResourceVec Model::resources() const {
  ResourceVec total;
  for (const auto& block : blocks_) total += block->resources();
  return total;
}

Block* Model::find_block(const std::string& block_name) const {
  const auto it = block_names_.find(block_name);
  return it == block_names_.end() ? nullptr : it->second;
}

void Model::save_state(ckpt::Writer& writer) const {
  writer.write_u64(cycle_);
  writer.write_u64(signals_.size());
  for (const Signal& signal : signals_) writer.write_i64(signal.raw());
  writer.write_u64(blocks_.size());
  for (const auto& block : blocks_) block->save_state(writer);
}

bool Model::load_state(ckpt::Reader& reader) {
  cycle_ = reader.read_u64();
  if (reader.read_u64() != signals_.size()) return false;
  for (Signal& signal : signals_) signal.drive_raw(reader.read_i64());
  if (reader.read_u64() != blocks_.size()) return false;
  for (const auto& block : blocks_) {
    if (!block->load_state(reader)) return false;
  }
  return reader.ok();
}

Signal* Model::find_signal(const std::string& signal_name) const {
  const auto it = signal_names_.find(signal_name);
  return it == signal_names_.end() ? nullptr : it->second;
}

}  // namespace mbcosim::sysgen
