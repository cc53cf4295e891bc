// Differential test of the compiled block schedule. Random block graphs
// built from every library block, plus two user-defined blocks that run
// as opaque ops, are simulated side by side with a reference evaluator
// that computes with Fix operations: the per-block compute()/latch()
// bodies of the interpreter the schedule replaced. Every signal is
// compared on every cycle, across reset() and across a save_state /
// load_state round trip taken at a random cycle.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "ckpt/ckpt.hpp"
#include "common/rng.hpp"
#include "sysgen/blocks_basic.hpp"
#include "sysgen/blocks_memory.hpp"

namespace mbcosim::sysgen {
namespace {

const FixFormat kBool = FixFormat::unsigned_fix(1, 0);

// ----- User-defined blocks (not in the library: lowered to opaque ops) ----

/// Sequential: adds its input to a wrapping sum while enabled.
class UserAccumulator : public Block {
 public:
  UserAccumulator(Model& model, std::string name, Signal& input,
                  Signal& enable, FixFormat format)
      : Block(model, std::move(name)),
        sum_(Fix::from_raw(format, 0)),
        out_(make_output("sum", format)) {
    connect_input(input);
    connect_input(enable);
  }

  [[nodiscard]] bool is_sequential() const override { return true; }
  void output_state() override { out_.drive(sum_); }
  void latch() override {
    if (in(1).as_bool()) sum_ = next(sum_, in(0).value());
  }
  void reset() override { sum_ = Fix::from_raw(sum_.format(), 0); }
  void save_state(ckpt::Writer& writer) const override {
    writer.write_i64(sum_.raw());
  }
  [[nodiscard]] bool load_state(ckpt::Reader& reader) override {
    sum_ = Fix::from_raw(sum_.format(), reader.read_i64());
    return reader.ok();
  }

  static Fix next(const Fix& sum, const Fix& input) {
    const u64 addend = static_cast<u64>(input.cast(sum.format()).raw());
    return Fix::from_raw(sum.format(),
                         static_cast<i64>(static_cast<u64>(sum.raw()) + addend));
  }

 private:
  Fix sum_;
  Signal& out_;
};

/// Combinational: mixes the raw codes of two inputs.
class UserMix : public Block {
 public:
  UserMix(Model& model, std::string name, Signal& a, Signal& b)
      : Block(model, std::move(name)), out_(make_output("out", a.format())) {
    connect_input(a);
    connect_input(b);
  }

  void propagate() override { out_.drive(mix(in(0).value(), in(1).value())); }

  static Fix mix(const Fix& a, const Fix& b) {
    return Fix::from_raw(a.format(), a.raw() ^ (b.raw() >> 1));
  }

 private:
  Signal& out_;
};

// ----- Reference evaluator ---------------------------------------------------

enum class Kind {
  kGatewayIn, kConstant, kAddSub, kMult, kNegate, kConvert, kShiftConst,
  kVarShift, kMux, kRelational, kLogical, kSlice, kRegister, kDelay,
  kCounter, kRom, kRam, kFifo, kUserAccumulator, kUserMix,
};

/// One block of the reference: its parameters (as passed to the library
/// constructor) and its state, kept as Fix values.
struct RefBlock {
  Kind kind = Kind::kConstant;
  std::vector<u32> in;   ///< input signal indices, in block input order
  std::vector<u32> out;  ///< output signal indices
  FixFormat format;      ///< output / word / initial-value format
  unsigned latency = 0;
  int op = 0;  ///< AddSub mode, ShiftConst direction, Relational/Logical op
  Quantization quantization = Quantization::kTruncate;
  Overflow overflow = Overflow::kWrap;
  unsigned amount = 0;  ///< shift amount, max shift, slice low, delay cycles
  i64 limit = 0;
  int d = -1, enable = -1, sync_reset = -1;  ///< positions in `in`
  Fix init;
  std::vector<Fix> words;
  std::size_t depth = 0;

  std::deque<Fix> line;  ///< pipeline stages or delay line, oldest first
  Fix state;             ///< register, read port, pending gateway value, sum
  i64 count = 0;
  std::vector<Fix> cells;
  std::deque<Fix> fifo;

  [[nodiscard]] bool pipelined() const {
    switch (kind) {
      case Kind::kAddSub: case Kind::kMult: case Kind::kNegate:
      case Kind::kConvert: case Kind::kShiftConst: case Kind::kVarShift:
      case Kind::kMux: case Kind::kRelational: case Kind::kLogical:
      case Kind::kSlice:
        return true;
      default:
        return false;
    }
  }
  [[nodiscard]] bool sequential() const {
    if (pipelined()) return latency > 0;
    return kind == Kind::kRegister || kind == Kind::kDelay ||
           kind == Kind::kCounter || kind == Kind::kRom ||
           kind == Kind::kRam || kind == Kind::kFifo ||
           kind == Kind::kUserAccumulator;
  }
};

class Reference {
 public:
  std::vector<RefBlock> blocks;
  std::vector<Fix> signals;  ///< by Signal::index()

  /// Phases 0/1/2. Creation order is a topological order of the
  /// combinational blocks: every input is chosen among earlier signals.
  void step() {
    for (RefBlock& b : blocks) {
      if (b.sequential()) output(b);
    }
    for (RefBlock& b : blocks) {
      if (!b.sequential()) propagate(b);
    }
    for (RefBlock& b : blocks) {
      if (b.sequential()) latch(b);
    }
  }

  void reset() {
    for (Fix& value : signals) value = Fix::from_raw(value.format(), 0);
    for (RefBlock& b : blocks) {
      const Fix zero = Fix::from_raw(b.format, 0);
      for (Fix& stage : b.line) stage = zero;
      b.state = b.kind == Kind::kRegister ? b.init : zero;
      b.count = 0;
      for (Fix& cell : b.cells) cell = zero;
      b.fifo.clear();
    }
  }

 private:
  const Fix& in(const RefBlock& b, std::size_t i) const {
    return signals[b.in[i]];
  }
  void drive(const RefBlock& b, std::size_t i, const Fix& value) {
    signals[b.out[i]] = value;
  }

  Fix compute(const RefBlock& b) const {
    switch (b.kind) {
      case Kind::kAddSub: {
        const Fix full = b.op == 0 ? in(b, 0).add_full(in(b, 1))
                                   : in(b, 0).sub_full(in(b, 1));
        return full.cast(b.format, b.quantization, b.overflow);
      }
      case Kind::kMult:
        return in(b, 0).mul_full(in(b, 1)).cast(b.format, b.quantization,
                                                b.overflow);
      case Kind::kNegate:
        return in(b, 0).negate_full().cast(b.format);
      case Kind::kConvert:
        return in(b, 0).cast(b.format, b.quantization, b.overflow);
      case Kind::kShiftConst: {
        const Fix& a = in(b, 0);
        if (b.op == 1) return a.shift_right_keep_format(b.amount);
        // Bits shifted past bit 63 are gone, as on the hardware.
        const u64 shifted =
            b.amount >= 64 ? 0 : static_cast<u64>(a.raw()) << b.amount;
        return Fix::from_raw(a.format(), static_cast<i64>(shifted));
      }
      case Kind::kVarShift: {
        const auto amount = static_cast<u64>(in(b, 1).raw());
        const auto clamped =
            static_cast<unsigned>(std::min<u64>(amount, b.amount));
        return in(b, 0).shift_right_keep_format(clamped);
      }
      case Kind::kMux: {
        const std::size_t fan_in = b.in.size() - 1;
        auto index = static_cast<u64>(in(b, 0).raw());
        if (index >= fan_in) index = fan_in - 1;
        return in(b, 1 + static_cast<std::size_t>(index));
      }
      case Kind::kRelational: {
        const auto ordering = in(b, 0).compare(in(b, 1));
        bool result = false;
        switch (static_cast<Relational::Op>(b.op)) {
          case Relational::Op::kEq: result = ordering == 0; break;
          case Relational::Op::kNe: result = ordering != 0; break;
          case Relational::Op::kLt: result = ordering < 0; break;
          case Relational::Op::kLe: result = ordering <= 0; break;
          case Relational::Op::kGt: result = ordering > 0; break;
          case Relational::Op::kGe: result = ordering >= 0; break;
        }
        return Fix::from_raw(kBool, result ? 1 : 0);
      }
      case Kind::kLogical: {
        const u64 mask = low_mask64(b.format.word_bits);
        u64 acc = static_cast<u64>(in(b, 0).raw()) & mask;
        const auto op = static_cast<Logical::Op>(b.op);
        if (op == Logical::Op::kNot) {
          return Fix::from_raw(b.format, static_cast<i64>(~acc & mask));
        }
        for (std::size_t i = 1; i < b.in.size(); ++i) {
          const u64 operand = static_cast<u64>(in(b, i).raw()) & mask;
          if (op == Logical::Op::kAnd) acc &= operand;
          if (op == Logical::Op::kOr) acc |= operand;
          if (op == Logical::Op::kXor) acc ^= operand;
        }
        return Fix::from_raw(b.format, static_cast<i64>(acc));
      }
      case Kind::kSlice:
        return Fix::from_raw(
            b.format,
            static_cast<i64>(static_cast<u64>(in(b, 0).raw()) >> b.amount));
      default:
        ADD_FAILURE() << "not a pipelined function";
        return Fix();
    }
  }

  void output(RefBlock& b) {
    switch (b.kind) {
      case Kind::kRegister:
      case Kind::kRom:
      case Kind::kRam:
      case Kind::kUserAccumulator:
        drive(b, 0, b.state);
        break;
      case Kind::kCounter:
        drive(b, 0, Fix::from_raw(b.format, b.count));
        break;
      case Kind::kFifo:
        drive(b, 0, b.fifo.empty() ? Fix::from_raw(b.format, 0)
                                   : b.fifo.front());
        drive(b, 1, Fix::from_raw(kBool, b.fifo.empty() ? 1 : 0));
        drive(b, 2, Fix::from_raw(kBool, b.fifo.size() >= b.depth ? 1 : 0));
        break;
      default:  // Delay and latency >= 1 functions
        drive(b, 0, b.line.front());
        break;
    }
  }

  void propagate(RefBlock& b) {
    switch (b.kind) {
      case Kind::kGatewayIn: drive(b, 0, b.state); break;
      case Kind::kConstant: drive(b, 0, b.init); break;
      case Kind::kUserMix:
        drive(b, 0, UserMix::mix(in(b, 0), in(b, 1)));
        break;
      default: drive(b, 0, compute(b)); break;
    }
  }

  void latch(RefBlock& b) {
    auto set = [&](int position) {
      return position < 0 || in(b, static_cast<std::size_t>(position)).raw() != 0;
    };
    switch (b.kind) {
      case Kind::kRegister:
        if (set(b.enable)) {
          b.state = in(b, static_cast<std::size_t>(b.d)).cast(b.format);
        }
        break;
      case Kind::kDelay:
        b.line.push_back(in(b, 0));
        b.line.pop_front();
        break;
      case Kind::kCounter:
        if (b.sync_reset >= 0 && set(b.sync_reset)) {
          b.count = 0;
        } else if (set(b.enable)) {
          b.count = (b.count + 1) % b.limit;
        }
        break;
      case Kind::kRom: {
        auto index = static_cast<u64>(in(b, 0).raw());
        if (index >= b.words.size()) index = b.words.size() - 1;
        b.state = b.words[static_cast<std::size_t>(index)];
        break;
      }
      case Kind::kRam: {
        auto index = static_cast<u64>(in(b, 0).raw());
        if (index >= b.cells.size()) index = b.cells.size() - 1;
        const auto slot = static_cast<std::size_t>(index);
        b.state = b.cells[slot];
        if (in(b, 2).raw() != 0) b.cells[slot] = in(b, 1).cast(b.format);
        break;
      }
      case Kind::kFifo:
        if (in(b, 2).raw() != 0 && !b.fifo.empty()) b.fifo.pop_front();
        if (in(b, 1).raw() != 0 && b.fifo.size() < b.depth) {
          b.fifo.push_back(in(b, 0).cast(b.format));
        }
        break;
      case Kind::kUserAccumulator:
        if (in(b, 1).raw() != 0) b.state = UserAccumulator::next(b.state, in(b, 0));
        break;
      default:  // latency >= 1 functions
        b.line.push_back(compute(b));
        b.line.pop_front();
        break;
    }
  }
};

// ----- Random designs --------------------------------------------------------

struct Design {
  std::unique_ptr<Model> model;
  Reference ref;
  std::vector<Block*> blocks;  ///< parallel to ref.blocks
  std::vector<const Signal*> signals;  ///< by Signal::index()
};

FixFormat random_format(Rng& rng) {
  FixFormat format;
  format.sign = rng.next_below(2) != 0 ? Signedness::kSigned
                                       : Signedness::kUnsigned;
  switch (rng.next_below(6)) {
    case 0: format.word_bits = static_cast<u8>(rng.next_in(1, 4)); break;
    case 1: format.word_bits = static_cast<u8>(rng.next_in(56, 63)); break;
    default: format.word_bits = static_cast<u8>(rng.next_in(2, 40)); break;
  }
  format.frac_bits = static_cast<u8>(rng.next_in(0, format.word_bits));
  return format;
}

Fix random_fix(Rng& rng, FixFormat format) {
  return Fix::from_raw(format, rng.next_in(format.min_raw(), format.max_raw()));
}

class DesignBuilder {
 public:
  explicit DesignBuilder(u64 seed) : rng_(seed) {
    design_.model = std::make_unique<Model>("random" + std::to_string(seed));
  }

  Design build() {
    Model& m = *design_.model;
    const int gateways = static_cast<int>(rng_.next_in(3, 6));
    for (int i = 0; i < gateways; ++i) {
      const FixFormat format = i < 2 ? kBool : random_format(rng_);
      auto& gateway = m.add<GatewayIn>(name(), format);
      RefBlock b = base(Kind::kGatewayIn, format);
      b.state = Fix::from_raw(format, 0);
      record(gateway, std::move(b));
    }
    const int count = static_cast<int>(rng_.next_in(20, 60));
    for (int i = 0; i < count; ++i) add_random_block();
    // Close the feedback registers onto any signal, later ones included.
    for (const std::size_t index : feedback_) {
      auto& reg = static_cast<Register&>(*design_.blocks[index]);
      reg.connect_d(pick());
    }
    // Inputs are read back from the model, feedback inputs included.
    for (std::size_t i = 0; i < design_.blocks.size(); ++i) {
      design_.ref.blocks[i].in.clear();
      for (const Signal* input : design_.blocks[i]->inputs()) {
        design_.ref.blocks[i].in.push_back(input->index());
      }
    }
    return std::move(design_);
  }

 private:
  std::string name() { return "b" + std::to_string(next_name_++); }
  Signal& pick() {
    return *pool_[static_cast<std::size_t>(rng_.next_below(pool_.size()))];
  }
  unsigned random_latency() {
    return rng_.next_below(2) == 0 ? 0 : static_cast<unsigned>(rng_.next_in(1, 3));
  }
  Quantization random_quantization() {
    return rng_.next_below(2) == 0 ? Quantization::kTruncate
                                   : Quantization::kRoundHalfUp;
  }
  Overflow random_overflow() {
    return rng_.next_below(2) == 0 ? Overflow::kWrap : Overflow::kSaturate;
  }

  static RefBlock base(Kind kind, FixFormat format) {
    RefBlock b;
    b.kind = kind;
    b.format = format;
    return b;
  }

  /// Register a model block with its reference twin; outputs join the pool.
  void record(Block& block, RefBlock&& b) {
    for (Signal* output : block.outputs()) {
      // Signals are indexed in creation order: this one comes next.
      b.out.push_back(output->index());
      design_.signals.push_back(output);
      design_.ref.signals.push_back(Fix::from_raw(output->format(), 0));
      pool_.push_back(output);
    }
    if (b.pipelined()) {
      b.line.assign(b.latency, Fix::from_raw(b.format, 0));
    }
    design_.blocks.push_back(&block);
    design_.ref.blocks.push_back(std::move(b));
  }

  void add_random_block() {
    Model& m = *design_.model;
    const auto kind = static_cast<Kind>(
        rng_.next_in(static_cast<i64>(Kind::kConstant),
                     static_cast<i64>(Kind::kUserMix)));
    switch (kind) {
      case Kind::kConstant: {
        const Fix value = random_fix(rng_, random_format(rng_));
        RefBlock b = base(kind, value.format());
        b.init = value;
        record(m.add<Constant>(name(), value), std::move(b));
        break;
      }
      case Kind::kAddSub: {
        Signal& a = pick();
        Signal& c = pick();
        const int mode = static_cast<int>(rng_.next_below(2));
        try {
          (void)(mode == 0 ? Fix::add_format(a.format(), c.format())
                           : Fix::sub_format(a.format(), c.format()));
        } catch (const SimError&) {
          return;  // wider than 63 bits: elaboration would reject it
        }
        RefBlock b = base(kind, random_format(rng_));
        b.op = mode;
        b.latency = random_latency();
        b.quantization = random_quantization();
        b.overflow = random_overflow();
        record(m.add<AddSub>(name(),
                             mode == 0 ? AddSub::Mode::kAdd
                                       : AddSub::Mode::kSubtract,
                             a, c, b.format, b.latency, b.quantization,
                             b.overflow),
               std::move(b));
        break;
      }
      case Kind::kMult: {
        RefBlock b = base(kind, random_format(rng_));
        b.latency = random_latency();
        b.quantization = random_quantization();
        b.overflow = random_overflow();
        Signal& a = pick();
        Signal& c = pick();
        record(m.add<Mult>(name(), a, c, b.format, b.latency, b.quantization,
                           b.overflow),
               std::move(b));
        break;
      }
      case Kind::kNegate: {
        RefBlock b = base(kind, random_format(rng_));
        b.latency = random_latency();
        record(m.add<Negate>(name(), pick(), b.format, b.latency),
               std::move(b));
        break;
      }
      case Kind::kConvert: {
        RefBlock b = base(kind, random_format(rng_));
        b.latency = random_latency();
        b.quantization = random_quantization();
        b.overflow = random_overflow();
        record(m.add<Convert>(name(), pick(), b.format, b.quantization,
                              b.overflow, b.latency),
               std::move(b));
        break;
      }
      case Kind::kShiftConst: {
        Signal& a = pick();
        RefBlock b = base(kind, a.format());
        b.op = static_cast<int>(rng_.next_below(2));
        b.amount = static_cast<unsigned>(rng_.next_in(0, 70));
        b.latency = random_latency();
        record(m.add<ShiftConst>(
                   name(), a,
                   b.op == 1 ? ShiftConst::Direction::kRightArithmetic
                             : ShiftConst::Direction::kLeft,
                   b.amount, b.latency),
               std::move(b));
        break;
      }
      case Kind::kVarShift: {
        Signal& a = pick();
        Signal& amount = pick();
        RefBlock b = base(kind, a.format());
        b.amount = static_cast<unsigned>(rng_.next_in(0, 70));
        b.latency = random_latency();
        record(m.add<VariableShiftRight>(name(), a, amount, b.amount,
                                         b.latency),
               std::move(b));
        break;
      }
      case Kind::kMux: {
        Signal& select = pick();
        Signal& first = pick();
        std::vector<Signal*> same;
        for (Signal* signal : pool_) {
          if (signal->format() == first.format()) same.push_back(signal);
        }
        std::vector<Signal*> data{&first};
        const int extra = static_cast<int>(rng_.next_in(0, 3));
        for (int i = 0; i < extra; ++i) {
          data.push_back(same[static_cast<std::size_t>(rng_.next_below(same.size()))]);
        }
        RefBlock b = base(kind, first.format());
        b.latency = random_latency();
        record(m.add<Mux>(name(), select, data, b.latency), std::move(b));
        break;
      }
      case Kind::kRelational: {
        RefBlock b = base(kind, kBool);
        b.op = static_cast<int>(rng_.next_in(0, 5));
        b.latency = random_latency();
        Signal& a = pick();
        Signal& c = pick();
        record(m.add<Relational>(name(), static_cast<Relational::Op>(b.op), a,
                                 c, b.latency),
               std::move(b));
        break;
      }
      case Kind::kLogical: {
        const auto op = static_cast<Logical::Op>(rng_.next_in(0, 3));
        std::vector<Signal*> inputs{&pick()};
        if (op != Logical::Op::kNot) {
          const int extra = static_cast<int>(rng_.next_in(0, 2));
          for (int i = 0; i < extra; ++i) inputs.push_back(&pick());
        }
        RefBlock b = base(kind, inputs.front()->format());
        b.op = static_cast<int>(op);
        b.latency = random_latency();
        record(m.add<Logical>(name(), op, inputs, b.latency), std::move(b));
        break;
      }
      case Kind::kSlice: {
        Signal& a = pick();
        const unsigned word = a.format().word_bits;
        const auto width = static_cast<unsigned>(rng_.next_in(1, word));
        RefBlock b = base(kind, FixFormat::unsigned_fix(static_cast<u8>(width), 0));
        b.amount = static_cast<unsigned>(rng_.next_in(0, word - width));
        b.latency = random_latency();
        record(m.add<Slice>(name(), a, b.amount, width, b.latency),
               std::move(b));
        break;
      }
      case Kind::kRegister: {
        const Fix init = random_fix(rng_, random_format(rng_));
        Signal* enable = rng_.next_below(2) == 0 ? nullptr : &pick();
        RefBlock b = base(kind, init.format());
        b.init = init;
        b.state = init;
        b.enable = enable != nullptr ? 0 : -1;
        b.d = enable != nullptr ? 1 : 0;
        if (rng_.next_below(3) == 0) {
          feedback_.push_back(design_.blocks.size());
          record(m.add<Register>(name(), init, enable), std::move(b));
        } else {
          Signal& d = pick();
          record(m.add<Register>(name(), d, init, enable), std::move(b));
        }
        break;
      }
      case Kind::kDelay: {
        Signal& d = pick();
        RefBlock b = base(kind, d.format());
        b.amount = static_cast<unsigned>(rng_.next_in(1, 4));
        b.line.assign(b.amount, Fix::from_raw(d.format(), 0));
        record(m.add<Delay>(name(), d, b.amount), std::move(b));
        break;
      }
      case Kind::kCounter: {
        FixFormat format = random_format(rng_);
        format.word_bits = static_cast<u8>(rng_.next_in(1, 6));
        format.frac_bits = 0;
        RefBlock b = base(kind, format);
        b.limit = rng_.next_in(1, format.max_raw() + 1);
        Signal* enable = rng_.next_below(2) == 0 ? nullptr : &pick();
        Signal* sync_reset = rng_.next_below(2) == 0 ? nullptr : &pick();
        b.enable = enable != nullptr ? 0 : -1;
        b.sync_reset =
            sync_reset != nullptr ? (enable != nullptr ? 1 : 0) : -1;
        record(m.add<Counter>(name(), format, b.limit, enable, sync_reset),
               std::move(b));
        break;
      }
      case Kind::kRom: {
        const FixFormat format = random_format(rng_);
        RefBlock b = base(kind, format);
        const int words = static_cast<int>(rng_.next_in(1, 8));
        for (int i = 0; i < words; ++i) b.words.push_back(random_fix(rng_, format));
        b.state = Fix::from_raw(format, 0);
        Signal& address = pick();
        record(m.add<Rom>(name(), address, b.words), std::move(b));
        break;
      }
      case Kind::kRam: {
        const FixFormat format = random_format(rng_);
        RefBlock b = base(kind, format);
        b.cells.assign(static_cast<std::size_t>(rng_.next_in(1, 8)),
                       Fix::from_raw(format, 0));
        b.state = Fix::from_raw(format, 0);
        Signal& address = pick();
        Signal& data = pick();
        Signal& write = pick();
        record(m.add<SinglePortRam>(name(), b.cells.size(), format, address,
                                    data, write),
               std::move(b));
        break;
      }
      case Kind::kFifo: {
        const FixFormat format = random_format(rng_);
        RefBlock b = base(kind, format);
        b.depth = static_cast<std::size_t>(rng_.next_in(1, 4));
        Signal& data = pick();
        Signal& write = pick();
        Signal& read = pick();
        record(m.add<FifoBlock>(name(), b.depth, format, data, write, read),
               std::move(b));
        break;
      }
      case Kind::kUserAccumulator: {
        const FixFormat format = random_format(rng_);
        RefBlock b = base(kind, format);
        b.state = Fix::from_raw(format, 0);
        Signal& input = pick();
        Signal& enable = pick();
        record(m.add<UserAccumulator>(name(), input, enable, format),
               std::move(b));
        break;
      }
      case Kind::kUserMix: {
        Signal& a = pick();
        Signal& c = pick();
        record(m.add<UserMix>(name(), a, c), base(kind, a.format()));
        break;
      }
      case Kind::kGatewayIn:
        break;
    }
  }

  Rng rng_;
  Design design_;
  std::vector<Signal*> pool_;
  std::vector<std::size_t> feedback_;
  int next_name_ = 0;
};

/// Present cycle `cycle`'s stimulus on every gateway of both sides,
/// through each of the GatewayIn setters.
void drive(Design& design, u64 seed, Cycle cycle) {
  Rng rng(seed * 1000003u + cycle);
  for (std::size_t i = 0; i < design.blocks.size(); ++i) {
    RefBlock& b = design.ref.blocks[i];
    if (b.kind != Kind::kGatewayIn) continue;
    auto& gateway = static_cast<GatewayIn&>(*design.blocks[i]);
    switch (rng.next_below(8)) {
      case 0: {
        const double value = (rng.next_double() - 0.5) *
                             std::ldexp(1.0, static_cast<int>(rng.next_in(-4, 70)));
        gateway.set(value);
        b.state = Fix::from_double(b.format, value);
        break;
      }
      case 1: {
        const Fix value = random_fix(rng, random_format(rng));
        gateway.set_fix(value);
        b.state = value.cast(b.format, Quantization::kRoundHalfUp,
                             Overflow::kSaturate);
        break;
      }
      case 2: {
        const bool value = rng.next_below(2) != 0;
        gateway.set_bool(value);
        b.state = Fix::from_raw(b.format, value ? 1 : 0);
        break;
      }
      default: {
        // Mostly small codes, so enables, selects and addresses vary.
        const auto raw = static_cast<i64>(
            rng.next_below(2) == 0 ? rng.next_u64() : rng.next_below(9));
        gateway.set_raw(raw);
        b.state = Fix::from_raw(b.format, raw);
        break;
      }
    }
  }
}

/// Every signal of the model equals the reference's, format included.
::testing::AssertionResult same_signals(const Design& design,
                                        const Reference& ref) {
  for (std::size_t i = 0; i < design.signals.size(); ++i) {
    const Signal& signal = *design.signals[i];
    const Fix& expected = ref.signals[i];
    if (signal.format() != expected.format() ||
        signal.raw() != expected.raw()) {
      auto failure = ::testing::AssertionFailure()
                     << signal.name() << ": schedule " << signal.value()
                     << ", reference " << expected << "; driver kind ";
      for (const RefBlock& b : ref.blocks) {
        if (std::find(b.out.begin(), b.out.end(), i) != b.out.end()) {
          failure << static_cast<int>(b.kind) << " latency " << b.latency
                  << " inputs";
          for (const u32 input : b.in) failure << " " << ref.signals[input];
        }
      }
      return failure;
    }
  }
  return ::testing::AssertionSuccess();
}

TEST(ScheduleDifferential, RandomGraphsMatchFixReference) {
  constexpr Cycle kCycles = 200;
  for (u64 seed = 1; seed <= 80; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Design design = DesignBuilder(seed).build();
    Rng plan(seed ^ 0x5eedu);
    const auto reset_at = static_cast<Cycle>(plan.next_in(20, 80));
    const auto save_at = static_cast<Cycle>(plan.next_in(100, 160));
    std::vector<unsigned char> image;
    Reference saved;

    for (Cycle cycle = 0; cycle < kCycles; ++cycle) {
      if (cycle == reset_at) {
        design.model->reset();
        design.ref.reset();
        ASSERT_TRUE(same_signals(design, design.ref)) << "after reset";
      }
      if (cycle == save_at) {
        ckpt::Writer writer;
        design.model->save_state(writer);
        image = writer.take();
        saved = design.ref;
      }
      drive(design, seed, cycle);
      design.model->step();
      design.ref.step();
      ASSERT_TRUE(same_signals(design, design.ref)) << "cycle " << cycle;
    }

    // Restore the image into a fresh build of the same design (elaborated
    // first on odd seeds) and replay the cycles after the snapshot.
    Design restored = DesignBuilder(seed).build();
    if (seed % 2 == 1) restored.model->elaborate();
    ckpt::Reader reader(image);
    ASSERT_TRUE(restored.model->load_state(reader));
    EXPECT_EQ(restored.model->cycle(), save_at - reset_at);
    restored.ref = saved;
    ASSERT_TRUE(same_signals(restored, restored.ref)) << "after load";
    for (Cycle cycle = save_at; cycle < kCycles; ++cycle) {
      drive(restored, seed, cycle);
      restored.model->step();
      restored.ref.step();
      ASSERT_TRUE(same_signals(restored, restored.ref))
          << "restored, cycle " << cycle;
    }
    ASSERT_TRUE(same_signals(restored, design.ref)) << "end state";
  }
}

}  // namespace
}  // namespace mbcosim::sysgen
