// Standard block set: the arithmetic, routing and state primitives our
// applications are assembled from — the analog of the System Generator
// block set (Constant, AddSub, Mult, Mux, Relational, Logical, Shift,
// Delay, Register, Counter, Convert, Slice, Gateway In/Out).
//
// Per-block resource figures approximate a Virtex-II Pro mapping (two
// 4-input LUTs per slice); they feed the rapid resource estimator.
#pragma once

#include <algorithm>
#include <vector>

#include "ckpt/ckpt.hpp"
#include "common/bits.hpp"
#include "sysgen/block.hpp"
#include "sysgen/model.hpp"
#include "sysgen/schedule.hpp"

namespace mbcosim::sysgen {

/// Slices for a W-bit ripple-carry add/sub/compare datapath.
constexpr u32 slices_for_adder(unsigned width) {
  return (width + 1) / 2;
}
/// Slices for W-bit registers (two flip-flops per slice).
constexpr u32 slices_for_register(unsigned width) {
  return (width + 1) / 2;
}

// ---------------------------------------------------------------------------
// Sources and sinks
// ---------------------------------------------------------------------------

/// Constant: drives a fixed value forever.
class Constant : public Block {
 public:
  Constant(Model& model, std::string name, Fix value)
      : Block(model, std::move(name)),
        value_(value),
        out_(make_output("out", value.format())) {}

  void lower(Lowering& lowering) override {
    Op op(OpCode::kConst);
    op.out = lowering.slot(out_);
    op.k = value_.raw();
    lowering.combinational(op);
  }
  [[nodiscard]] Signal& out() noexcept { return out_; }

 private:
  Fix value_;
  Signal& out_;
};

/// Gateway In: the boundary through which the surrounding environment
/// (testbench or co-simulation engine) injects values into the hardware
/// design — System Generator's "Gateway In" block (paper Section III-A).
class GatewayIn : public Block {
 public:
  GatewayIn(Model& model, std::string name, FixFormat format)
      : Block(model, std::move(name)),
        format_(format),
        out_(make_output("out", format)) {}

  /// Set the value presented during the next step(). Doubles are
  /// quantized like a hardware gateway (round, saturate).
  void set(double value) { pending_ = Fix::from_double(format_, value).raw(); }
  void set_raw(i64 raw_code) noexcept { pending_ = format_.wrap(raw_code); }
  void set_fix(const Fix& value) {
    pending_ = value.cast(format_, Quantization::kRoundHalfUp,
                          Overflow::kSaturate).raw();
  }
  void set_bool(bool value) noexcept { pending_ = format_.wrap(value ? 1 : 0); }

  void lower(Lowering& lowering) override {
    Op op(OpCode::kLoad, &pending_);
    op.out = lowering.slot(out_);
    lowering.combinational(op);
  }
  void reset() override { pending_ = 0; }

  void save_state(ckpt::Writer& writer) const override {
    writer.write_i64(pending_);
  }
  [[nodiscard]] bool load_state(ckpt::Reader& reader) override {
    pending_ = format_.wrap(reader.read_i64());
    return reader.ok();
  }

  [[nodiscard]] Signal& out() noexcept { return out_; }

 private:
  FixFormat format_;
  i64 pending_ = 0;
  Signal& out_;
};

/// Gateway Out: exposes an internal signal to the environment. It has no
/// op of its own: reads go straight to the source signal's slot.
class GatewayOut : public Block {
 public:
  GatewayOut(Model& model, std::string name, Signal& source)
      : Block(model, std::move(name)), source_(source) {
    connect_input(source);
  }

  void lower(Lowering&) override {}

  [[nodiscard]] Fix read() const { return source_.value(); }
  [[nodiscard]] i64 read_raw() const noexcept { return source_.raw(); }
  [[nodiscard]] bool read_bool() const noexcept { return source_.as_bool(); }

 private:
  const Signal& source_;
};

// ---------------------------------------------------------------------------
// Pipelined function base
// ---------------------------------------------------------------------------

/// Common machinery for arithmetic blocks with a configurable pipeline
/// latency: latency 0 is combinational; latency L >= 1 inserts L output
/// registers (like the "latency" parameter on System Generator blocks).
/// Subclasses describe their function as one op; lower() places it in the
/// combinational phase, or computes it at latch time into the pipeline.
class PipelinedFunction : public Block {
 public:
  [[nodiscard]] bool is_sequential() const override { return latency() > 0; }

  void lower(Lowering& lowering) final {
    Op op = function(lowering);
    const u32 out = lowering.slot(out_);
    if (latency() == 0) {
      op.out = out;
      lowering.combinational(op);
      return;
    }
    op.out = lowering.scratch();
    Op drive(OpCode::kLineOut, &pipe_);
    drive.out = out;
    Op push(OpCode::kLinePush, &pipe_);
    push.a = op.out;
    lowering.output(drive);
    lowering.latch(op);
    lowering.latch(push);
  }
  void reset() override { pipe_.reset(); }

  void save_state(ckpt::Writer& writer) const override { pipe_.save(writer); }
  [[nodiscard]] bool load_state(ckpt::Reader& reader) override {
    return pipe_.load(reader, out_.format());
  }

  [[nodiscard]] Signal& out() noexcept { return out_; }
  [[nodiscard]] unsigned latency() const noexcept {
    return static_cast<unsigned>(pipe_.stages.size());
  }

 protected:
  PipelinedFunction(Model& model, std::string name, FixFormat out_format,
                    unsigned latency)
      : Block(model, std::move(name)),
        out_(make_output("out", out_format)),
        pipe_{std::vector<i64>(latency, 0)} {}

  /// The combinational function as an op over the current inputs; lower()
  /// fills in the destination slot.
  [[nodiscard]] virtual Op function(Lowering& lowering) const = 0;

 private:
  Signal& out_;
  DelayLine pipe_;
};

// ---------------------------------------------------------------------------
// Arithmetic
// ---------------------------------------------------------------------------

/// AddSub: rd = a +/- b, cast into the configured output format.
class AddSub : public PipelinedFunction {
 public:
  enum class Mode { kAdd, kSubtract };

  AddSub(Model& model, std::string name, Mode mode, Signal& a, Signal& b,
         FixFormat out_format, unsigned latency = 0,
         Quantization quantization = Quantization::kTruncate,
         Overflow overflow = Overflow::kWrap)
      : PipelinedFunction(model, std::move(name), out_format, latency),
        mode_(mode),
        quantization_(quantization),
        overflow_(overflow) {
    connect_input(a);
    connect_input(b);
  }

  [[nodiscard]] ResourceVec resources() const override {
    const unsigned width = std::max(in(0).format().word_bits,
                                    in(1).format().word_bits);
    ResourceVec r{slices_for_adder(width), 0, 0};
    if (latency() > 0) {
      r.slices += slices_for_register(outputs()[0]->format().word_bits);
    }
    return r;
  }

 private:
  [[nodiscard]] Op function(Lowering& lowering) const override {
    const FixFormat& a = in(0).format();
    const FixFormat& b = in(1).format();
    FixFormat full;
    try {
      full = mode_ == Mode::kAdd ? Fix::add_format(a, b)
                                 : Fix::sub_format(a, b);
    } catch (const SimError& error) {
      throw SimError("AddSub '" + name() + "': " + error.what());
    }
    Op op(mode_ == Mode::kAdd ? OpCode::kAdd : OpCode::kSub);
    op.cast = Cast::make(full, outputs()[0]->format(), quantization_,
                         overflow_);
    op.sa = static_cast<u8>(full.frac_bits - a.frac_bits);
    op.sb = static_cast<u8>(full.frac_bits - b.frac_bits);
    op.a = lowering.slot(in(0));
    op.b = lowering.slot(in(1));
    return op;
  }

  Mode mode_;
  Quantization quantization_;
  Overflow overflow_;
};

/// Mult: full-precision multiply cast to the output format. Maps to
/// embedded MULT18x18 primitives when the operands fit, as on Virtex-II.
class Mult : public PipelinedFunction {
 public:
  Mult(Model& model, std::string name, Signal& a, Signal& b,
       FixFormat out_format, unsigned latency = 1,
       Quantization quantization = Quantization::kTruncate,
       Overflow overflow = Overflow::kWrap)
      : PipelinedFunction(model, std::move(name), out_format, latency),
        quantization_(quantization),
        overflow_(overflow) {
    connect_input(a);
    connect_input(b);
  }

  [[nodiscard]] ResourceVec resources() const override {
    const unsigned wa = in(0).format().word_bits;
    const unsigned wb = in(1).format().word_bits;
    ResourceVec r;
    r.mult18s = ceil_div(wa, 18u) * ceil_div(wb, 18u);
    r.slices = 2 + (latency() > 0
                        ? slices_for_register(outputs()[0]->format().word_bits)
                        : 0);
    return r;
  }

 private:
  [[nodiscard]] Op function(Lowering& lowering) const override {
    const FixFormat full = Fix::mul_format(in(0).format(), in(1).format());
    Op op(OpCode::kMul);
    op.cast = Cast::make(full, outputs()[0]->format(), quantization_,
                         overflow_);
    op.a = lowering.slot(in(0));
    op.b = lowering.slot(in(1));
    op.k = full.max_raw();
    op.k2 = full.min_raw();
    return op;
  }

  Quantization quantization_;
  Overflow overflow_;
};

/// Negate: two's-complement negation.
class Negate : public PipelinedFunction {
 public:
  Negate(Model& model, std::string name, Signal& a, FixFormat out_format,
         unsigned latency = 0)
      : PipelinedFunction(model, std::move(name), out_format, latency) {
    connect_input(a);
  }

  [[nodiscard]] ResourceVec resources() const override {
    return ResourceVec{slices_for_adder(in(0).format().word_bits), 0, 0};
  }

 private:
  [[nodiscard]] Op function(Lowering& lowering) const override {
    Op op(OpCode::kNegate);
    op.cast = Cast::make(Fix::negate_format(in(0).format()),
                         outputs()[0]->format());
    op.a = lowering.slot(in(0));
    return op;
  }
};

/// Convert: pure format conversion (System Generator "Convert" block).
class Convert : public PipelinedFunction {
 public:
  Convert(Model& model, std::string name, Signal& a, FixFormat out_format,
          Quantization quantization = Quantization::kTruncate,
          Overflow overflow = Overflow::kWrap, unsigned latency = 0)
      : PipelinedFunction(model, std::move(name), out_format, latency),
        quantization_(quantization),
        overflow_(overflow) {
    connect_input(a);
  }

  [[nodiscard]] ResourceVec resources() const override {
    // Rounding needs an adder stage; truncation is free wiring.
    ResourceVec r;
    if (quantization_ == Quantization::kRoundHalfUp) {
      r.slices += slices_for_adder(outputs()[0]->format().word_bits);
    }
    return r;
  }

 private:
  [[nodiscard]] Op function(Lowering& lowering) const override {
    Op op(OpCode::kConvert);
    op.cast = Cast::make(in(0).format(), outputs()[0]->format(),
                         quantization_, overflow_);
    op.a = lowering.slot(in(0));
    return op;
  }

  Quantization quantization_;
  Overflow overflow_;
};

/// Constant-amount shift, binary point fixed (hardware wiring shift).
class ShiftConst : public PipelinedFunction {
 public:
  enum class Direction { kLeft, kRightArithmetic };

  ShiftConst(Model& model, std::string name, Signal& a, Direction direction,
             unsigned amount, unsigned latency = 0)
      : PipelinedFunction(model, std::move(name), a.format(), latency),
        direction_(direction),
        amount_(amount) {
    connect_input(a);
  }

 private:
  [[nodiscard]] Op function(Lowering& lowering) const override {
    // Shifting by 63 or more leaves only sign (right) or zero (left) bits.
    Op op(direction_ == Direction::kRightArithmetic ? OpCode::kShiftRight
                                                    : OpCode::kShiftLeft);
    op.cast = Cast::wrap_to(in(0).format());
    op.a = lowering.slot(in(0));
    op.k = std::min(amount_, 63u);
    return op;
  }

  Direction direction_;
  unsigned amount_;
};

/// Variable arithmetic right shift: a >> amount, format preserved. Models
/// a slice-based barrel shifter — this is how the CORDIC PEs scale by the
/// variable power of two C_i without consuming embedded multipliers
/// (paper Section IV-A and Table I, which reports no extra multipliers
/// for the CORDIC peripheral).
class VariableShiftRight : public PipelinedFunction {
 public:
  VariableShiftRight(Model& model, std::string name, Signal& a,
                     Signal& amount, unsigned max_shift, unsigned latency = 0)
      : PipelinedFunction(model, std::move(name), a.format(), latency),
        max_shift_(max_shift) {
    connect_input(a);
    connect_input(amount);
  }

  [[nodiscard]] ResourceVec resources() const override {
    // One 2:1 mux level per shift-amount bit, one LUT per data bit per
    // level, two LUTs per slice.
    const unsigned width = in(0).format().word_bits;
    unsigned levels = 0;
    while ((1u << levels) <= max_shift_) ++levels;
    return ResourceVec{ceil_div(width * levels, 2u), 0, 0};
  }

 private:
  [[nodiscard]] Op function(Lowering& lowering) const override {
    Op op(OpCode::kVarShiftRight);
    op.a = lowering.slot(in(0));
    op.b = lowering.slot(in(1));
    op.k = std::min(max_shift_, 63u);
    return op;
  }

  unsigned max_shift_;
};

// ---------------------------------------------------------------------------
// Routing and comparison
// ---------------------------------------------------------------------------

/// Mux: data inputs selected by an unsigned select input.
class Mux : public PipelinedFunction {
 public:
  Mux(Model& model, std::string name, Signal& select,
      std::vector<Signal*> data, unsigned latency = 0)
      : PipelinedFunction(model, std::move(name),
                          data.empty() ? FixFormat{} : data.front()->format(),
                          latency),
        fan_in_(static_cast<unsigned>(data.size())) {
    if (data.empty()) {
      throw SimError("Mux '" + this->name() + "': needs at least one input");
    }
    for (const Signal* signal : data) {
      if (signal->format() != data.front()->format()) {
        throw SimError("Mux '" + this->name() +
                       "': all data inputs must share a format");
      }
    }
    connect_input(select);
    for (Signal* signal : data) connect_input(*signal);
  }

  [[nodiscard]] ResourceVec resources() const override {
    const unsigned width = outputs()[0]->format().word_bits;
    return ResourceVec{ceil_div(width * (fan_in_ - 1), 2u), 0, 0};
  }

 private:
  [[nodiscard]] Op function(Lowering& lowering) const override {
    // An out-of-range select picks the last input, like the HW core.
    Op op(OpCode::kMux);
    op.a = lowering.slot(in(0));
    op.b = lowering.operand_list(inputs(), 1);
    op.c = fan_in_;
    return op;
  }

  unsigned fan_in_;
};

/// Relational: boolean (UFix1_0) comparison of two inputs.
class Relational : public PipelinedFunction {
 public:
  enum class Op { kEq, kNe, kLt, kLe, kGt, kGe };

  Relational(Model& model, std::string name, Op op, Signal& a, Signal& b,
             unsigned latency = 0)
      : PipelinedFunction(model, std::move(name),
                          FixFormat::unsigned_fix(1, 0), latency),
        op_(op) {
    connect_input(a);
    connect_input(b);
  }

  [[nodiscard]] ResourceVec resources() const override {
    const unsigned width = std::max(in(0).format().word_bits,
                                    in(1).format().word_bits);
    return ResourceVec{slices_for_adder(width), 0, 0};
  }

 private:
  [[nodiscard]] sysgen::Op function(Lowering& lowering) const override {
    // Align both binary points exactly; 128-bit only when a shifted
    // operand could leave the i64 range.
    const FixFormat& a = in(0).format();
    const FixFormat& b = in(1).format();
    const int frac = std::max(a.frac_bits, b.frac_bits);
    const int sa = frac - a.frac_bits;
    const int sb = frac - b.frac_bits;
    const bool wide = a.word_bits + sa > 63 || b.word_bits + sb > 63;
    // Result per ordering, bit 0: less, bit 1: equal, bit 2: greater.
    i64 table = 0;
    switch (op_) {
      case Op::kEq: table = 0b010; break;
      case Op::kNe: table = 0b101; break;
      case Op::kLt: table = 0b001; break;
      case Op::kLe: table = 0b011; break;
      case Op::kGt: table = 0b100; break;
      case Op::kGe: table = 0b110; break;
    }
    sysgen::Op op(wide ? OpCode::kCompareWide : OpCode::kCompare);
    op.sa = static_cast<u8>(sa);
    op.sb = static_cast<u8>(sb);
    op.a = lowering.slot(in(0));
    op.b = lowering.slot(in(1));
    op.k = table;
    return op;
  }

  Op op_;
};

/// Logical: bitwise AND/OR/XOR of N same-format inputs (NOT of one).
class Logical : public PipelinedFunction {
 public:
  enum class Op { kAnd, kOr, kXor, kNot };

  Logical(Model& model, std::string name, Op op, std::vector<Signal*> inputs,
          unsigned latency = 0)
      : PipelinedFunction(model, std::move(name),
                          inputs.empty() ? FixFormat{}
                                         : inputs.front()->format(),
                          latency),
        op_(op) {
    if (inputs.empty() || (op == Op::kNot && inputs.size() != 1)) {
      throw SimError("Logical '" + this->name() + "': bad input count");
    }
    for (Signal* signal : inputs) connect_input(*signal);
  }

  [[nodiscard]] ResourceVec resources() const override {
    const unsigned width = outputs()[0]->format().word_bits;
    const auto fan_in = static_cast<unsigned>(inputs().size());
    return ResourceVec{ceil_div(width * std::max(1u, fan_in - 1), 2u), 0, 0};
  }

 private:
  [[nodiscard]] sysgen::Op function(Lowering& lowering) const override {
    OpCode code = OpCode::kAnd;
    if (op_ == Op::kOr) code = OpCode::kOr;
    if (op_ == Op::kXor) code = OpCode::kXor;
    if (op_ == Op::kNot) code = OpCode::kNot;
    sysgen::Op op(code);
    op.cast = Cast::wrap_to(outputs()[0]->format());
    if (op_ == Op::kNot) {
      op.a = lowering.slot(in(0));
    } else {
      op.b = lowering.operand_list(inputs());
      op.c = static_cast<u32>(inputs().size());
    }
    return op;
  }

  Op op_;
};

/// Slice: extract bits [low, low + width) as an unsigned integer.
class Slice : public PipelinedFunction {
 public:
  Slice(Model& model, std::string name, Signal& a, unsigned low,
        unsigned width, unsigned latency = 0)
      : PipelinedFunction(model, std::move(name),
                          FixFormat::unsigned_fix(static_cast<u8>(width), 0),
                          latency),
        low_(low) {
    if (width == 0 || low + width > a.format().word_bits) {
      throw SimError("Slice '" + this->name() + "': range [" +
                     std::to_string(low) + ", " + std::to_string(low + width) +
                     ") outside " + a.format().to_string());
    }
    connect_input(a);
  }

 private:
  [[nodiscard]] Op function(Lowering& lowering) const override {
    Op op(OpCode::kSlice);
    op.cast = Cast::wrap_to(outputs()[0]->format());
    op.a = lowering.slot(in(0));
    op.k = low_;
    return op;
  }

  unsigned low_;
};

// ---------------------------------------------------------------------------
// State
// ---------------------------------------------------------------------------

/// Register: one-cycle delay with initial value and optional enable.
/// The feedback-form constructor leaves the data input unconnected so
/// accumulator loops can be closed after the downstream logic exists
/// (sequential blocks legally break combinational cycles).
class Register : public Block {
 public:
  Register(Model& model, std::string name, Signal& d, Fix init,
           Signal* enable = nullptr)
      : Register(model, std::move(name), init, enable) {
    connect_d(d);
  }

  /// Feedback form: call connect_d() before the first simulation step.
  Register(Model& model, std::string name, Fix init, Signal* enable = nullptr)
      : Block(model, std::move(name)),
        init_(init),
        state_(init.raw()),
        out_(make_output("q", init.format())) {
    if (enable != nullptr) {
      enable_index_ = static_cast<int>(inputs().size());
      connect_input(*enable);
    }
  }

  void connect_d(Signal& d) {
    if (d_index_ >= 0) {
      throw SimError("Register '" + name() + "': data input already bound");
    }
    d_index_ = static_cast<int>(inputs().size());
    connect_input(d);
  }

  [[nodiscard]] bool is_sequential() const override { return true; }
  void check() const override {
    if (d_index_ < 0) {
      throw SimError("Register '" + name() + "': data input never connected");
    }
  }
  void lower(Lowering& lowering) override {
    Op drive(OpCode::kLoad, &state_);
    drive.out = lowering.slot(out_);
    lowering.output(drive);
    const Signal& d = in(static_cast<std::size_t>(d_index_));
    Op capture(OpCode::kRegister, &state_);
    capture.cast = Cast::make(d.format(), init_.format());
    capture.a = lowering.slot(d);
    if (enable_index_ >= 0) {
      capture.b = lowering.slot(in(static_cast<std::size_t>(enable_index_)));
    }
    lowering.latch(capture);
  }
  void reset() override { state_ = init_.raw(); }

  void save_state(ckpt::Writer& writer) const override {
    writer.write_i64(state_);
  }
  [[nodiscard]] bool load_state(ckpt::Reader& reader) override {
    state_ = init_.format().wrap(reader.read_i64());
    return reader.ok();
  }

  [[nodiscard]] ResourceVec resources() const override {
    return ResourceVec{slices_for_register(init_.format().word_bits), 0, 0};
  }

  [[nodiscard]] Signal& out() noexcept { return out_; }

 private:
  Fix init_;
  i64 state_;
  int d_index_ = -1;
  int enable_index_ = -1;
  Signal& out_;
};

/// Delay: N-cycle delay line (SRL16-mapped in hardware).
class Delay : public Block {
 public:
  Delay(Model& model, std::string name, Signal& d, unsigned cycles)
      : Block(model, std::move(name)),
        out_(make_output("out", d.format())),
        line_{std::vector<i64>(cycles, 0)} {
    if (cycles == 0) {
      throw SimError("Delay '" + this->name() +
                     "': zero-cycle delay is a wire, use the signal");
    }
    connect_input(d);
  }

  [[nodiscard]] bool is_sequential() const override { return true; }
  void lower(Lowering& lowering) override {
    Op drive(OpCode::kLineOut, &line_);
    drive.out = lowering.slot(out_);
    lowering.output(drive);
    Op push(OpCode::kLinePush, &line_);
    push.a = lowering.slot(in(0));
    lowering.latch(push);
  }
  void reset() override { line_.reset(); }

  void save_state(ckpt::Writer& writer) const override { line_.save(writer); }
  [[nodiscard]] bool load_state(ckpt::Reader& reader) override {
    return line_.load(reader, out_.format());
  }

  [[nodiscard]] ResourceVec resources() const override {
    // SRL16: one LUT per bit covers up to 16 stages.
    const unsigned width = out_.format().word_bits;
    const auto cycles = static_cast<unsigned>(line_.stages.size());
    return ResourceVec{ceil_div(width * ceil_div(cycles, 16u), 2u), 0, 0};
  }

  [[nodiscard]] Signal& out() noexcept { return out_; }

 private:
  Signal& out_;
  DelayLine line_;
};

/// Counter: free-running or enabled up-counter with wrap-around.
class Counter : public Block {
 public:
  Counter(Model& model, std::string name, FixFormat format, i64 limit,
          Signal* enable = nullptr, Signal* sync_reset = nullptr)
      : Block(model, std::move(name)),
        format_(format),
        limit_(limit),
        out_(make_output("count", format)) {
    format_.validate();
    if (limit_ <= 0 || limit_ > format_.max_raw() + 1) {
      throw SimError("Counter '" + this->name() + "': bad limit");
    }
    if (enable != nullptr) {
      enable_index_ = static_cast<int>(inputs().size());
      connect_input(*enable);
    }
    if (sync_reset != nullptr) {
      reset_index_ = static_cast<int>(inputs().size());
      connect_input(*sync_reset);
    }
  }

  [[nodiscard]] bool is_sequential() const override { return true; }
  void lower(Lowering& lowering) override {
    auto optional_slot = [&](int index) {
      return index < 0 ? kNoSlot
                       : lowering.slot(in(static_cast<std::size_t>(index)));
    };
    Op drive(OpCode::kLoad, &value_);
    drive.out = lowering.slot(out_);
    lowering.output(drive);
    Op count(OpCode::kCounter, &value_);
    count.a = optional_slot(enable_index_);
    count.b = optional_slot(reset_index_);
    count.k = limit_;
    lowering.latch(count);
  }
  void reset() override { value_ = 0; }

  void save_state(ckpt::Writer& writer) const override {
    writer.write_i64(value_);
  }
  [[nodiscard]] bool load_state(ckpt::Reader& reader) override {
    const i64 value = reader.read_i64();
    if (value < 0 || value >= limit_) return false;
    value_ = value;
    return reader.ok();
  }

  [[nodiscard]] ResourceVec resources() const override {
    return ResourceVec{slices_for_adder(format_.word_bits), 0, 0};
  }

  [[nodiscard]] Signal& out() noexcept { return out_; }

 private:
  FixFormat format_;
  i64 limit_;
  i64 value_ = 0;
  int enable_index_ = -1;
  int reset_index_ = -1;
  Signal& out_;
};

}  // namespace mbcosim::sysgen
