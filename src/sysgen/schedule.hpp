// The compiled form of a Model: at elaboration every block is lowered to
// op records over one i64 slot file (one slot per signal, plus scratch
// slots for pipelined results), and Model::step() runs the op list in one
// loop — output ops of the sequential blocks, combinational ops in
// topological order, then latch ops. Every format-dependent constant
// (alignment shifts, widths, quantization and overflow modes, limits) is
// resolved while lowering, so the loop computes on raw codes only; this
// is how FLASH-style simulators get their speed from a scheduled design
// (compile it instead of interpreting it).
//
// Library blocks (blocks_basic.hpp, blocks_memory.hpp) lower to dedicated
// opcodes; any other block becomes an opaque op that calls its
// output_state()/propagate()/latch() virtuals.
#pragma once

#include <cstddef>
#include <deque>
#include <vector>

#include "common/fixed_point.hpp"
#include "common/types.hpp"

namespace mbcosim::ckpt {
class Writer;
class Reader;
}  // namespace mbcosim::ckpt

namespace mbcosim::sysgen {

class Block;
class Model;
class Signal;

/// Slot index of an absent optional input (no enable, no reset, ...).
inline constexpr u32 kNoSlot = ~u32{0};

/// A Fix::cast between two formats with its constants resolved: the
/// binary-point shift, the destination width and the two modes.
struct Cast {
  i8 shift = 0;  ///< to.frac_bits - from.frac_bits
  u8 ext = 1;    ///< 64 - to.word_bits
  bool is_signed = true;
  bool round = false;
  bool saturate = false;

  static Cast make(const FixFormat& from, const FixFormat& to,
                   Quantization quantization = Quantization::kTruncate,
                   Overflow overflow = Overflow::kWrap);
  /// The destination format's own wrap (Fix::from_raw semantics).
  static Cast wrap_to(const FixFormat& to) { return make(to, to); }

  [[nodiscard]] i64 max() const noexcept {
    const u64 all_ones = ~u64{0} >> ext;  // 2^word_bits - 1
    return static_cast<i64>(is_signed ? all_ones >> 1 : all_ones);
  }
  [[nodiscard]] i64 min() const noexcept { return is_signed ? -max() - 1 : 0; }
  /// Keep the low word_bits, then sign- or zero-extend.
  [[nodiscard]] i64 wrap(i64 raw) const noexcept {
    const u64 high = static_cast<u64>(raw) << ext;
    return is_signed ? static_cast<i64>(high) >> ext
                     : static_cast<i64>(high >> ext);
  }

  /// Convert a raw code exactly as Fix::cast does (quantize, then wrap or
  /// saturate), without 128-bit arithmetic: `raw` is exact in a format of
  /// at most 63 bits.
  [[nodiscard]] i64 apply(i64 raw) const noexcept {
    if (shift < 0) {
      const int drop = -shift;
      const i64 floor = raw >> drop;
      // floor((raw + 2^(drop-1)) / 2^drop) without the overflowing add.
      raw = round ? floor + ((raw >> (drop - 1)) & 1) : floor;
    } else if (shift > 0) {
      if (saturate) {
        if (raw > (max() >> shift)) return max();
        if (raw < -((-min()) >> shift)) return min();
      }
      raw = static_cast<i64>(static_cast<u64>(raw) << shift);
    }
    if (saturate) return raw > max() ? max() : (raw < min() ? min() : raw);
    return wrap(raw);
  }
};

enum class OpCode : u8 {
  // Combinational functions: out <- f(slots).
  kConst,          ///< k
  kLoad,           ///< *state (gateway value, register, counter, read port)
  kAdd,            ///< cast((a << sa) + (b << sb))
  kSub,            ///< cast((a << sa) - (b << sb))
  kMul,            ///< cast(clamp(a * b, k2, k))
  kNegate,         ///< cast(-a)
  kConvert,        ///< cast(a)
  kShiftLeft,      ///< wrap(a << k)
  kShiftRight,     ///< a >> k
  kVarShiftRight,  ///< a >> min(unsigned b, k)
  kMux,            ///< operand b + min(unsigned a, c - 1) of the list
  kCompare,        ///< bit ordering(a << sa, b << sb) of truth table k
  kCompareWide,    ///< the same in 128-bit arithmetic
  kAnd,            ///< wrap of the list's c operands, masked, and-ed
  kOr,
  kXor,
  kNot,            ///< wrap(~a)
  kSlice,          ///< (unsigned a >> k) & mask
  // State: output ops drive `out`, latch ops update block-owned state.
  kRegister,       ///< if (b absent or set) *state <- cast(a)
  kCounter,        ///< b set: 0; else if (a absent or set): (+1) mod k
  kLineOut,        ///< out <- DelayLine front
  kLinePush,       ///< DelayLine push a
  kMemRead,        ///< Memory: read <- cells[min(unsigned a, size - 1)]
  kMemAccess,      ///< the same, then if c: cells[addr] <- cast(b)
  kFifoOut,        ///< out <- head or 0, a <- empty, b <- full (depth k)
  kFifoLatch,      ///< c set: pop; b set and not full: push cast(a)
  // Blocks outside the library.
  kOpaqueOutput,
  kOpaquePropagate,
  kOpaqueLatch,
};

/// One op record. Field meaning depends on the opcode (see OpCode).
struct Op {
  explicit Op(OpCode op_code, void* op_state = nullptr) noexcept
      : code(op_code), state(op_state) {}

  OpCode code;
  Cast cast;
  u8 sa = 0;  ///< left alignment shift of operand a
  u8 sb = 0;  ///< left alignment shift of operand b
  u32 out = kNoSlot;
  u32 a = kNoSlot;
  u32 b = kNoSlot;
  u32 c = kNoSlot;
  i64 k = 0;
  i64 k2 = 0;
  void* state = nullptr;  ///< block-owned state, or the opaque Block
};

/// Pipeline stages of a latency-L function or a Delay: a ring whose
/// head is the value driven this cycle and overwritten by the next push.
struct DelayLine {
  std::vector<i64> stages;
  std::size_t head = 0;

  [[nodiscard]] i64 front() const noexcept { return stages[head]; }
  void push(i64 raw) noexcept {
    stages[head] = raw;
    if (++head == stages.size()) head = 0;
  }
  void reset() noexcept {
    for (i64& stage : stages) stage = 0;
    head = 0;
  }
  /// Checkpoint: the stage count, then the stages from the next output
  /// on. load() wraps each stage into `format` and returns false on a
  /// stage-count mismatch.
  void save(ckpt::Writer& writer) const;
  [[nodiscard]] bool load(ckpt::Reader& reader, const FixFormat& format);
};

/// A synchronous memory (ROM or RAM): words plus the registered read port.
struct Memory {
  std::vector<i64> cells;
  i64 read = 0;
};

/// FIFO contents, oldest first.
using FifoQueue = std::deque<i64>;

/// What a block sees while Model::elaborate() lowers it: the slots of its
/// signals and one emitter per phase. Sequential blocks emit output and
/// latch ops; combinational blocks emit combinational ops.
class Lowering {
 public:
  /// Slot of a signal of the model being lowered (SimError otherwise).
  [[nodiscard]] u32 slot(const Signal& signal) const;
  /// A fresh scratch slot that no signal uses.
  [[nodiscard]] u32 scratch() { return next_scratch_++; }
  /// Store the slots of `signals` from index `first` on as an operand
  /// list; returns its offset.
  [[nodiscard]] u32 operand_list(const std::vector<Signal*>& signals,
                                 std::size_t first = 0);

  void output(const Op& op) { output_.push_back(op); }
  void combinational(const Op& op) { combinational_.push_back(op); }
  void latch(const Op& op) { latch_.push_back(op); }

 private:
  friend class Model;
  Lowering(const Model& model, u32 signal_count, std::vector<u32>& operands)
      : model_(model), next_scratch_(signal_count), operands_(operands) {}

  const Model& model_;
  u32 next_scratch_;
  std::vector<u32>& operands_;
  std::vector<Op> output_;
  std::vector<Op> combinational_;
  std::vector<Op> latch_;
};

/// Run one clock cycle of a compiled schedule over the slot file.
void run_schedule(const std::vector<Op>& ops, i64* slots, const u32* operands);

}  // namespace mbcosim::sysgen
