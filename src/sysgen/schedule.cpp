#include "sysgen/schedule.hpp"

#include <algorithm>

#include "ckpt/ckpt.hpp"
#include "sysgen/block.hpp"
#include "sysgen/model.hpp"

namespace mbcosim::sysgen {

namespace {

using i128 = __int128;

i64 shl(i64 raw, unsigned amount) noexcept {
  return static_cast<i64>(static_cast<u64>(raw) << amount);
}

/// Index into a truth table (less, equal, greater) -> (0, 1, 2).
template <typename T>
unsigned ordering(T a, T b) noexcept {
  return static_cast<unsigned>((a > b) - (a < b) + 1);
}

}  // namespace

Cast Cast::make(const FixFormat& from, const FixFormat& to,
                Quantization quantization, Overflow overflow) {
  from.validate();
  to.validate();
  Cast cast;
  cast.shift = static_cast<i8>(int(to.frac_bits) - int(from.frac_bits));
  cast.ext = static_cast<u8>(64 - to.word_bits);
  cast.is_signed = to.sign == Signedness::kSigned;
  cast.round = quantization == Quantization::kRoundHalfUp;
  cast.saturate = overflow == Overflow::kSaturate;
  return cast;
}

void DelayLine::save(ckpt::Writer& writer) const {
  writer.write_u32(static_cast<u32>(stages.size()));
  for (std::size_t i = 0; i < stages.size(); ++i) {
    writer.write_i64(stages[(head + i) % stages.size()]);
  }
}

bool DelayLine::load(ckpt::Reader& reader, const FixFormat& format) {
  if (reader.read_u32() != stages.size()) return false;
  head = 0;
  for (i64& stage : stages) stage = format.wrap(reader.read_i64());
  return reader.ok();
}

u32 Lowering::slot(const Signal& signal) const {
  if (!model_.owns(signal)) {
    throw SimError("Model '" + model_.name() + "': signal '" + signal.name() +
                   "' does not belong to this model");
  }
  return signal.index();
}

u32 Lowering::operand_list(const std::vector<Signal*>& signals,
                           std::size_t first) {
  const auto offset = static_cast<u32>(operands_.size());
  for (std::size_t i = first; i < signals.size(); ++i) {
    operands_.push_back(slot(*signals[i]));
  }
  return offset;
}

void run_schedule(const std::vector<Op>& ops, i64* s, const u32* list) {
  for (const Op& op : ops) {
    switch (op.code) {
      case OpCode::kConst:
        s[op.out] = op.k;
        break;
      case OpCode::kLoad:
        s[op.out] = *static_cast<const i64*>(op.state);
        break;
      case OpCode::kAdd:
        s[op.out] = op.cast.apply(shl(s[op.a], op.sa) + shl(s[op.b], op.sb));
        break;
      case OpCode::kSub:
        s[op.out] = op.cast.apply(shl(s[op.a], op.sa) - shl(s[op.b], op.sb));
        break;
      case OpCode::kMul: {
        const i128 product = i128(s[op.a]) * i128(s[op.b]);
        s[op.out] = op.cast.apply(static_cast<i64>(
            std::clamp(product, i128(op.k2), i128(op.k))));
        break;
      }
      case OpCode::kNegate:
        s[op.out] = op.cast.apply(-s[op.a]);
        break;
      case OpCode::kConvert:
        s[op.out] = op.cast.apply(s[op.a]);
        break;
      case OpCode::kShiftLeft:
        s[op.out] = op.cast.wrap(shl(s[op.a], static_cast<unsigned>(op.k)));
        break;
      case OpCode::kShiftRight:
        s[op.out] = s[op.a] >> op.k;
        break;
      case OpCode::kVarShiftRight:
        s[op.out] = s[op.a] >> std::min(static_cast<u64>(s[op.b]),
                                        static_cast<u64>(op.k));
        break;
      case OpCode::kMux: {
        const u64 index =
            std::min(static_cast<u64>(s[op.a]), static_cast<u64>(op.c - 1));
        s[op.out] = s[list[op.b + index]];
        break;
      }
      case OpCode::kCompare:
        s[op.out] =
            (op.k >> ordering(shl(s[op.a], op.sa), shl(s[op.b], op.sb))) & 1;
        break;
      case OpCode::kCompareWide:
        s[op.out] = (op.k >> ordering(i128(s[op.a]) << op.sa,
                                      i128(s[op.b]) << op.sb)) &
                    1;
        break;
      case OpCode::kAnd:
      case OpCode::kOr:
      case OpCode::kXor: {
        const u32* operand = list + op.b;
        u64 acc = static_cast<u64>(s[operand[0]]);
        for (u32 i = 1; i < op.c; ++i) {
          const auto value = static_cast<u64>(s[operand[i]]);
          if (op.code == OpCode::kAnd) {
            acc &= value;
          } else if (op.code == OpCode::kOr) {
            acc |= value;
          } else {
            acc ^= value;
          }
        }
        s[op.out] = op.cast.wrap(static_cast<i64>(acc));
        break;
      }
      case OpCode::kNot:
        s[op.out] = op.cast.wrap(~s[op.a]);
        break;
      case OpCode::kSlice:
        s[op.out] = op.cast.wrap(
            static_cast<i64>(static_cast<u64>(s[op.a]) >> op.k));
        break;
      case OpCode::kRegister:
        if (op.b == kNoSlot || s[op.b] != 0) {
          *static_cast<i64*>(op.state) = op.cast.apply(s[op.a]);
        }
        break;
      case OpCode::kCounter: {
        i64& value = *static_cast<i64*>(op.state);
        if (op.b != kNoSlot && s[op.b] != 0) {
          value = 0;
        } else if (op.a == kNoSlot || s[op.a] != 0) {
          value = value + 1 == op.k ? 0 : value + 1;
        }
        break;
      }
      case OpCode::kLineOut:
        s[op.out] = static_cast<const DelayLine*>(op.state)->front();
        break;
      case OpCode::kLinePush:
        static_cast<DelayLine*>(op.state)->push(s[op.a]);
        break;
      case OpCode::kMemRead:
      case OpCode::kMemAccess: {
        Memory& memory = *static_cast<Memory*>(op.state);
        const std::size_t address = static_cast<std::size_t>(std::min(
            static_cast<u64>(s[op.a]), u64{memory.cells.size() - 1}));
        memory.read = memory.cells[address];  // read-before-write
        if (op.code == OpCode::kMemAccess && s[op.c] != 0) {
          memory.cells[address] = op.cast.apply(s[op.b]);
        }
        break;
      }
      case OpCode::kFifoOut: {
        const FifoQueue& fifo = *static_cast<const FifoQueue*>(op.state);
        s[op.out] = fifo.empty() ? 0 : fifo.front();
        s[op.a] = fifo.empty() ? 1 : 0;
        s[op.b] = static_cast<i64>(fifo.size()) >= op.k ? 1 : 0;
        break;
      }
      case OpCode::kFifoLatch: {
        FifoQueue& fifo = *static_cast<FifoQueue*>(op.state);
        if (s[op.c] != 0 && !fifo.empty()) fifo.pop_front();
        if (s[op.b] != 0 && static_cast<i64>(fifo.size()) < op.k) {
          fifo.push_back(op.cast.apply(s[op.a]));
        }
        break;
      }
      case OpCode::kOpaqueOutput:
        static_cast<Block*>(op.state)->output_state();
        break;
      case OpCode::kOpaquePropagate:
        static_cast<Block*>(op.state)->propagate();
        break;
      case OpCode::kOpaqueLatch:
        static_cast<Block*>(op.state)->latch();
        break;
    }
  }
}

}  // namespace mbcosim::sysgen
