// Memory blocks: ROM, single-port RAM and a synchronous FIFO — the BRAM-
// backed members of the block set. Resource figures model Virtex-II Pro
// 18 Kbit block RAMs; small memories map to distributed (slice) RAM.
#pragma once

#include <utility>
#include <vector>

#include "common/bits.hpp"
#include "sysgen/block.hpp"
#include "sysgen/blocks_basic.hpp"
#include "sysgen/model.hpp"
#include "sysgen/schedule.hpp"

namespace mbcosim::sysgen {

namespace detail {
/// BRAMs for a depth x width memory; memories of at most 64 entries map
/// to distributed RAM (reported as slices instead).
inline ResourceVec memory_resources(std::size_t depth, unsigned width_bits) {
  ResourceVec r;
  if (depth <= 64) {
    r.slices = ceil_div(static_cast<u32>(depth * width_bits), 32u);
    return r;
  }
  constexpr u32 kBramBits = 18 * 1024;
  r.brams = ceil_div(static_cast<u32>(depth * width_bits), kBramBits);
  return r;
}
}  // namespace detail

/// ROM: synchronous read, one-cycle latency (BRAM output register).
class Rom : public Block {
 public:
  Rom(Model& model, std::string name, Signal& address,
      const std::vector<Fix>& contents)
      : Block(model, std::move(name)),
        out_(make_output("data", contents.empty()
                                     ? FixFormat{}
                                     : contents.front().format())) {
    if (contents.empty()) {
      throw SimError("Rom '" + this->name() + "': empty contents");
    }
    for (const Fix& word : contents) {
      if (word.format() != contents.front().format()) {
        throw SimError("Rom '" + this->name() + "': mixed word formats");
      }
      memory_.cells.push_back(word.raw());
    }
    connect_input(address);
  }

  [[nodiscard]] bool is_sequential() const override { return true; }
  void lower(Lowering& lowering) override {
    Op drive(OpCode::kLoad, &memory_.read);
    drive.out = lowering.slot(out_);
    lowering.output(drive);
    Op read(OpCode::kMemRead, &memory_);
    read.a = lowering.slot(in(0));
    lowering.latch(read);
  }
  void reset() override { memory_.read = 0; }

  void save_state(ckpt::Writer& writer) const override {
    writer.write_i64(memory_.read);
  }
  [[nodiscard]] bool load_state(ckpt::Reader& reader) override {
    memory_.read = out_.format().wrap(reader.read_i64());
    return reader.ok();
  }

  [[nodiscard]] ResourceVec resources() const override {
    return detail::memory_resources(memory_.cells.size(),
                                    out_.format().word_bits);
  }

  [[nodiscard]] Signal& out() noexcept { return out_; }

 private:
  Signal& out_;
  Memory memory_;
};

/// Single-port RAM: synchronous write, synchronous read (read-before-
/// write port behaviour, like a BRAM in READ_FIRST mode).
class SinglePortRam : public Block {
 public:
  SinglePortRam(Model& model, std::string name, std::size_t depth,
                FixFormat word_format, Signal& address, Signal& data_in,
                Signal& write_enable)
      : Block(model, std::move(name)),
        word_format_(word_format),
        out_(make_output("data", word_format)),
        memory_{std::vector<i64>(depth, 0)} {
    if (depth == 0) {
      throw SimError("SinglePortRam '" + this->name() + "': zero depth");
    }
    connect_input(address);
    connect_input(data_in);
    connect_input(write_enable);
  }

  [[nodiscard]] bool is_sequential() const override { return true; }
  void lower(Lowering& lowering) override {
    Op drive(OpCode::kLoad, &memory_.read);
    drive.out = lowering.slot(out_);
    lowering.output(drive);
    Op access(OpCode::kMemAccess, &memory_);
    access.cast = Cast::make(in(1).format(), word_format_);
    access.a = lowering.slot(in(0));
    access.b = lowering.slot(in(1));
    access.c = lowering.slot(in(2));
    lowering.latch(access);
  }
  void reset() override {
    for (i64& cell : memory_.cells) cell = 0;
    memory_.read = 0;
  }

  void save_state(ckpt::Writer& writer) const override {
    writer.write_u64(memory_.cells.size());
    for (const i64 cell : memory_.cells) writer.write_i64(cell);
    writer.write_i64(memory_.read);
  }
  [[nodiscard]] bool load_state(ckpt::Reader& reader) override {
    if (reader.read_u64() != memory_.cells.size()) return false;
    for (i64& cell : memory_.cells) cell = word_format_.wrap(reader.read_i64());
    memory_.read = word_format_.wrap(reader.read_i64());
    return reader.ok();
  }

  [[nodiscard]] ResourceVec resources() const override {
    return detail::memory_resources(memory_.cells.size(),
                                    word_format_.word_bits);
  }

  [[nodiscard]] Signal& out() noexcept { return out_; }
  /// Debug peek for tests.
  [[nodiscard]] Fix cell(std::size_t index) const {
    return Fix::from_raw(word_format_, memory_.cells.at(index));
  }

 private:
  FixFormat word_format_;
  Signal& out_;
  Memory memory_;
};

/// Synchronous FIFO with write/read enables and full/empty flags — the
/// hardware-side equivalent of the FSL FIFO buffer. An empty FIFO drives
/// a zero word.
class FifoBlock : public Block {
 public:
  FifoBlock(Model& model, std::string name, std::size_t depth,
            FixFormat word_format, Signal& data_in, Signal& write_enable,
            Signal& read_enable)
      : Block(model, std::move(name)),
        depth_(depth),
        word_format_(word_format),
        data_out_(make_output("dout", word_format)),
        empty_(make_output("empty", FixFormat::unsigned_fix(1, 0))),
        full_(make_output("full", FixFormat::unsigned_fix(1, 0))) {
    if (depth_ == 0) {
      throw SimError("FifoBlock '" + this->name() + "': zero depth");
    }
    connect_input(data_in);
    connect_input(write_enable);
    connect_input(read_enable);
  }

  [[nodiscard]] bool is_sequential() const override { return true; }
  void lower(Lowering& lowering) override {
    Op drive(OpCode::kFifoOut, &fifo_);
    drive.out = lowering.slot(data_out_);
    drive.a = lowering.slot(empty_);
    drive.b = lowering.slot(full_);
    drive.k = static_cast<i64>(depth_);
    lowering.output(drive);
    Op update(OpCode::kFifoLatch, &fifo_);
    update.cast = Cast::make(in(0).format(), word_format_);
    update.a = lowering.slot(in(0));
    update.b = lowering.slot(in(1));
    update.c = lowering.slot(in(2));
    update.k = static_cast<i64>(depth_);
    lowering.latch(update);
  }
  void reset() override { fifo_.clear(); }

  void save_state(ckpt::Writer& writer) const override {
    writer.write_u64(fifo_.size());
    for (const i64 word : fifo_) writer.write_i64(word);
  }
  [[nodiscard]] bool load_state(ckpt::Reader& reader) override {
    const u64 occupancy = reader.read_u64();
    if (!reader.ok() || occupancy > depth_) return false;
    fifo_.clear();
    for (u64 i = 0; i < occupancy; ++i) {
      fifo_.push_back(word_format_.wrap(reader.read_i64()));
    }
    return reader.ok();
  }

  [[nodiscard]] ResourceVec resources() const override {
    ResourceVec r = detail::memory_resources(depth_, word_format_.word_bits);
    r.slices += slices_for_adder(8) * 2;  // read/write pointers + compare
    return r;
  }

  [[nodiscard]] Signal& data_out() noexcept { return data_out_; }
  [[nodiscard]] Signal& empty() noexcept { return empty_; }
  [[nodiscard]] Signal& full() noexcept { return full_; }
  [[nodiscard]] std::size_t occupancy() const noexcept { return fifo_.size(); }

 private:
  std::size_t depth_;
  FixFormat word_format_;
  Signal& data_out_;
  Signal& empty_;
  Signal& full_;
  FifoQueue fifo_;
};

}  // namespace mbcosim::sysgen
