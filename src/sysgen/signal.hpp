// A Signal is a typed wire between block ports: it carries one Fix value
// per simulated clock cycle. Exactly one block output drives each signal.
// The value is a raw code in one slot: the signal's own until the model
// is elaborated, then the model's slot file that the compiled schedule
// computes on (schedule.hpp).
#pragma once

#include <string>
#include <utility>

#include "common/fixed_point.hpp"
#include "common/status.hpp"

namespace mbcosim::sysgen {

class Block;
class Model;

class Signal {
 public:
  Signal(std::string name, FixFormat format)
      : name_(std::move(name)), format_(format) {
    format_.validate();
  }
  Signal(const Signal&) = delete;
  Signal& operator=(const Signal&) = delete;

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] const FixFormat& format() const noexcept { return format_; }
  [[nodiscard]] Fix value() const { return Fix::from_raw(format_, *slot_); }

  /// Convenience readers used all over the block library.
  [[nodiscard]] i64 raw() const noexcept { return *slot_; }
  [[nodiscard]] bool as_bool() const noexcept { return *slot_ != 0; }
  [[nodiscard]] double as_double() const { return value().to_double(); }

  /// Drive the wire. The value must already be in the signal's format —
  /// blocks cast their results explicitly, exactly like the hardware they
  /// abstract (there are no implicit width conversions on an FPGA net).
  void drive(const Fix& value) {
    if (value.format() != format_) {
      throw SimError("Signal '" + name_ + "': driven with format " +
                     value.format().to_string() + ", expected " +
                     format_.to_string());
    }
    *slot_ = value.raw();
  }

  /// Drive from a raw code (masked into the format).
  void drive_raw(i64 raw_code) noexcept { *slot_ = format_.wrap(raw_code); }

  [[nodiscard]] Block* driver() const noexcept { return driver_; }
  void set_driver(Block* block) {
    if (driver_ != nullptr && block != nullptr) {
      throw SimError("Signal '" + name_ + "' already has a driver");
    }
    driver_ = block;
  }

  void reset() noexcept { *slot_ = 0; }

  /// Position in the owning model's creation order, which is also the
  /// signal's slot in the compiled schedule.
  [[nodiscard]] u32 index() const noexcept { return index_; }

 private:
  friend class Model;

  std::string name_;
  FixFormat format_;
  i64 own_ = 0;
  i64* slot_ = &own_;
  u32 index_ = ~u32{0};
  Block* driver_ = nullptr;
};

}  // namespace mbcosim::sysgen
