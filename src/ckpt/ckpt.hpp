// Versioned full-system checkpoint format: a little-endian byte codec
// (Writer/Reader), an on-disk image container with a checksummed header,
// and the stable bracketed error codes restore failures report through.
//
// Layering: this module depends only on common/. Every stateful
// component (iss::Processor, fsl::FslChannel, sysgen::Model, the OPB
// peripherals, core engines, rtl::Simulator) implements
// save_state(ckpt::Writer&) / load_state(ckpt::Reader&) against these
// types, and sim::SimSystem concatenates them into one image
// (DESIGN.md §11 documents the layout).
//
// Error channel: matching machine::kDescErrorCodes, sealing and
// restoring never throw and never exit. Every failure comes back as a
// Status/Expected whose message starts with a stable bracketed code
// from kCkptErrorCodes, so callers (and tests) can dispatch on the
// class of error without string-matching prose.
#pragma once

#include <cstddef>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.hpp"
#include "common/types.hpp"

namespace mbcosim::ckpt {

/// Stable bracketed codes prefixed to every checkpoint error message.
/// Tests assert on these; add new codes at the end, never rename.
inline constexpr const char* kCkptErrorCodes[] = {
    "[ckpt-io]",         // file unreadable / unwritable
    "[ckpt-magic]",      // not a checkpoint image
    "[ckpt-version]",    // written by an incompatible format version
    "[ckpt-truncated]",  // image shorter than its header claims
    "[ckpt-corrupt]",    // header checksum does not match the payload
    "[ckpt-shape]",      // snapshot of a different machine / component
};

/// On-disk format version. Bump on any layout change; readers reject
/// other versions with [ckpt-version] instead of guessing.
inline constexpr u32 kFormatVersion = 3;

/// Image header, 24 bytes, little-endian like everything else:
///   bytes 0..3   magic "MBCK"
///   bytes 4..7   u32 format version
///   bytes 8..15  u64 payload size
///   bytes 16..23 u64 FNV-1a checksum of the payload
inline constexpr unsigned char kMagic[4] = {'M', 'B', 'C', 'K'};
inline constexpr std::size_t kHeaderBytes = 24;

/// FNV-1a over a byte range — the header checksum and the machine-shape
/// fingerprint both use it.
[[nodiscard]] u64 fnv1a(const void* data, std::size_t size) noexcept;
[[nodiscard]] inline u64 fnv1a(std::string_view text) noexcept {
  return fnv1a(text.data(), text.size());
}

/// Append-only little-endian encoder. Every field is written byte by
/// byte so an image produced on any host byte order is identical.
class Writer {
 public:
  void write_u8(u8 value) { buf_.push_back(value); }
  void write_u16(u16 value) {
    write_u8(static_cast<u8>(value & 0xff));
    write_u8(static_cast<u8>(value >> 8));
  }
  void write_u32(u32 value) {
    write_u16(static_cast<u16>(value & 0xffff));
    write_u16(static_cast<u16>(value >> 16));
  }
  void write_u64(u64 value) {
    write_u32(static_cast<u32>(value & 0xffffffffull));
    write_u32(static_cast<u32>(value >> 32));
  }
  void write_i64(i64 value) { write_u64(static_cast<u64>(value)); }
  void write_bool(bool value) { write_u8(value ? 1 : 0); }
  void write_bytes(const void* data, std::size_t size) {
    // resize + memcpy instead of insert(end, first, last): the range
    // insert's inlined grow path trips a GCC 12 -Wstringop-overflow
    // false positive under -fsanitize=thread, and this is also the
    // fastest append for the bulk memory images that dominate here.
    if (size == 0) return;
    const std::size_t old_size = buf_.size();
    buf_.resize(old_size + size);
    std::memcpy(buf_.data() + old_size, data, size);
  }
  void write_str(std::string_view text) {
    write_u64(text.size());
    write_bytes(text.data(), text.size());
  }

  [[nodiscard]] const std::vector<unsigned char>& buffer() const noexcept {
    return buf_;
  }
  [[nodiscard]] std::vector<unsigned char> take() noexcept {
    return std::move(buf_);
  }

 private:
  std::vector<unsigned char> buf_;
};

/// Matching decoder. Reads past the end do not throw: they return zero
/// values and latch an underrun flag, so component load_state code can
/// run a whole fixed layout and check ok() / its own shape fields once.
class Reader {
 public:
  Reader(const unsigned char* data, std::size_t size) noexcept
      : data_(data), size_(size) {}
  explicit Reader(const std::vector<unsigned char>& payload) noexcept
      : Reader(payload.data(), payload.size()) {}

  [[nodiscard]] u8 read_u8() noexcept {
    if (pos_ >= size_) {
      underrun_ = true;
      return 0;
    }
    return data_[pos_++];
  }
  [[nodiscard]] u16 read_u16() noexcept {
    const u16 lo = read_u8();
    const u16 hi = read_u8();
    return static_cast<u16>(lo | (hi << 8));
  }
  [[nodiscard]] u32 read_u32() noexcept {
    const u32 lo = read_u16();
    const u32 hi = read_u16();
    return lo | (hi << 16);
  }
  [[nodiscard]] u64 read_u64() noexcept {
    const u64 lo = read_u32();
    const u64 hi = read_u32();
    return lo | (hi << 32);
  }
  [[nodiscard]] i64 read_i64() noexcept {
    return static_cast<i64>(read_u64());
  }
  [[nodiscard]] bool read_bool() noexcept { return read_u8() != 0; }
  bool read_bytes(void* out, std::size_t size) noexcept {
    if (size_ - pos_ < size) {
      pos_ = size_;
      underrun_ = true;
      return false;
    }
    auto* bytes = static_cast<unsigned char*>(out);
    for (std::size_t i = 0; i < size; ++i) bytes[i] = data_[pos_ + i];
    pos_ += size;
    return true;
  }
  [[nodiscard]] std::string read_str() {
    const u64 size = read_u64();
    if (size_ - pos_ < size) {
      pos_ = size_;
      underrun_ = true;
      return {};
    }
    std::string text(reinterpret_cast<const char*>(data_ + pos_),
                     static_cast<std::size_t>(size));
    pos_ += static_cast<std::size_t>(size);
    return text;
  }

  /// False once any read ran past the end of the payload.
  [[nodiscard]] bool ok() const noexcept { return !underrun_; }
  [[nodiscard]] std::size_t remaining() const noexcept { return size_ - pos_; }

 private:
  const unsigned char* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
  bool underrun_ = false;
};

/// Frame a payload into a complete image: header + payload.
[[nodiscard]] std::vector<unsigned char> seal(
    std::vector<unsigned char> payload);

/// Verify an image's header (magic, version, size, checksum) and return
/// its payload. Errors: [ckpt-magic], [ckpt-version], [ckpt-truncated],
/// [ckpt-corrupt].
[[nodiscard]] Expected<std::vector<unsigned char>> unseal(
    const std::vector<unsigned char>& image);

/// Whole-image file I/O. Errors: [ckpt-io].
[[nodiscard]] Status write_file(const std::string& path,
                                const std::vector<unsigned char>& image);
[[nodiscard]] Expected<std::vector<unsigned char>> read_file(
    const std::string& path);

/// read_file + unseal in one step: load a sealed image file and return
/// its verified payload. The read side of the journal's skip-corrupt-
/// tail path — every way a file can be damaged (missing, zero-length,
/// truncated, bit-flipped) comes back as a structured [ckpt-*] error.
[[nodiscard]] Expected<std::vector<unsigned char>> read_sealed(
    const std::string& path);

}  // namespace mbcosim::ckpt
