#include "rsp/server.hpp"

#include <algorithm>

namespace mbcosim::rsp {

namespace {

bool starts_with(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() &&
         text.substr(0, prefix.size()) == prefix;
}

}  // namespace

SessionEnd RspServer::serve() {
  while (pump()) {
    reject_pending_clients();
    drain_transport(options_.poll_ms);
  }
  return *end_;
}

void RspServer::reject_pending_clients() {
  if (busy_listener_ == nullptr) return;
  while (std::unique_ptr<Transport> intruder = busy_listener_->accept(0)) {
    intruder->send(
        frame_packet("E.srv-busy: debug port already has a client"));
  }
}

bool RspServer::pump() {
  if (!end_ && cancelled()) end_ = SessionEnd::kDisconnected;
  drain_transport(0);
  while (!end_ && !queue_.empty()) {
    const DecoderEvent event = std::move(queue_.front());
    queue_.pop_front();
    handle_event(event);
  }
  if (!end_ && queue_.empty() && transport_.closed()) {
    end_ = SessionEnd::kDisconnected;
  }
  return !end_;
}

void RspServer::drain_transport(int timeout_ms) {
  const std::string bytes = transport_.recv(timeout_ms);
  if (!bytes.empty()) decoder_.feed(bytes);
  while (std::optional<DecoderEvent> event = decoder_.next()) {
    queue_.push_back(std::move(*event));
  }
}

bool RspServer::take_interrupt() {
  const auto it =
      std::find_if(queue_.begin(), queue_.end(), [](const DecoderEvent& e) {
        return e.kind == DecoderEvent::Kind::kInterrupt;
      });
  if (it == queue_.end()) return false;
  queue_.erase(it);
  return true;
}

void RspServer::handle_event(const DecoderEvent& event) {
  switch (event.kind) {
    case DecoderEvent::Kind::kAck:
      last_reply_frame_.clear();  // delivered; nothing to retransmit
      return;
    case DecoderEvent::Kind::kNak:
      if (!last_reply_frame_.empty()) transport_.send(last_reply_frame_);
      return;
    case DecoderEvent::Kind::kBadPacket:
      transport_.send("-");
      return;
    case DecoderEvent::Kind::kInterrupt:
      // Interrupt while already stopped: report a SIGINT stop.
      last_stop_reply_ = "S02";
      transmit(last_stop_reply_);
      return;
    case DecoderEvent::Kind::kPacket:
      break;
  }
  transport_.send("+");
  const std::optional<std::string> reply = handle_packet(event.payload);
  if (reply) transmit(*reply);
}

void RspServer::transmit(std::string_view payload) {
  last_reply_frame_ = frame_packet(payload);
  transport_.send(last_reply_frame_);
}

std::string RspServer::stop_reply(const StopInfo& stop) {
  switch (stop.kind) {
    case StopInfo::Kind::kBreakpoint:
    case StopInfo::Kind::kStep:
      return "S05";  // SIGTRAP
    case StopInfo::Kind::kHalted:
      return "W00";  // clean program exit (branch-to-self)
    case StopInfo::Kind::kIllegal:
      return "S04";  // SIGILL
    case StopInfo::Kind::kStalled:
      return "S06";  // SIGABRT: FSL deadlock, nothing can unblock it
    case StopInfo::Kind::kBudget:
      return "S02";  // SIGINT: ran out of budget / interrupted
  }
  return "S05";
}

std::string RspServer::run_target(bool step, std::optional<Addr> addr) {
  if (addr) target_.write_reg(kRegPc, *addr);
  // A step polls between quanta too: a core starved by a live peer is
  // no deadlock, and may ride out its stall until gdb interrupts.
  StopInfo stop;
  Cycle remaining = options_.max_resume_cycles;
  bool first_quantum = true;
  while (true) {
    const Cycle quantum = std::min(options_.resume_quantum, remaining);
    stop = step ? target_.step_one(quantum)
                : target_.resume(quantum, first_quantum);
    first_quantum = false;
    if (stop.kind != StopInfo::Kind::kBudget) break;
    remaining -= std::min(quantum, remaining);
    if (remaining == 0) break;  // give up; reported as an interrupt stop
    // Between quanta: poll the wire for gdb's Ctrl-C, turn away any
    // newly arrived clients, and honour external cancellation.
    reject_pending_clients();
    drain_transport(0);
    if (take_interrupt() || cancelled()) {
      stop.kind = StopInfo::Kind::kBudget;  // maps to SIGINT below
      break;
    }
  }
  last_stop_reply_ = stop_reply(stop);
  return last_stop_reply_;
}

std::optional<std::string> RspServer::handle_packet(std::string_view p) {
  if (p.empty()) return std::string{};
  const std::string_view rest = p.substr(1);
  switch (p[0]) {
    case '?':
      return last_stop_reply_;

    case 'g': {
      std::string out;
      out.reserve(kNumRegs * 8);
      for (unsigned i = 0; i < kNumRegs; ++i) {
        out += hex_word(target_.read_reg(i));
      }
      return out;
    }

    case 'G': {
      if (rest.size() != kNumRegs * 8) return "E01";
      for (unsigned i = 0; i < kNumRegs; ++i) {
        const Expected<Word> value = parse_hex_word(rest.substr(i * 8, 8));
        if (!value) return "E01";
        if (!target_.write_reg(i, value.value())) return "E01";
      }
      return "OK";
    }

    case 'p': {
      const Expected<u64> index = parse_hex_number(rest);
      if (!index || index.value() >= kNumRegs) return "E01";
      return hex_word(target_.read_reg(static_cast<unsigned>(index.value())));
    }

    case 'P': {
      const std::size_t eq = rest.find('=');
      if (eq == std::string_view::npos) return "E01";
      const Expected<u64> index = parse_hex_number(rest.substr(0, eq));
      const Expected<Word> value = parse_hex_word(rest.substr(eq + 1));
      if (!index || index.value() >= kNumRegs || !value) return "E01";
      return target_.write_reg(static_cast<unsigned>(index.value()),
                               value.value())
                 ? "OK"
                 : "E01";
    }

    case 'm': {
      const std::size_t comma = rest.find(',');
      if (comma == std::string_view::npos) return "E01";
      const Expected<u64> addr = parse_hex_number(rest.substr(0, comma));
      const Expected<u64> length = parse_hex_number(rest.substr(comma + 1));
      if (!addr || !length || length.value() > (u64{1} << 24)) return "E01";
      std::string bytes;
      if (!target_.read_mem(static_cast<Addr>(addr.value()),
                            static_cast<u32>(length.value()), bytes)) {
        return "E01";
      }
      return to_hex(bytes);
    }

    case 'M':
    case 'X': {
      const std::size_t comma = rest.find(',');
      const std::size_t colon = rest.find(':');
      if (comma == std::string_view::npos || colon == std::string_view::npos ||
          colon < comma) {
        return "E01";
      }
      const Expected<u64> addr = parse_hex_number(rest.substr(0, comma));
      const Expected<u64> length =
          parse_hex_number(rest.substr(comma + 1, colon - comma - 1));
      if (!addr || !length || length.value() > (u64{1} << 24)) return "E01";
      const Expected<std::string> bytes =
          p[0] == 'M' ? from_hex(rest.substr(colon + 1))
                      : unescape_binary(rest.substr(colon + 1));
      if (!bytes) return "E01";
      if (length.value() == 0) return "OK";  // gdb's X write probe
      if (bytes.value().size() != length.value()) return "E01";
      return target_.write_mem(static_cast<Addr>(addr.value()), bytes.value())
                 ? "OK"
                 : "E01";
    }

    case 'c':
    case 's': {
      std::optional<Addr> addr;
      if (!rest.empty()) {
        const Expected<u64> parsed = parse_hex_number(rest);
        if (!parsed) return "E01";
        addr = static_cast<Addr>(parsed.value());
      }
      return run_target(p[0] == 's', addr);
    }

    case 'Z':
    case 'z': {
      // Z0 (software) and Z1 (hardware) breakpoints both land in the
      // debugger's PC-match set — the ISS has no separate mechanisms.
      if (rest.size() < 2 || (rest[0] != '0' && rest[0] != '1') ||
          rest[1] != ',') {
        return std::string{};  // watchpoints etc.: unsupported
      }
      const std::string_view args = rest.substr(2);
      const std::size_t comma = args.find(',');
      const Expected<u64> addr = parse_hex_number(
          comma == std::string_view::npos ? args : args.substr(0, comma));
      if (!addr) return "E01";
      if (p[0] == 'Z') {
        target_.add_breakpoint(static_cast<Addr>(addr.value()));
      } else {
        target_.remove_breakpoint(static_cast<Addr>(addr.value()));
      }
      return "OK";
    }

    case 'k':
      end_ = SessionEnd::kKilled;
      return std::nullopt;  // `k` expects no reply

    case 'D':
      end_ = SessionEnd::kDetached;
      return "OK";

    case 'H':  // set thread for subsequent ops: single-threaded target
    case 'T':  // thread-alive query
      return "OK";

    case 'v': {
      if (p == "vCont?") return "vCont;c;C;s;S";
      if (starts_with(p, "vCont;")) {
        // Single thread: honour the first action, ignore thread suffixes.
        const char action = p.size() > 6 ? p[6] : 'c';
        if (action == 'c' || action == 'C') return run_target(false, {});
        if (action == 's' || action == 'S') return run_target(true, {});
        return std::string{};
      }
      return std::string{};  // vMustReplyEmpty and friends
    }

    case 'q':
      return handle_query(p);

    default:
      return std::string{};  // unsupported packet: standard empty reply
  }
}

std::string RspServer::handle_query(std::string_view p) {
  if (starts_with(p, "qSupported")) {
    return "PacketSize=4096;swbreak+;vContSupported+";
  }
  if (p == "qAttached") return "1";
  if (p == "qC") return "QC0";
  if (p == "qfThreadInfo") return "m0";
  if (p == "qsThreadInfo") return "l";
  if (p == "qOffsets") return "Text=0;Data=0;Bss=0";
  if (starts_with(p, "qSymbol")) return "OK";
  if (starts_with(p, "qRcmd,")) {
    const Expected<std::string> line = from_hex(p.substr(6));
    if (!line) return "E01";
    std::string reply = target_.monitor(line.value());
    if (reply.empty()) return "OK";
    if (reply.back() != '\n') reply.push_back('\n');
    return to_hex(reply);
  }
  return {};
}

}  // namespace mbcosim::rsp
