#include "machine/machine_desc.hpp"

#include <algorithm>
#include <set>
#include <utility>

namespace mbcosim::machine {

namespace {

constexpr unsigned kFslChannels = 8;  // fsl::FslHub::kChannels

bool valid_name(const std::string& name) {
  if (name.empty()) return false;
  return std::all_of(name.begin(), name.end(), [](unsigned char c) {
    return std::isalnum(c) != 0 || c == '_';
  });
}

/// JSON string literal with the same minimal escaping the JSONL sink
/// uses; names are validated to a safe alphabet but program text may
/// carry quotes, backslashes and newlines.
std::string quoted(const std::string& text) {
  std::string out;
  out.reserve(text.size() + 2);
  out += '"';
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default: out += c; break;
    }
  }
  out += '"';
  return out;
}

}  // namespace

MachineDesc MachineDesc::single_core(std::string program) {
  MachineDesc desc;
  CoreDesc core;
  core.name = "cpu0";
  core.program = std::move(program);
  desc.cores.push_back(std::move(core));
  return desc;
}

MachineDesc MachineDesc::replicated(std::size_t count, CoreDesc core_template) {
  MachineDesc desc;
  const std::string stem =
      core_template.name.empty() ? std::string("cpu") : core_template.name;
  desc.cores.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    CoreDesc core = core_template;
    core.name = stem + std::to_string(i);
    desc.cores.push_back(std::move(core));
  }
  return desc;
}

std::size_t MachineDesc::core_index(const std::string& name) const {
  for (std::size_t i = 0; i < cores.size(); ++i) {
    if (cores[i].name == name) return i;
  }
  return cores.size();
}

const CoreDesc* MachineDesc::find_core(const std::string& name) const {
  const std::size_t index = core_index(name);
  return index < cores.size() ? &cores[index] : nullptr;
}

Status MachineDesc::validate() const {
  if (cores.empty()) {
    return Status::failure("[no-cores] machine defines no cores");
  }
  if (quantum == 0) {
    return Status::failure(
        "[bad-quantum] synchronization quantum must be at least 1 cycle");
  }
  if (fifo_depth == 0) {
    return Status::failure("[bad-fifo-depth] FSL FIFO depth must be >= 1");
  }

  std::set<std::string> names;
  for (const CoreDesc& core : cores) {
    if (!valid_name(core.name)) {
      return Status::failure("[bad-core-name] core name '" + core.name +
                             "' must be non-empty [A-Za-z0-9_]+");
    }
    if (!names.insert(core.name).second) {
      return Status::failure("[duplicate-core] core name '" + core.name +
                             "' is declared twice");
    }
    if (core.program.empty() && core.program_file.empty()) {
      return Status::failure("[no-program] core '" + core.name +
                             "' has neither 'program' nor 'program_file'");
    }
    if (!core.program.empty() && !core.program_file.empty()) {
      return Status::failure("[program-conflict] core '" + core.name +
                             "' sets both 'program' and 'program_file'");
    }
    if (core.memory_bytes == 0 || core.memory_bytes % 4 != 0) {
      return Status::failure("[bad-memory] core '" + core.name +
                             "': memory_bytes must be a positive multiple "
                             "of 4, got " +
                             std::to_string(core.memory_bytes));
    }
  }

  // Channel graph: every (core, direction, channel) endpoint may have at
  // most one occupant. A peripheral occupies both directions of its
  // channel; a link occupies the writer's to_hw side and the reader's
  // from_hw side.
  std::set<std::pair<std::string, unsigned>> to_hw_taken;
  std::set<std::pair<std::string, unsigned>> from_hw_taken;
  for (const PeripheralDesc& p : peripherals) {
    if (find_core(p.core) == nullptr) {
      return Status::failure("[unknown-core] peripheral '" + p.type +
                             "' placed on undeclared core '" + p.core + "'");
    }
    if (p.channel >= kFslChannels) {
      return Status::failure(
          "[channel-range] peripheral '" + p.type + "' on core '" + p.core +
          "': channel " + std::to_string(p.channel) + " exceeds " +
          std::to_string(kFslChannels - 1));
    }
    if (!to_hw_taken.insert({p.core, p.channel}).second ||
        !from_hw_taken.insert({p.core, p.channel}).second) {
      return Status::failure("[channel-conflict] core '" + p.core +
                             "' channel " + std::to_string(p.channel) +
                             " is claimed by more than one peripheral");
    }
  }
  for (const LinkDesc& link : links) {
    if (find_core(link.from) == nullptr) {
      return Status::failure("[unknown-core] link source '" + link.from +
                             "' is not a declared core");
    }
    if (find_core(link.to) == nullptr) {
      return Status::failure("[unknown-core] link target '" + link.to +
                             "' is not a declared core");
    }
    if (link.from_channel >= kFslChannels || link.to_channel >= kFslChannels) {
      return Status::failure(
          "[channel-range] link " + link.from + ":" +
          std::to_string(link.from_channel) + " -> " + link.to + ":" +
          std::to_string(link.to_channel) + ": channels must be 0.." +
          std::to_string(kFslChannels - 1));
    }
    if (link.from == link.to) {
      return Status::failure("[self-link] core '" + link.from +
                             "' may not link to itself");
    }
    if (!to_hw_taken.insert({link.from, link.from_channel}).second) {
      return Status::failure(
          "[link-conflict] output channel " + link.from + ":" +
          std::to_string(link.from_channel) +
          " already feeds another link or peripheral");
    }
    if (!from_hw_taken.insert({link.to, link.to_channel}).second) {
      return Status::failure(
          "[link-conflict] input channel " + link.to + ":" +
          std::to_string(link.to_channel) +
          " is already fed by another link or peripheral");
    }
  }
  return {};
}

std::string MachineDesc::to_json() const {
  std::string out = "{\n";
  out += "  \"quantum\": " + std::to_string(quantum) + ",\n";
  out += "  \"fifo_depth\": " + std::to_string(fifo_depth) + ",\n";
  out += "  \"cores\": [";
  for (std::size_t i = 0; i < cores.size(); ++i) {
    const CoreDesc& core = cores[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    {\"name\": " + quoted(core.name);
    if (!core.program_file.empty()) {
      out += ", \"program_file\": " + quoted(core.program_file);
    } else {
      out += ", \"program\": " + quoted(core.program);
    }
    out += ", \"memory_bytes\": " + std::to_string(core.memory_bytes);
    out += ", \"barrel_shifter\": ";
    out += core.has_barrel_shifter ? "true" : "false";
    out += ", \"multiplier\": ";
    out += core.has_multiplier ? "true" : "false";
    out += ", \"divider\": ";
    out += core.has_divider ? "true" : "false";
    out += ", \"exec_tier\": ";
    out += quoted(iss::to_string(core.exec_tier));
    out += "}";
  }
  out += cores.empty() ? "],\n" : "\n  ],\n";
  out += "  \"links\": [";
  for (std::size_t i = 0; i < links.size(); ++i) {
    const LinkDesc& link = links[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    {\"from\": " + quoted(link.from) +
           ", \"from_channel\": " + std::to_string(link.from_channel) +
           ", \"to\": " + quoted(link.to) +
           ", \"to_channel\": " + std::to_string(link.to_channel) + "}";
  }
  out += links.empty() ? "],\n" : "\n  ],\n";
  out += "  \"peripherals\": [";
  for (std::size_t i = 0; i < peripherals.size(); ++i) {
    const PeripheralDesc& p = peripherals[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    {\"core\": " + quoted(p.core) + ", \"type\": " +
           quoted(p.type) + ", \"channel\": " + std::to_string(p.channel);
    for (const auto& [key, value] : p.params) {
      out += ", " + quoted(key) + ": " + std::to_string(value);
    }
    out += "}";
  }
  out += peripherals.empty() ? "]\n" : "\n  ]\n";
  out += "}\n";
  return out;
}

}  // namespace mbcosim::machine
