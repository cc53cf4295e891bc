// JSON front-end for MachineDesc, built on the shared integer-only
// parser in common/json (one grammar for machine files and the
// simulation server's protocol). This file owns only the schema
// mapping: common::json::Value -> MachineDesc with per-field
// diagnostics under the stable kDescErrorCodes convention.
#include <fstream>
#include <sstream>
#include <string>
#include <utility>

#include "common/json.hpp"
#include "machine/machine_desc.hpp"

namespace mbcosim::machine {

namespace {

using common::json::get_bool;
using common::json::get_int;
using common::json::get_string;
using common::json::get_unsigned;
using common::json::Value;

std::string where(const std::string& context) {
  return context.empty() ? std::string() : " in " + context;
}

std::string read_core(const common::json::Object& object, CoreDesc& core) {
  std::string err = get_string(object, "name", "core", true, core.name);
  if (!err.empty()) return err;
  const std::string context = "core '" + core.name + "'";
  if (err = get_string(object, "program", context, false, core.program);
      !err.empty()) {
    return err;
  }
  if (err = get_string(object, "program_file", context, false,
                       core.program_file);
      !err.empty()) {
    return err;
  }
  long long memory = static_cast<long long>(core.memory_bytes);
  if (err = get_int(object, "memory_bytes", context, false, memory);
      !err.empty()) {
    return err;
  }
  if (memory <= 0) {
    return "[bad-memory] " + context + ": memory_bytes must be positive";
  }
  core.memory_bytes = static_cast<std::size_t>(memory);
  if (err = get_bool(object, "barrel_shifter", context,
                     core.has_barrel_shifter);
      !err.empty()) {
    return err;
  }
  if (err = get_bool(object, "multiplier", context, core.has_multiplier);
      !err.empty()) {
    return err;
  }
  if (err = get_bool(object, "divider", context, core.has_divider);
      !err.empty()) {
    return err;
  }
  std::string tier_name;
  if (err = get_string(object, "exec_tier", context, false, tier_name);
      !err.empty()) {
    return err;
  }
  if (!tier_name.empty()) {
    const auto tier = iss::parse_exec_tier(tier_name);
    if (!tier) {
      return "[bad-exec-tier] " + context + ": exec_tier '" + tier_name +
             "' is not one of precise/predecode/dbt";
    }
    core.exec_tier = *tier;
  }
  return {};
}

std::string read_link(const common::json::Object& object, LinkDesc& link) {
  std::string err = get_string(object, "from", "link", true, link.from);
  if (!err.empty()) return err;
  if (err = get_string(object, "to", "link", true, link.to); !err.empty()) {
    return err;
  }
  const std::string context = "link " + link.from + " -> " + link.to;
  if (err = get_unsigned(object, "from_channel", context, true, 0,
                         link.from_channel);
      !err.empty()) {
    return err;
  }
  return get_unsigned(object, "to_channel", context, true, 0, link.to_channel);
}

std::string read_peripheral(const common::json::Object& object,
                            PeripheralDesc& p) {
  std::string err = get_string(object, "core", "peripheral", true, p.core);
  if (!err.empty()) return err;
  if (err = get_string(object, "type", "peripheral", true, p.type);
      !err.empty()) {
    return err;
  }
  const std::string context = "peripheral '" + p.type + "' on '" + p.core + "'";
  if (err = get_unsigned(object, "channel", context, false, 0, p.channel);
      !err.empty()) {
    return err;
  }
  // Every other integer key is a type-specific parameter forwarded to
  // the peripheral factory ("num_pes", "block_size", ...).
  for (const auto& [key, value] : object) {
    if (key == "core" || key == "type" || key == "channel") continue;
    if (!value.is_int()) {
      return "[bad-field] parameter '" + key + "' must be an integer" +
             where(context);
    }
    p.params[key] = value.integer();
  }
  return {};
}

Expected<MachineDesc> build_desc(const Value& root) {
  using Result = Expected<MachineDesc>;
  if (!root.is_object()) {
    return Result::failure(
        "[bad-field] machine description must be a JSON object");
  }
  const auto& top = root.object();

  MachineDesc desc;
  long long quantum = static_cast<long long>(desc.quantum);
  if (std::string err = get_int(top, "quantum", "machine", false, quantum);
      !err.empty()) {
    return Result::failure(err);
  }
  if (quantum <= 0) {
    return Result::failure(
        "[bad-quantum] synchronization quantum must be at least 1 cycle");
  }
  desc.quantum = static_cast<Cycle>(quantum);

  long long depth = static_cast<long long>(desc.fifo_depth);
  if (std::string err = get_int(top, "fifo_depth", "machine", false, depth);
      !err.empty()) {
    return Result::failure(err);
  }
  if (depth <= 0) {
    return Result::failure("[bad-fifo-depth] FSL FIFO depth must be >= 1");
  }
  desc.fifo_depth = static_cast<std::size_t>(depth);

  const auto cores_it = top.find("cores");
  if (cores_it == top.end()) {
    return Result::failure("[missing-field] required key 'cores' in machine");
  }
  if (!cores_it->second.is_array()) {
    return Result::failure("[bad-field] 'cores' must be an array");
  }
  for (const Value& entry : cores_it->second.array()) {
    if (!entry.is_object()) {
      return Result::failure("[bad-field] each core must be an object");
    }
    CoreDesc core;
    if (std::string err = read_core(entry.object(), core); !err.empty()) {
      return Result::failure(err);
    }
    desc.cores.push_back(std::move(core));
  }

  if (const auto it = top.find("links"); it != top.end()) {
    if (!it->second.is_array()) {
      return Result::failure("[bad-field] 'links' must be an array");
    }
    for (const Value& entry : it->second.array()) {
      if (!entry.is_object()) {
        return Result::failure("[bad-field] each link must be an object");
      }
      LinkDesc link;
      if (std::string err = read_link(entry.object(), link); !err.empty()) {
        return Result::failure(err);
      }
      desc.links.push_back(std::move(link));
    }
  }

  if (const auto it = top.find("peripherals"); it != top.end()) {
    if (!it->second.is_array()) {
      return Result::failure("[bad-field] 'peripherals' must be an array");
    }
    for (const Value& entry : it->second.array()) {
      if (!entry.is_object()) {
        return Result::failure("[bad-field] each peripheral must be an object");
      }
      PeripheralDesc p;
      if (std::string err = read_peripheral(entry.object(), p); !err.empty()) {
        return Result::failure(err);
      }
      desc.peripherals.push_back(std::move(p));
    }
  }

  if (Status status = desc.validate(); !status.ok) {
    return Result::failure(status.message);
  }
  return desc;
}

}  // namespace

Expected<MachineDesc> MachineDesc::from_value(const common::json::Value& root) {
  return build_desc(root);
}

Expected<MachineDesc> MachineDesc::from_json(const std::string& text) {
  Expected<Value> root = common::json::parse(text);
  if (!root) {
    return Expected<MachineDesc>::failure(root.error());
  }
  return build_desc(root.value());
}

Expected<MachineDesc> MachineDesc::from_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Expected<MachineDesc>::failure(
        "[file-io] cannot open machine file '" + path + "'");
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  Expected<MachineDesc> parsed = from_json(buffer.str());
  if (!parsed) {
    return Expected<MachineDesc>::failure(parsed.error() + " (in '" + path +
                                          "')");
  }
  MachineDesc desc = std::move(parsed).value();
  // Program files named relative to the machine file, as a description
  // naturally writes them, resolve against its directory.
  const std::size_t slash = path.find_last_of('/');
  const std::string dir =
      slash == std::string::npos ? std::string() : path.substr(0, slash + 1);
  if (!dir.empty()) {
    for (CoreDesc& core : desc.cores) {
      if (!core.program_file.empty() && core.program_file.front() != '/') {
        core.program_file = dir + core.program_file;
      }
    }
  }
  return desc;
}

}  // namespace mbcosim::machine
