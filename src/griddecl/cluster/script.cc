#include "griddecl/cluster/script.h"

#include <cstdlib>
#include <utility>

#include "griddecl/serve/script.h"

namespace griddecl::cluster {

namespace {

using Kind = ClusterCommand::Kind;

/// One control directive: its name, kind, argument-count range, and the
/// usage line its arity errors quote.
struct Directive {
  const char* name;
  Kind kind;
  size_t min_args;
  size_t max_args;
  const char* usage;
};

constexpr Directive kDirectives[] = {
    {"kill-node", Kind::kKillNode, 1, 1, "kill-node <node>"},
    {"revive-node", Kind::kReviveNode, 1, 1, "revive-node <node>"},
    {"kill-zone", Kind::kKillZone, 1, 1, "kill-zone <zone>"},
    {"revive-zone", Kind::kReviveZone, 1, 1, "revive-zone <zone>"},
    {"advance-ms", Kind::kAdvance, 1, 1, "advance-ms <ms>"},
    {"migrate", Kind::kMigrate, 2, 2, "migrate <method> <num_disks>"},
    {"repair", Kind::kRepair, 0, 1, "repair [bytes_per_sec]"},
    {"add-node", Kind::kAddNode, 2, 2, "add-node <rack> <zone>"},
    {"remove-node", Kind::kRemoveNode, 1, 1, "remove-node <node>"},
};

Status ParseU32(const serve::ScriptLine& line, size_t index, const char* what,
                uint32_t* out) {
  const std::string& token = line.tokens[index];
  char* end = nullptr;
  const unsigned long v = std::strtoul(token.c_str(), &end, 10);
  if (token.empty() || end != token.c_str() + token.size() ||
      v > 0xffffffffUL) {
    return serve::ScriptError(
        line, std::string("bad ") + what + " '" + token + "'");
  }
  *out = static_cast<uint32_t>(v);
  return Status::Ok();
}

/// Fills `cmd` from a control directive line whose arity is checked.
Status ParseArgs(const serve::ScriptLine& line, ClusterCommand* cmd) {
  switch (cmd->kind) {
    case Kind::kKillNode:
    case Kind::kReviveNode:
    case Kind::kRemoveNode:
      return ParseU32(line, 1, "node", &cmd->node);
    case Kind::kKillZone:
    case Kind::kReviveZone:
      return ParseU32(line, 1, "zone", &cmd->zone);
    case Kind::kAdvance:
      return serve::ParseScriptNumber(line, 1, "time", /*positive=*/false,
                                      &cmd->advance_ms);
    case Kind::kMigrate:
      cmd->migrate_method = line.tokens[1];
      return ParseU32(line, 2, "disk count", &cmd->migrate_disks);
    case Kind::kRepair:
      if (line.tokens.size() == 1) return Status::Ok();
      return serve::ParseScriptNumber(line, 1, "rate", /*positive=*/false,
                                      &cmd->repair_bytes_per_sec);
    case Kind::kAddNode:
      GRIDDECL_RETURN_IF_ERROR(ParseU32(line, 1, "rack", &cmd->add_rack));
      return ParseU32(line, 2, "zone", &cmd->add_zone);
    case Kind::kQuery:
      break;
  }
  return Status::Ok();
}

}  // namespace

Result<std::vector<ClusterCommand>> ParseClusterScript(std::string_view text) {
  std::vector<ClusterCommand> commands;
  for (const serve::ScriptLine& line : serve::SplitScript(text)) {
    const std::string& name = line.tokens[0];
    ClusterCommand cmd;
    if (name == "query") {
      auto query = serve::ParseQueryLine(line);
      if (!query.ok()) return query.status();
      cmd.query = std::move(query).value();
      commands.push_back(std::move(cmd));
      continue;
    }
    const Directive* directive = nullptr;
    for (const Directive& d : kDirectives) {
      if (name == d.name) directive = &d;
    }
    if (directive == nullptr) {
      return serve::ScriptError(line, "unknown directive '" + name + "'");
    }
    const size_t args = line.tokens.size() - 1;
    if (args < directive->min_args || args > directive->max_args) {
      return serve::ScriptError(
          line, std::string("expected '") + directive->usage + "'");
    }
    cmd.kind = directive->kind;
    GRIDDECL_RETURN_IF_ERROR(ParseArgs(line, &cmd));
    commands.push_back(std::move(cmd));
  }
  return commands;
}

}  // namespace griddecl::cluster
