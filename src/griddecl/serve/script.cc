#include "griddecl/serve/script.h"

#include <cstdlib>
#include <utility>

namespace griddecl::serve {

namespace {

/// Parses a comma-separated number list ("0.1,0.2") into `*out`.
Status ParseNumberList(const ScriptLine& line, const std::string& list,
                       std::vector<double>* out) {
  size_t pos = 0;
  while (pos <= list.size()) {
    size_t comma = list.find(',', pos);
    if (comma == std::string::npos) comma = list.size();
    const std::string piece = list.substr(pos, comma - pos);
    char* end = nullptr;
    const double v = std::strtod(piece.c_str(), &end);
    if (piece.empty() || end != piece.c_str() + piece.size()) {
      return ScriptError(line, "bad number '" + piece + "'");
    }
    out->push_back(v);
    pos = comma + 1;
  }
  return Status::Ok();
}

}  // namespace

std::vector<ScriptLine> SplitScript(std::string_view text) {
  std::vector<ScriptLine> lines;
  size_t number = 0;
  size_t pos = 0;
  while (pos <= text.size()) {
    size_t eol = text.find('\n', pos);
    if (eol == std::string_view::npos) eol = text.size();
    std::string_view line = text.substr(pos, eol - pos);
    pos = eol + 1;
    ++number;
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    ScriptLine out;
    out.number = number;
    size_t i = 0;
    while (i < line.size()) {
      while (i < line.size() && (line[i] == ' ' || line[i] == '\t')) ++i;
      const size_t start = i;
      while (i < line.size() && line[i] != ' ' && line[i] != '\t') ++i;
      if (i > start) out.tokens.emplace_back(line.substr(start, i - start));
    }
    if (out.tokens.empty() || out.tokens[0][0] == '#') continue;
    lines.push_back(std::move(out));
  }
  return lines;
}

Status ScriptError(const ScriptLine& line, const std::string& what) {
  return Status::InvalidArgument("line " + std::to_string(line.number) +
                                 ": " + what);
}

Status ParseScriptNumber(const ScriptLine& line, size_t index,
                         const char* what, bool positive, double* out) {
  const std::string& token = line.tokens[index];
  char* end = nullptr;
  *out = std::strtod(token.c_str(), &end);
  if (end != token.c_str() + token.size() ||
      !(positive ? *out > 0.0 : *out >= 0.0)) {
    return ScriptError(line, std::string("bad ") + what + " '" + token + "'");
  }
  return Status::Ok();
}

Result<QueryRequest> ParseQueryLine(const ScriptLine& line) {
  const std::vector<std::string>& tokens = line.tokens;
  if (tokens.size() < 4 || tokens.size() > 5) {
    return ScriptError(
        line, "expected 'query <relation> <lo,..> <hi,..> [deadline_ms]'");
  }
  QueryRequest req;
  req.relation = tokens[1];
  GRIDDECL_RETURN_IF_ERROR(ParseNumberList(line, tokens[2], &req.lo));
  GRIDDECL_RETURN_IF_ERROR(ParseNumberList(line, tokens[3], &req.hi));
  if (req.lo.size() != req.hi.size()) {
    return ScriptError(line, "lo has " + std::to_string(req.lo.size()) +
                                 " attributes but hi has " +
                                 std::to_string(req.hi.size()));
  }
  if (tokens.size() == 5) {
    GRIDDECL_RETURN_IF_ERROR(ParseScriptNumber(
        line, 4, "deadline", /*positive=*/true, &req.deadline_ms));
  }
  return req;
}

Result<std::vector<QueryRequest>> ParseServeScript(std::string_view text) {
  std::vector<QueryRequest> requests;
  for (const ScriptLine& line : SplitScript(text)) {
    if (line.tokens[0] != "query") {
      return ScriptError(line, "unknown directive '" + line.tokens[0] +
                                   "' (expected 'query')");
    }
    auto req = ParseQueryLine(line);
    if (!req.ok()) return req.status();
    requests.push_back(std::move(req).value());
  }
  return requests;
}

}  // namespace griddecl::serve
