#ifndef GRIDDECL_SERVE_SCRIPT_H_
#define GRIDDECL_SERVE_SCRIPT_H_

#include <string>
#include <string_view>
#include <vector>

#include "griddecl/common/status.h"
#include "griddecl/serve/service.h"

/// \file
/// Text format for driving `declctl serve` with a batch of range queries.
///
/// One query per line:
///
///     query <relation> <lo1,lo2,...> <hi1,hi2,...> [deadline_ms]
///
/// `lo`/`hi` are comma-separated per-attribute bounds (no spaces inside a
/// list); the optional trailing number is a per-query deadline in
/// milliseconds. Blank lines and lines starting with `#` are skipped.
///
///     # two-attribute relation, 50 ms deadline on the second query
///     query uniform 0.1,0.2 0.4,0.9
///     query uniform 0.0,0.0 1.0,1.0 50
///
/// The tokenizer, the number parser and the query-line parser are shared
/// with the cluster script (cluster/script.h), which adds control
/// directives around the same `query` lines.

namespace griddecl::serve {

/// One directive line of a script, split on spaces and tabs.
struct ScriptLine {
  /// 1-based line number, for error messages.
  size_t number = 0;
  /// Never empty; tokens[0] is the directive name.
  std::vector<std::string> tokens;
};

/// The directive lines of `text`, in order: a trailing '\r' is dropped,
/// and blank lines and lines starting with `#` are skipped.
std::vector<ScriptLine> SplitScript(std::string_view text);

/// kInvalidArgument "line N: <what>".
Status ScriptError(const ScriptLine& line, const std::string& what);

/// Parses token `index` of `line` into `*out` as a number that must be
/// > 0 when `positive`, else >= 0; otherwise fails with
/// "line N: bad <what> '<token>'".
Status ParseScriptNumber(const ScriptLine& line, size_t index,
                         const char* what, bool positive, double* out);

/// Parses `query <relation> <lo,..> <hi,..> [deadline_ms]`.
Result<QueryRequest> ParseQueryLine(const ScriptLine& line);

/// Parses a serve script into requests, in file order. Fails with
/// kInvalidArgument naming the offending line on any malformed input.
Result<std::vector<QueryRequest>> ParseServeScript(std::string_view text);

}  // namespace griddecl::serve

#endif  // GRIDDECL_SERVE_SCRIPT_H_
