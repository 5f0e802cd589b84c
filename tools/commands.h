#pragma once

// Implementation of the `lmre` command-line tool's subcommands, separated
// from main() so they are unit-testable.  Every command takes parsed inputs
// and writes its report to the given stream.

#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "linalg/mat.h"
#include "runtime/session.h"
#include "support/checked.h"
#include "support/error.h"

namespace lmre::tools {

// Exit codes follow the named ExitCode convention in support/error.h
// (kSuccess/kFailure/kUsage/kDiagnostics/kOverflow = 0/1/2/3/4), shared by
// every subcommand, run_cli, and the batch runtime.  Parse errors surface
// as "file:line:col: error: ..." on the error stream: cmd_view reads the
// position from the session's error payload, and the remaining parsing
// commands let ParseError propagate for run_cli to format.
//
// Every `--json` emitter wraps its payload in the common versioned envelope
// (json_envelope in support/json.h):
//   {"schema_version": 2, "tool": "lmre", "command": ..., "result": ...}

/// Presentation knobs of the session-backed verbs.  Everything that shapes
/// the result lives in the request's own options (AnalysisRequest::Optimize,
/// Verify, Codegen, Mrc), so a verb cannot drift from batch and serve.
struct ViewOptions {
  bool json = false;      ///< print the payload in the JSON envelope
  int threads = 1;        ///< session workers (0 = all cores, 1 = serial)
  std::string emit_file;  ///< codegen --emit=FILE: write the C unit here
};

/// `lmre analyze [--symbolic] | optimize [--objective=SPEC] | verify
/// [--plan[=SPEC]] | codegen [--plan[=SPEC]] [--run] [--cc=PATH]
/// [--emit=FILE] | mrc [--plan[=SPEC]] [--sample-rate=R]
/// [--capacities=LIST]`: runs `req` through one AnalysisSession -- the
/// one code path per request kind -- and renders its payload.
///
///   --json   json_envelope(verb, payload): the result is byte-identical
///            to what `lmre batch` and `lmre serve` embed for the request.
///   text     a view of the same payload.  Lint warnings come first; a
///            lint rejection prints its diagnostics and summary; an error
///            payload prints "file[:line:col]: error: message" on `err`
///            (parse errors carry the position).  The views re-parse the
///            source only to print loop nests.
///
/// The exit code is always the result's status.
ExitCode cmd_view(const AnalysisRequest& req, const ViewOptions& opts,
                  std::ostream& out, std::ostream& err);

/// Options for `lmre lint`, parsed by run_cli.
struct LintCliOptions {
  bool json = false;        ///< emit enveloped JSON diagnostics instead of text
  bool strict = false;      ///< warnings also make the exit code nonzero
  bool audit_plan = false;  ///< --plan: re-certify the plan optimize emits
  std::optional<IntMat> plan;  ///< --plan="a b; c d": explicit plan matrix
};

/// `lmre lint [--json] [--strict] [--plan[=MATRIX]] <file|->`: runs the
/// static verifier (src/lint) and renders its diagnostics.  kSuccess when
/// no errors were found (--strict: no warnings either), kDiagnostics
/// otherwise.
ExitCode cmd_lint(const std::string& source, const LintCliOptions& opts,
                  std::ostream& out, const std::string& file = "<input>");

/// `lmre distances <dsl>`: dependence distance/direction table.
ExitCode cmd_distances(const std::string& source, std::ostream& out);

/// `lmre series <dsl>`: CSV of the window-size time series (ordinal,
/// live-element count) in original order -- for plotting.
ExitCode cmd_series(const std::string& source, std::ostream& out);

/// `lmre figure2`: the paper's main table.
ExitCode cmd_figure2(std::ostream& out, int threads = 1);

/// Options for `lmre batch`, parsed by run_cli.
struct BatchCliOptions {
  bool json = false;         ///< enveloped JSON instead of the text table
  int threads = 1;           ///< corpus fan-out workers (0 = all cores)
  std::string cache_dir;     ///< --cache-dir=D: persistent result cache
  std::string metrics_file;  ///< --metrics=F: write the metrics snapshot here
};

/// `lmre batch <dir|files...> [--json] [--threads=N] [--cache-dir=D]
/// [--metrics=FILE]`: runs the full pipeline (parse, lint, estimate, exact
/// MWS, optimize) over a corpus through an AnalysisSession.  Directories
/// expand to their *.loop files, sorted; output order is the sorted input
/// order at every thread count, and warm-cache re-runs are bit-identical
/// to cold ones (cache state is reported via --metrics, never in the
/// result document).  The exit code is the numerically largest per-file
/// status (so one overflow outranks a lint rejection outranks success).
ExitCode cmd_batch(const std::vector<std::string>& inputs,
                   const BatchCliOptions& opts, std::ostream& out,
                   std::ostream& err);

/// Options for `lmre serve`, parsed by run_cli.
struct ServeCliOptions {
  std::string socket;        ///< Unix-domain socket path ("" with stdio/tcp)
  std::string tcp;           ///< --tcp=HOST:PORT ("" with socket/stdio)
  bool stdio = false;        ///< --stdio: newline-JSON over stdin/stdout
  int workers = 1;           ///< --workers=N: analysis pool size
  size_t queue_depth = 256;  ///< --queue-depth=N: backlog before shedding
  bool coalesce = true;      ///< --no-coalesce disables single-flight
  size_t cache_shards = 8;   ///< --cache-shards=N: result-cache shards
  double cache_ttl = 0;      ///< --cache-ttl=S: result expiry in seconds
  size_t cache_bytes = 0;    ///< --cache-bytes=N: in-memory payload cap
  std::string cache_dir;     ///< --cache-dir=D: persistent result cache
  std::string metrics_file;  ///< --metrics=F: snapshot written on drain
};

/// `lmre serve <socket>|--tcp=HOST:PORT|--stdio [--workers=N]
/// [--queue-depth=N] [--cache-shards=N] [--cache-ttl=S] [--cache-bytes=N]
/// [--cache-dir=D] [--metrics=FILE] [--no-coalesce]`: runs the concurrent
/// analysis server (src/server) until SIGINT/SIGTERM (socket/tcp mode) or
/// stdin EOF (--stdio), then drains gracefully: in-flight requests
/// finish, metrics flush, exit kSuccess.  TCP mode announces the bound
/// address on `out` ("serve: listening on HOST:PORT" -- with --tcp=H:0
/// that is the kernel-assigned port).  `in` feeds the --stdio transport
/// (run_cli passes std::cin).
ExitCode cmd_serve(const ServeCliOptions& opts, std::istream& in,
                   std::ostream& out, std::ostream& err);

/// Options for `lmre request`, parsed by run_cli.
struct RequestCliOptions {
  std::string socket;       ///< Unix-domain socket of a running server
  std::string tcp;          ///< --tcp=HOST:PORT of a running TCP server
  std::string kind = "full";///< --kind=K, any name in kAnalysisKinds
  std::string plan;         ///< --plan=SPEC (verify: "" = audit; codegen/
                            ///< mrc: "" = identity, "auto" = optimizer's)
  std::string objective;    ///< --objective=SPEC (optimize; "" = omit)
  std::optional<double> sample_rate;  ///< --sample-rate=R (mrc; unset = omit)
  std::vector<Int> capacities;  ///< --capacities=LIST (mrc; empty = omit)
  double deadline_ms = 0;   ///< --deadline=MS (0 = none)
  std::string id;           ///< --id=S (defaults to the file name)
  bool raw = false;         ///< --raw: print only the result payload
};

/// `lmre request <socket>|--tcp=HOST:PORT <file|-> [--kind=K]
/// [--deadline=MS] [--id=S] [--raw]`: one-shot client -- sends `source`
/// to a running server (Unix socket or TCP) and prints the response line
/// (--raw: just the embedded result payload, byte-identical to what
/// `lmre batch` embeds).  The exit code follows the wire status: 0-4 map
/// to ExitCode directly, overloaded/timeout exit kFailure, bad_request
/// exits kUsage.
ExitCode cmd_request(const std::string& source, const std::string& file,
                     const RequestCliOptions& opts, std::ostream& out,
                     std::ostream& err);

/// `lmre version` / `lmre --version`: tool identity -- JSON schema version
/// and build info (compiler, C++ standard).  --json wraps it in the
/// standard envelope.
ExitCode cmd_version(bool json, std::ostream& out);

/// Usage text for the dispatcher.
std::string usage();

/// Dispatcher used by main(): argv-style interface.
ExitCode run_cli(const std::vector<std::string>& args, std::ostream& out,
                 std::ostream& err);

}  // namespace lmre::tools
