// The dtpm serve wire protocol: newline-delimited JSON in both directions.
// One request object per line; every request produces at least one reply
// line, and long-running jobs additionally stream progress lines. Replies
// carry a "reply" discriminator ("ack", "error", "status", "progress",
// "result", "bye") and echo the job id they concern.
//
// Requests:
//   {"op":"submit","job":"r1","run":{...experiment config...}}
//   {"op":"submit","job":"f1","fleet":{...fleet spec...},"smoke":true}
//   {"op":"status"}            server telemetry + queue + live jobs
//   {"op":"status","job":"f1"} one job's state (and fleet progress)
//   {"op":"cancel","job":"f1"}
//   {"op":"shutdown"}          drain queued+running jobs, reply "bye", exit
//
// Error replies reuse the util::diagnostics machinery: an "error" reply has
// a stable S-code plus the full diagnostic list (so an embedded config
// problem arrives with its L-code and "$.fleet..." path, exactly as `dtpm
// lint` would report it).
//
// Protocol codes (stable, documented in README "Serve"):
//   S001  request line is not valid JSON
//   S002  request shape: wrong type, missing/unknown member
//   S003  unknown op (with a did-you-mean suggestion)
//   S004  unknown job id on status/cancel, or duplicate id on submit
//   S005  submit rejected: server is draining for shutdown
//   S006  job execution failed (the result reply's state is "failed")
//   S007  submit rejected: job queue is at capacity (backpressure)
//   S008  request line longer than the server's fixed limit (1 MiB);
//         discarded up to its newline, the session continues
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "serve/fleet.hpp"
#include "sim/config.hpp"
#include "sim/run_result.hpp"
#include "util/diagnostics.hpp"
#include "util/json.hpp"

namespace dtpm::serve {

inline constexpr const char* kCodeSyntax = "S001";
inline constexpr const char* kCodeShape = "S002";
inline constexpr const char* kCodeUnknownOp = "S003";
inline constexpr const char* kCodeUnknownJob = "S004";
inline constexpr const char* kCodeDraining = "S005";
inline constexpr const char* kCodeJobFailed = "S006";
inline constexpr const char* kCodeQueueFull = "S007";
inline constexpr const char* kCodeLineTooLong = "S008";

/// One parsed request line.
struct Request {
  enum class Op { kSubmit, kStatus, kCancel, kShutdown };

  Op op = Op::kStatus;
  std::string job;     ///< job id; "" when the request names none
  bool smoke = false;  ///< submit: cap durations server-side before running

  /// Submit payloads: exactly one is set after a successful parse.
  std::optional<sim::ExperimentConfig> run;
  std::optional<FleetSpec> fleet;
};

/// Parses and validates one request line. On failure reports into `sink`
/// (S-codes for protocol problems; embedded "run"/"fleet" payloads go
/// through the collecting config parsers and the fleet lint pass, so their
/// findings arrive as L-codes with "$.run..."/"$.fleet..." paths) and
/// returns nullopt. A Request is only returned when the sink stayed
/// error-free, and is then safe to execute.
std::optional<Request> parse_request(const std::string& line,
                                     util::DiagnosticSink& sink);

/// Diagnostics as a JSON array of {severity, code, path, message}.
util::JsonValue diagnostics_json(
    const std::vector<util::Diagnostic>& diagnostics);

util::JsonValue make_ack(const std::string& job, std::size_t queue_depth);

/// `code` is the reply-level S-code; `diagnostics`, when non-empty, carries
/// the detailed findings.
util::JsonValue make_error(
    const std::string& code, const std::string& message,
    const std::string& job = "",
    const std::vector<util::Diagnostic>& diagnostics = {});

/// The summary block of a single-run result reply (trace-free: serve never
/// ships traces, which is what keeps it memory-flat).
util::JsonValue run_summary_json(const sim::RunResult& result);

}  // namespace dtpm::serve
