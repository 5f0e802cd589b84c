#pragma once

// Output checks.  Every mismatch is one failed request.

#include <optional>
#include <string>

#include "common.h"
#include "server/wire.h"
#include "workload.h"

namespace perfbench {

/// Compact re-serialisation of a parsed JSON value with object keys
/// sorted and numbers kept verbatim, so a pretty-printed golden and a
/// compact payload compare byte for byte.
std::string canonical(const lmre::WireValue& v);

/// `s` as a JSON string literal.
std::string json_quote(const std::string& s);

/// Parses a payload; nullopt when it is not JSON.
std::optional<lmre::WireValue> parse_json(const std::string& text);

/// Shape and status check of one computed result: the payload parses,
/// names the request's kind, carries no error object, holds the kind's
/// section, and the status is one the kind may return for a good input
/// (0, or 3 for a symbolic decline / an uncertified verify verdict).
/// Returns "" when fine, else the reason.
std::string check_result(const Item& item, const lmre::AnalysisResult& res);

/// Deep check against the reference (hash-map) oracle: mws_exact and
/// distinct_exact of analyze/full payloads, mws_before/mws_after of
/// optimize payloads.  "" when fine or when the payload has no exact
/// section to compare.
std::string check_reference(const Item& item, const lmre::AnalysisResult& res);

/// Verify payloads: re-derives the verdict for the certificate's plan,
/// runs the independent certificate checker on it, and requires the
/// payload's certificate to equal the re-derived one.
std::string check_certificate_payload(const Item& item, const lmre::AnalysisResult& res);

/// Runs the golden requests (batch_loops.json for `full`; the symbolic,
/// verify, mrc and codegen goldens of examples 6, 8 and 10) through a
/// fresh session and compares payloads.  Each golden request is one
/// attempted operation in `rep`.  With `corrupt`, one payload byte is
/// flipped before comparing, to prove the checker rejects it.
void check_goldens(const std::string& root, bool corrupt, Report& rep);

}  // namespace perfbench
