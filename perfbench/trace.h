#pragma once

// The traced run: each request is re-driven through the layer entry points
// in the stage order of AnalysisSession::compute_payload, with a span
// around every call.  Spans are recorded here, outside the program.

#include <string>
#include <vector>

#include "common.h"
#include "workload.h"

namespace perfbench {

/// Counts gathered at the same boundaries as the spans.
struct TraceTotals {
  SpanRecorder rec;
  double parse_bytes = 0;
  long symbolic_calls = 0, symbolic_usable = 0;
  long verify_calls = 0, verify_certified = 0;
  double c_bytes = 0;
  double simulate_accesses = 0;   ///< accesses traced inside exact.simulate spans
  double dense_stores = 0, sparse_stores = 0;
  double arena_high_water = 0;
  long optimize_calls = 0;
  double optimize_oracle_runs = 0;
  std::vector<double> predicted_vs_measured;  ///< (predicted_mws+1)/(mws_after+1)
  std::vector<double> symbolic_vs_measured;   ///< same for the eq.(2)/closed-form window
};

/// Re-drives `item` (whose untraced session payload is `payload`) under a
/// root span "runtime.run", and checks the traced facts -- mws_exact, the
/// shipped transform, certified -- against the payload.  Returns "" when
/// the facts agree, else the mismatch.
std::string trace_request(const lmre::AnalysisSession& session, const Item& item,
                          const std::string& payload, int request, TraceTotals& t);

}  // namespace perfbench
