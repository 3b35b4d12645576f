// The daemon's dynamic-graph ops: mutate / commit / reanonymize over named
// DynamicSession instances (DESIGN.md §15).
//
// A dynamic session is server-side state — unlike every other op, these
// are not stateless request→response pairs, so the three ops share a
// DynamicState (the session registry + the PlanCache) owned by the Server
// and threaded through the Run* functions the same way the GraphCache is.
// ksym_client drives them as plain wire lines:
//
//   {"op":"mutate","session":"g","input":"base.ksymcsr",
//    "edits":"add 1 3;del 0 2"}        <- first mutate names the base graph
//   {"op":"mutate","session":"g","edits":"add 2 5"}   <- stages more
//   {"op":"commit","session":"g"}
//   {"op":"reanonymize","session":"g","k":"3","output":"epoch1.ksymcsr"}
//
// Edits travel as one ';'-separated scalar string (dyn/edits.h) because
// the wire format is flat scalars only. Responses follow the api.h
// report/log split: deterministic facts (edit counts, checksums, cache
// verdicts) in `report`, timings in `log`.

#ifndef KSYM_SERVE_DYNAMIC_H_
#define KSYM_SERVE_DYNAMIC_H_

#include <cstdint>
#include <memory>
#include <string>

#include "common/status.h"
#include "dyn/session.h"
#include "serve/api.h"
#include "serve/cache.h"
#include "serve/wire.h"

namespace ksym {
namespace serve {

/// Shared state behind the dynamic ops: the named-session registry (which
/// owns the PlanCache). The Server holds one; the CLIs build their own.
struct DynamicState {
  explicit DynamicState(size_t plan_cache_bytes)
      : registry(plan_cache_bytes) {}

  dyn::DynamicRegistry registry;
};

/// Stages edits into a session; `input` (required on the first mutate for
/// a name, forbidden afterwards) creates the session from a graph file.
struct MutateRequest {
  std::string session;
  std::string input;          // Base graph path (creation only).
  std::string edits;          // ';'-separated add/del items; may be empty
                              // on the creating mutate.
  double compact_ratio = 0.25;  // Creation only: overlay compact trigger;
                                // must be finite.
};

struct CommitRequest {
  std::string session;
};

struct ReanonymizeRequest {
  std::string session;
  std::string output;  // Optional: write the release (binary .ksymcsr
                       // when `binary`, else the text triple).
  uint32_t k = 2;
  bool binary = false;
  uint32_t threads = 1;
};

Result<Response> RunMutate(const MutateRequest& request, DynamicState* state,
                           GraphCache* cache = nullptr);
Result<Response> RunCommit(const CommitRequest& request, DynamicState* state);
Result<Response> RunReanonymize(const ReanonymizeRequest& request,
                                DynamicState* state);

Result<MutateRequest> MutateRequestFromWire(const WireObject& object);
Result<CommitRequest> CommitRequestFromWire(const WireObject& object);
Result<ReanonymizeRequest> ReanonymizeRequestFromWire(
    const WireObject& object);

}  // namespace serve
}  // namespace ksym

#endif  // KSYM_SERVE_DYNAMIC_H_
