// Per-layer probes for the traced run.  Each one times calls into one
// layer's public functions on the workload's own model, so a layer that the
// workload's facade call bypasses still gets a number measured on that
// workload's input.  A layer that the call does run is timed by the traced
// replays instead, never here: the probes reuse the model, compiled view and
// compiled CSP that the cold replay built, and time only the rest.
#pragma once

#include <map>
#include <string>

#include "trace.hpp"
#include "workloads.hpp"

namespace e2ebench {

using Metrics = std::map<std::string, double>;

/// `cold` is the traced replay of call 0, with the objects it built.
///
/// MRF workloads (cold.model set): chains.* kernels, steps, engine
/// round-trip, a replica batch and the coupling stopping decision that
/// stop = coupling would make; local.* arena and sharded rounds; csp.build,
/// csp.compile and csp.step on the csp-batch graph of the same seed.
///
/// The CSP workload (cold.compiled_csp set): mrf.* and chains.* on the
/// hardcore model of its first graph (ProbeModel), local.* on that model,
/// and csp.step on the cold replay's compiled CSP.
void probe_layers(const Workload& w, const Output& cold, Tracer& tr,
                  Metrics& out);

}  // namespace e2ebench
