// The benchmark's three workloads.  Every input (graphs and per-call seeds) is
// a pure function of the workload seed and the call index, generated outside
// the timed calls; the library receives only the generated inputs.
//
//   dense-coloring   random 30-regular n=900, q=108, sample_coloring,
//                    LocalMetropolis, theory budget, chain backend
//   sparse-hardcore  torus 316x316, lambda=0.3, sample_hardcore,
//                    LubyGlauber, theory budget
//   csp-batch        a fresh random 6-regular n=4000 graph per call,
//                    dominating-set CSP (lambda=0.5, all-chosen x0),
//                    sample_many_csp, LocalMetropolis, 4 replicas,
//                    rounds=512, stop=auto
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/sampler.hpp"
#include "csp/compiled.hpp"
#include "graph/graph.hpp"
#include "local/message_stats.hpp"
#include "mrf/compiled.hpp"
#include "mrf/mrf.hpp"
#include "trace.hpp"

namespace e2ebench {

/// Threads every facade call uses (the box has 4 cores).
inline constexpr int kThreads = 4;

/// What one facade call returned, reduced to what the benchmark checks.
struct Output {
  std::vector<std::vector<int>> configs;  ///< one per sample
  std::int64_t rounds_used = 0;
  std::int64_t budget_rounds = 0;
  lsample::local::MessageStats messages;
  bool library_feasible = true;  ///< the library's own feasibility verdict

  // Replay only: the heap growth across the model build, and the layer
  // objects the call built, so the per-layer probes run on them instead of
  // building them again.
  double model_mb = 0.0;
  std::shared_ptr<const lsample::mrf::Mrf> model;
  std::shared_ptr<const lsample::mrf::CompiledMrf> compiled;
  std::shared_ptr<const lsample::csp::CompiledFactorGraph> compiled_csp;
};

/// The model the per-layer probes run on: the workload's own MRF, or, for
/// the CSP workload, the hardcore model on its first graph.
struct ProbeModel {
  lsample::graph::GraphPtr g;
  int q = 2;            ///< proper colorings when > 2 ...
  double lambda = 0.0;  ///< ... hardcore when q == 2
  lsample::core::Algorithm algorithm = lsample::core::Algorithm::luby_glauber;
  std::int64_t budget_rounds = 0;
  std::uint64_t seed = 1;

  [[nodiscard]] lsample::mrf::Mrf build() const;
};

class Workload {
 public:
  virtual ~Workload() = default;

  [[nodiscard]] virtual int samples_per_call() const { return 1; }

  /// Generates input i (a no-op for workloads with one fixed input).  Call
  /// it before timing call(i) or replay(i), so input generation stays out
  /// of the timed call.
  virtual void prepare(int /*i*/) const {}

  /// One facade call on input i: exactly what a user pays for a sample.
  [[nodiscard]] virtual Output call(int i, int threads) const = 0;

  /// The same work as call(i, kThreads), made through each layer's public
  /// functions with one span per layer call.  Bit-identical to call().
  [[nodiscard]] virtual Output replay(int i, Tracer& tr) const = 0;

  /// Checks every sample without the library: a proper coloring, an
  /// independent set, or a dominating set of input i's graph.
  [[nodiscard]] virtual bool valid(int i, const Output& out) const = 0;

  /// The MRF the layer probes run on.
  [[nodiscard]] virtual ProbeModel probe_model() const = 0;
  /// The graph the CSP layer probes build a dominating-set CSP on.
  [[nodiscard]] virtual lsample::graph::GraphPtr csp_probe_graph() const = 0;

  /// Whether the facade call compiles a CompiledMrf (the layer the
  /// sensitivity self-test slows down).
  [[nodiscard]] virtual bool compiles_mrf() const { return true; }
};

/// Builds workload `name`; throws std::invalid_argument on an unknown name.
[[nodiscard]] std::unique_ptr<Workload> make_workload(const std::string& name,
                                                      std::uint64_t seed);

/// Seed of call i, derived from the workload seed.
[[nodiscard]] std::uint64_t call_seed(std::uint64_t seed, int i);

/// FNV-1a over a configuration.
[[nodiscard]] std::uint64_t config_hash(const std::vector<int>& x);

/// The process's peak resident set (VmHWM), in MB.
[[nodiscard]] double peak_rss_mb();
/// Heap bytes in use (malloc'd, including mmap'd blocks), in MB.
[[nodiscard]] double heap_mb();

}  // namespace e2ebench
