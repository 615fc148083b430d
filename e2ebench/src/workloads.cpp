#include "workloads.hpp"

#include <malloc.h>

#include <algorithm>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <string>

#include "chains/engine.hpp"
#include "chains/init.hpp"
#include "chains/local_metropolis.hpp"
#include "chains/luby_glauber.hpp"
#include "chains/replicas.hpp"
#include "chains/stopping.hpp"
#include "core/theory.hpp"
#include "csp/compiled.hpp"
#include "csp/csp_chains.hpp"
#include "csp/csp_models.hpp"
#include "graph/generators.hpp"
#include "mrf/compiled.hpp"
#include "mrf/models.hpp"
#include "util/rng.hpp"

namespace e2ebench {

namespace core = lsample::core;
namespace chains = lsample::chains;
namespace csp = lsample::csp;
namespace graph = lsample::graph;
namespace mrf = lsample::mrf;
namespace util = lsample::util;

std::uint64_t call_seed(std::uint64_t seed, int i) {
  return util::mix64(util::mix64(seed ^ 0x9e3779b97f4a7c15ULL) ^
                     static_cast<std::uint64_t>(i));
}

std::uint64_t config_hash(const std::vector<int>& x) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const int s : x) {
    h ^= static_cast<std::uint32_t>(s);
    h *= 0x100000001b3ULL;
  }
  return h;
}

namespace {

double status_mb(const std::string& key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind(key, 0) == 0)
      return std::stod(line.substr(key.size())) / 1024.0;
  return 0.0;
}

/// The graph-generator stream of a workload seed (distinct from call seeds).
util::Rng graph_rng(std::uint64_t seed) {
  return util::Rng(util::mix64(seed ^ 0x5851f42d4c957f2dULL));
}

constexpr int kCspN = 1000;
constexpr int kCspDegree = 6;

/// The csp-batch workload's graph of call i.  The MRF workloads run their
/// CSP layer probes on the graph of call 0.
graph::GraphPtr csp_batch_graph(std::uint64_t seed, int i) {
  util::Rng rng = graph_rng(call_seed(seed, i));
  return graph::make_random_regular(kCspN, kCspDegree, rng);
}

core::SamplerOptions facade_options(core::Algorithm algorithm,
                                    std::uint64_t seed, int threads) {
  core::SamplerOptions o;
  o.algorithm = algorithm;
  o.seed = seed;
  o.num_threads = threads;
  return o;
}

Output from_result(core::SampleResult&& r) {
  Output out;
  out.configs.push_back(std::move(r.config));
  out.rounds_used = r.rounds_used;
  out.budget_rounds = r.budget_rounds;
  out.messages = r.message_stats;
  out.library_feasible = r.feasible;
  return out;
}

bool proper_coloring(const graph::Graph& g, int q, const std::vector<int>& x) {
  if (static_cast<int>(x.size()) != g.num_vertices()) return false;
  for (const int s : x)
    if (s < 0 || s >= q) return false;
  for (int e = 0; e < g.num_edges(); ++e) {
    const graph::Edge& ed = g.edge(e);
    if (x[static_cast<std::size_t>(ed.u)] == x[static_cast<std::size_t>(ed.v)])
      return false;
  }
  return true;
}

bool independent_set(const graph::Graph& g, const std::vector<int>& x) {
  if (static_cast<int>(x.size()) != g.num_vertices()) return false;
  for (const int s : x)
    if (s != 0 && s != 1) return false;
  for (int e = 0; e < g.num_edges(); ++e) {
    const graph::Edge& ed = g.edge(e);
    if (x[static_cast<std::size_t>(ed.u)] == 1 &&
        x[static_cast<std::size_t>(ed.v)] == 1)
      return false;
  }
  return true;
}

bool dominating_set(const graph::Graph& g, const std::vector<int>& x) {
  if (static_cast<int>(x.size()) != g.num_vertices()) return false;
  for (int v = 0; v < g.num_vertices(); ++v) {
    const int s = x[static_cast<std::size_t>(v)];
    if (s != 0 && s != 1) return false;
    bool covered = s == 1;
    for (const int u : g.neighbors(v))
      covered = covered || x[static_cast<std::size_t>(u)] == 1;
    if (!covered) return false;
  }
  return true;
}

/// mrf::make_* under an "mrf.build" span; model_mb is the heap growth.
template <typename Build>
std::shared_ptr<const mrf::Mrf> traced_build(Tracer& tr, int call,
                                             double& model_mb,
                                             const Build& build) {
  const double heap0 = heap_mb();
  std::shared_ptr<const mrf::Mrf> m;
  {
    auto s = tr.scope("mrf.build", call);
    m = std::make_shared<const mrf::Mrf>(build());
  }
  model_mb = heap_mb() - heap0;
  return m;
}

/// The chain backend's MRF pipeline as the facade runs it (run_chain in
/// core/sampler.cpp, stop = fixed): init, engine, compile, payload rounds.
Output replay_chain(std::shared_ptr<const mrf::Mrf> model,
                    core::Algorithm algorithm, std::uint64_t seed,
                    std::int64_t rounds, Tracer& tr, int call) {
  const mrf::Mrf& m = *model;
  Output out;
  out.rounds_used = rounds;
  out.budget_rounds = rounds;
  mrf::Config x;
  {
    auto s = tr.scope("chains.init", call);
    x = chains::greedy_feasible_config(m);
  }
  chains::ParallelEngine engine(kThreads);
  std::shared_ptr<const mrf::CompiledMrf> cm;
  {
    auto s = tr.scope("mrf.compile", call);
    cm = std::make_shared<const mrf::CompiledMrf>(
        m, mrf::CompiledMrf::Options{});
  }
  {
    auto s = tr.scope("chains.run", call);
    std::unique_ptr<chains::Chain> chain;
    if (algorithm == core::Algorithm::luby_glauber)
      chain = std::make_unique<chains::LubyGlauberChain>(cm, seed);
    else
      chain = std::make_unique<chains::LocalMetropolisChain>(cm, seed);
    chain->set_engine(&engine);
    chains::run(*chain, x, 0, rounds);
  }
  {
    auto s = tr.scope("mrf.verify", call);
    out.library_feasible = m.feasible(x);
  }
  out.configs.push_back(std::move(x));
  out.model = std::move(model);
  out.compiled = std::move(cm);
  return out;
}

// ---------------------------------------------------------------------------

class DenseColoring final : public Workload {
 public:
  explicit DenseColoring(std::uint64_t seed) : seed_(seed) {
    util::Rng rng = graph_rng(seed);
    g_ = graph::make_random_regular(kN, kDegree, rng);
    budget_ = core::coloring_round_budget(
        kN, g_->max_degree(), kQ, core::Algorithm::local_metropolis, 0.01);
  }
  Output call(int i, int threads) const override {
    return from_result(core::sample_coloring(
        g_, kQ,
        facade_options(core::Algorithm::local_metropolis, call_seed(seed_, i),
                       threads)));
  }
  Output replay(int i, Tracer& tr) const override {
    auto root = tr.scope("core.call", i);
    double model_mb = 0.0;
    auto m = traced_build(tr, i, model_mb,
                          [&] { return mrf::make_proper_coloring(g_, kQ); });
    Output out = replay_chain(std::move(m), core::Algorithm::local_metropolis,
                              call_seed(seed_, i), budget_, tr, i);
    out.model_mb = model_mb;
    return out;
  }
  bool valid(int, const Output& out) const override {
    return proper_coloring(*g_, kQ, out.configs.at(0));
  }
  ProbeModel probe_model() const override {
    return {g_, kQ, 0.0, core::Algorithm::local_metropolis, budget_,
            call_seed(seed_, -1)};
  }
  graph::GraphPtr csp_probe_graph() const override {
    return csp_batch_graph(seed_, 0);
  }

 private:
  static constexpr int kN = 900;
  static constexpr int kDegree = 30;
  static constexpr int kQ = 108;
  std::uint64_t seed_;
  graph::GraphPtr g_;
  std::int64_t budget_ = 0;
};

// ---------------------------------------------------------------------------

class SparseHardcore final : public Workload {
 public:
  explicit SparseHardcore(std::uint64_t seed)
      : seed_(seed), g_(graph::make_torus(kSide, kSide)) {
    const int delta = std::max(g_->max_degree(), 1);
    const double alpha = delta * kLambda / (1.0 + kLambda);
    budget_ = core::luby_glauber_round_budget(g_->num_vertices(),
                                              1.0 / (delta + 1.0), alpha, 0.01);
  }
  Output call(int i, int threads) const override {
    return from_result(core::sample_hardcore(
        g_, kLambda,
        facade_options(core::Algorithm::luby_glauber, call_seed(seed_, i),
                       threads)));
  }
  Output replay(int i, Tracer& tr) const override {
    auto root = tr.scope("core.call", i);
    double model_mb = 0.0;
    auto m = traced_build(tr, i, model_mb,
                          [&] { return mrf::make_hardcore(g_, kLambda); });
    Output out = replay_chain(std::move(m), core::Algorithm::luby_glauber,
                              call_seed(seed_, i), budget_, tr, i);
    out.model_mb = model_mb;
    return out;
  }
  bool valid(int, const Output& out) const override {
    return independent_set(*g_, out.configs.at(0));
  }
  ProbeModel probe_model() const override {
    return {g_, 2, kLambda, core::Algorithm::luby_glauber, budget_,
            call_seed(seed_, -1)};
  }
  graph::GraphPtr csp_probe_graph() const override {
    return csp_batch_graph(seed_, 0);
  }

 private:
  static constexpr int kSide = 316;
  static constexpr double kLambda = 0.3;
  std::uint64_t seed_;
  graph::GraphPtr g_;
  std::int64_t budget_ = 0;
};

// ---------------------------------------------------------------------------

class CspBatch final : public Workload {
 public:
  explicit CspBatch(std::uint64_t seed) : seed_(seed) {}
  int samples_per_call() const override { return kReplicas; }
  bool compiles_mrf() const override { return false; }

  void prepare(int i) const override {
    if (i == prepared_) return;
    graph_ = csp_batch_graph(seed_, i);
    prepared_ = i;
  }

  Output call(int i, int threads) const override {
    const csp::FactorGraph fg = csp::make_dominating_set(*graph(i), kLambda);
    const csp::Config x0(static_cast<std::size_t>(kN), 1);
    core::SamplerOptions o = facade_options(
        core::Algorithm::local_metropolis, call_seed(seed_, i), threads);
    o.num_replicas = kReplicas;
    o.rounds = kRounds;
    o.stop = chains::StopRule::automatic;
    core::BatchSampleResult r = core::sample_many_csp(fg, x0, o);
    Output out;
    out.configs = std::move(r.configs);
    out.rounds_used = r.rounds_used;
    out.budget_rounds = r.budget_rounds;
    out.library_feasible = r.feasible_count == kReplicas;
    return out;
  }

  // sample_many_csp with stop = auto (which resolves to rhat): compile, one
  // R-hat decision keyed to the base seed, then the replica batch.
  Output replay(int i, Tracer& tr) const override {
    auto root = tr.scope("core.call", i);
    const std::uint64_t seed = call_seed(seed_, i);
    std::optional<csp::FactorGraph> fg;
    {
      auto s = tr.scope("csp.build", i);
      fg.emplace(csp::make_dominating_set(*graph(i), kLambda));
    }
    const csp::Config x0(static_cast<std::size_t>(kN), 1);
    {
      auto s = tr.scope("csp.check_config", i);
      csp::check_config(*fg, x0);
    }
    std::shared_ptr<const csp::CompiledFactorGraph> cfg;
    {
      auto s = tr.scope("csp.compile", i);
      cfg = std::make_shared<const csp::CompiledFactorGraph>(
          *fg, csp::CompiledFactorGraph::Options{});
    }
    Output out;
    out.budget_rounds = kRounds;
    {
      auto s = tr.scope("chains.stop.decision", i);
      chains::StoppingOptions sopt;
      sopt.max_rounds = kRounds;
      sopt.num_threads = kThreads;
      const auto factory = [&](int, std::uint64_t rseed) {
        chains::DiagnosticReplica rep;
        rep.x = x0;
        std::shared_ptr<csp::CspChain> chain =
            std::make_shared<csp::CspLocalMetropolisChain>(cfg, rseed);
        rep.step = [chain](csp::Config& x, std::int64_t t) {
          chain->step(x, t);
        };
        return rep;
      };
      out.rounds_used = chains::rhat_stop(factory, seed, sopt).rounds_used;
    }
    out.configs.assign(kReplicas, csp::Config{});
    std::vector<char> feasible(kReplicas, 0);
    {
      auto s = tr.scope("chains.replicas.batch", i);
      chains::ReplicaRunner runner(kThreads);
      runner.run(kReplicas, [&](int r) {
        csp::CspLocalMetropolisChain chain(
            cfg, chains::replica_seed(seed, static_cast<std::uint64_t>(r)));
        csp::Config x = x0;
        for (std::int64_t t = 0; t < out.rounds_used; ++t) chain.step(x, t);
        feasible[static_cast<std::size_t>(r)] = fg->feasible(x) ? 1 : 0;
        out.configs[static_cast<std::size_t>(r)] = std::move(x);
      });
    }
    out.library_feasible =
        std::count(feasible.begin(), feasible.end(), 1) == kReplicas;
    out.compiled_csp = std::move(cfg);
    return out;
  }

  bool valid(int i, const Output& out) const override {
    if (out.configs.size() != static_cast<std::size_t>(kReplicas)) return false;
    return std::all_of(out.configs.begin(), out.configs.end(),
                       [&](const std::vector<int>& x) {
                         return dominating_set(*graph(i), x);
                       });
  }
  ProbeModel probe_model() const override {
    return {csp_probe_graph(), 2, kLambda, core::Algorithm::luby_glauber,
            kRounds, call_seed(seed_, -1)};
  }
  graph::GraphPtr csp_probe_graph() const override {
    return csp_batch_graph(seed_, 0);
  }

 private:
  /// Input i's graph, generated on first use (prepare keeps that out of
  /// the timed calls).
  const graph::GraphPtr& graph(int i) const {
    prepare(i);
    return graph_;
  }

  static constexpr int kN = kCspN;
  static constexpr double kLambda = 0.5;
  static constexpr int kReplicas = 4;
  static constexpr std::int64_t kRounds = 512;
  std::uint64_t seed_;
  mutable int prepared_ = -1;
  mutable graph::GraphPtr graph_;
};

}  // namespace

mrf::Mrf ProbeModel::build() const {
  return q > 2 ? mrf::make_proper_coloring(g, q)
               : mrf::make_hardcore(g, lambda);
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed) {
  if (name == "dense-coloring") return std::make_unique<DenseColoring>(seed);
  if (name == "sparse-hardcore") return std::make_unique<SparseHardcore>(seed);
  if (name == "csp-batch") return std::make_unique<CspBatch>(seed);
  throw std::invalid_argument("unknown workload: " + name);
}

double peak_rss_mb() { return status_mb("VmHWM:"); }

double heap_mb() {
  const struct mallinfo2 mi = mallinfo2();
  return static_cast<double>(mi.uordblks + mi.hblkhd) / (1024.0 * 1024.0);
}

}  // namespace e2ebench
