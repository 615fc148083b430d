#include "probes.hpp"

#include <algorithm>
#include <memory>
#include <optional>
#include <vector>

#include "chains/engine.hpp"
#include "chains/init.hpp"
#include "chains/local_metropolis.hpp"
#include "chains/luby_glauber.hpp"
#include "chains/replicas.hpp"
#include "chains/stopping.hpp"
#include "csp/compiled.hpp"
#include "csp/csp_chains.hpp"
#include "csp/csp_models.hpp"
#include "local/node_programs.hpp"
#include "local/sharding.hpp"
#include "mrf/compiled.hpp"

namespace e2ebench {

namespace core = lsample::core;
namespace chains = lsample::chains;
namespace csp = lsample::csp;
namespace graph = lsample::graph;
namespace local = lsample::local;
namespace mrf = lsample::mrf;

namespace {

/// Keeps probe results observable so the compiler cannot drop the work.
volatile double g_sink = 0.0;

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Median duration of f() over at least min_reps calls and min_s seconds.
template <typename F>
double median_time(F&& f, int min_reps, double min_s) {
  std::vector<double> t;
  const Clock::time_point start = Clock::now();
  while (static_cast<int>(t.size()) < min_reps ||
         seconds_between(start, Clock::now()) < min_s) {
    const Clock::time_point a = Clock::now();
    f();
    t.push_back(seconds_between(a, Clock::now()));
  }
  return median(std::move(t));
}

std::unique_ptr<chains::Chain> make_chain(
    core::Algorithm algorithm, std::shared_ptr<const mrf::CompiledMrf> cm,
    std::uint64_t seed) {
  if (algorithm == core::Algorithm::luby_glauber)
    return std::make_unique<chains::LubyGlauberChain>(std::move(cm), seed);
  return std::make_unique<chains::LocalMetropolisChain>(std::move(cm), seed);
}

local::Network make_network(core::Algorithm algorithm,
                            std::shared_ptr<const mrf::CompiledMrf> cm,
                            const mrf::Config& x0, std::uint64_t seed) {
  return algorithm == core::Algorithm::luby_glauber
             ? local::make_luby_glauber_network(std::move(cm), x0, seed)
             : local::make_local_metropolis_network(std::move(cm), x0, seed);
}

local::ShardedNetwork make_sharded(core::Algorithm algorithm,
                                   std::shared_ptr<const mrf::CompiledMrf> cm,
                                   const mrf::Config& x0, std::uint64_t seed,
                                   int shards) {
  local::ShardedNetwork::Options o;
  o.partition.num_shards = shards;
  return algorithm == core::Algorithm::luby_glauber
             ? local::make_sharded_luby_glauber_network(std::move(cm), x0,
                                                        seed, std::move(o))
             : local::make_sharded_local_metropolis_network(
                   std::move(cm), x0, seed, std::move(o));
}

/// The workload's MRF and its compiled view: the cold replay's, or (on the
/// CSP workload) pm's model, built and compiled here under timed spans.
struct MrfStack {
  std::shared_ptr<const mrf::Mrf> model;
  std::shared_ptr<const mrf::CompiledMrf> compiled;
  mrf::Config x0;  ///< greedy_feasible_config, the facade's initial state
};

MrfStack mrf_stack(const ProbeModel& pm, const Output& cold, Tracer& tr,
                   Metrics& out) {
  if (cold.model)
    return {cold.model, cold.compiled,
            chains::greedy_feasible_config(*cold.model)};
  constexpr int kProbe = -1;
  MrfStack st;
  double heap0 = 0.0;
  out["mrf.build_s"] = median_time(
      [&] {
        st.model.reset();
        heap0 = heap_mb();
        auto s = tr.scope("mrf.build", kProbe);
        st.model = std::make_shared<const mrf::Mrf>(pm.build());
      },
      3, 0.0);
  out["mrf.model_mb"] = heap_mb() - heap0;
  out["mrf.compile_s"] = median_time(
      [&] {
        st.compiled.reset();
        auto s = tr.scope("mrf.compile", kProbe);
        st.compiled = std::make_shared<const mrf::CompiledMrf>(
            *st.model, mrf::CompiledMrf::Options{});
      },
      3, 0.0);
  out["chains.init_s"] = median_time(
      [&] {
        auto s = tr.scope("chains.init", kProbe);
        st.x0 = chains::greedy_feasible_config(*st.model);
      },
      3, 0.0);
  return st;
}

void probe_mrf_layers(const ProbeModel& pm, const MrfStack& st,
                      bool mrf_workload, Tracer& tr, Metrics& out) {
  constexpr int kProbe = -1;
  const mrf::Mrf& m = *st.model;
  const std::shared_ptr<const mrf::CompiledMrf>& cm = st.compiled;
  const mrf::Config& x0 = st.x0;
  out["mrf.tables"] = cm->num_tables();

  // Kernels: one pass over every vertex (marginal) or edge (filter).
  {
    auto s = tr.scope("chains.kernel", kProbe);
    std::vector<double> w;
    const double pass = median_time(
        [&] {
          double acc = 0.0;
          for (int v = 0; v < cm->n(); ++v) {
            cm->marginal_weights(v, x0, w);
            acc += w[0];
          }
          g_sink = g_sink + acc;
        },
        5, 0.1);
    out["chains.kernel.marginal_per_s"] = cm->n() / pass;
    const int q = cm->q();
    const double epass = median_time(
        [&] {
          double acc = 0.0;
          for (int e = 0; e < cm->num_edges(); ++e) {
            const int xu = x0[static_cast<std::size_t>(cm->edge_u(e))];
            const int xv = x0[static_cast<std::size_t>(cm->edge_v(e))];
            acc += cm->edge_pass_prob(e, (xu + 1) % q, (xv + 1) % q, xu, xv);
          }
          g_sink = g_sink + acc;
        },
        5, 0.1);
    out["chains.kernel.edge_pass_per_s"] = cm->num_edges() / epass;
  }

  // Chain steps at 1 and 4 threads.
  chains::ParallelEngine engine(kThreads);
  {
    auto s = tr.scope("chains.step", kProbe);
    auto chain = make_chain(pm.algorithm, cm, pm.seed);
    mrf::Config x = x0;
    std::int64_t t = 0;
    const double t1 = median_time([&] { chain->step(x, t++); }, 5, 0.1);
    chain->set_engine(&engine);
    const double t4 = median_time([&] { chain->step(x, t++); }, 5, 0.1);
    out["chains.step_s.t1"] = t1;
    out["chains.step_s.t4"] = t4;
    out["chains.scaling_4t"] = t1 / t4;
    out["chains.vertex_updates_per_s"] = chain->updates_per_step() / t4;
  }

  // Empty parallel_for round trips.
  {
    auto s = tr.scope("chains.engine_roundtrip", kProbe);
    for (const int threads : {1, 2, 4}) {
      chains::ParallelEngine e(threads);
      const int per_batch = 1000;
      const double batch = median_time(
          [&] {
            for (int k = 0; k < per_batch; ++k)
              e.parallel_for(threads, [](int, int, int) {});
          },
          5, 0.05);
      out["chains.engine_roundtrip_us.t" + std::to_string(threads)] =
          batch / per_batch * 1e6;
    }
  }

  // The LOCAL runtime: one arena, then 2 and 4 shards.
  {
    std::optional<local::Network> net;
    out["local.network_build_s"] = median_time(
        [&] {
          net.reset();
          auto s = tr.scope("local.network_build", kProbe);
          net.emplace(make_network(pm.algorithm, cm, x0, pm.seed));
        },
        3, 0.0);
    net->set_engine(&engine);
    out["local.round_s"] = median_time(
        [&] {
          auto s = tr.scope("local.round", kProbe);
          net->run_rounds(1);
        },
        12, 0.0);
    const local::MessageStats ms = net->stats();
    out["local.messages_per_round"] =
        static_cast<double>(ms.messages) / static_cast<double>(ms.rounds);
    out["local.bits_per_round"] =
        static_cast<double>(ms.bits) / static_cast<double>(ms.rounds);
  }
  for (const int shards : {2, 4}) {
    auto s = tr.scope("local.sharded." + std::to_string(shards), kProbe);
    local::ShardedNetwork net =
        make_sharded(pm.algorithm, cm, x0, pm.seed, shards);
    net.set_engine(&engine);
    const double round = median_time([&] { net.run_rounds(1); }, 8, 0.0);
    out["local.sharded_round_s.s" + std::to_string(shards)] = round;
    if (shards == 4)
      out["local.halo_bytes_per_round.s4"] =
          static_cast<double>(net.halo_stats().wire_bytes) /
          static_cast<double>(net.halo_stats().rounds);
  }

  // On the CSP workload the replays time the replica batch and the (R-hat)
  // stopping decision of the facade call itself.
  if (!mrf_workload) return;

  // One replica batch: 4 replicas of the workload chain, 32 rounds each.
  {
    chains::ReplicaRunner runner(kThreads);
    out["chains.replicas.batch_s"] = median_time(
        [&] {
          auto s = tr.scope("chains.replicas.batch", kProbe);
          runner.run(kThreads, [&](int r) {
            auto chain = make_chain(
                pm.algorithm, cm,
                chains::replica_seed(pm.seed, static_cast<std::uint64_t>(r)));
            mrf::Config x = x0;
            chains::run(*chain, x, 0, 32);
          });
        },
        3, 0.0);
  }

  // The coupling stopping decision (the facade's coupling_decision_mrf):
  // 4 coupled pairs, payload init against the extremal all-(q-1) init.
  mrf::Config y0 = chains::constant_config(m, m.q() - 1);
  if (y0 == x0) y0 = chains::constant_config(m, 0);
  chains::StoppingOptions sopt;
  sopt.max_rounds = pm.budget_rounds;
  sopt.num_threads = kThreads;
  const auto factory = [&](int, std::uint64_t pseed) {
    chains::CouplingPair pair;
    pair.x = x0;
    pair.y = y0;
    const std::shared_ptr<chains::Chain> cx =
        make_chain(pm.algorithm, cm, pseed);
    const std::shared_ptr<chains::Chain> cy =
        make_chain(pm.algorithm, cm, pseed);
    pair.step = [cx, cy](mrf::Config& a, mrf::Config& b, std::int64_t t) {
      cx->step(a, t);
      cy->step(b, t);
    };
    return pair;
  };
  const Clock::time_point a = Clock::now();
  chains::StopDecision d;
  {
    auto s = tr.scope("chains.stop.decision", kProbe);
    d = chains::coupling_fleet_stop(factory, pm.seed, sopt);
  }
  out["chains.stop.decision_s"] = seconds_between(a, Clock::now());
  out["chains.stop.rounds_used"] = static_cast<double>(d.rounds_used);
  out["chains.stop.budget_rounds"] = static_cast<double>(pm.budget_rounds);
  out["chains.stop.savings"] = static_cast<double>(pm.budget_rounds) /
                               static_cast<double>(d.rounds_used);
}

/// csp.build_s and csp.compile_s (unless the cold replay built the CSP) and
/// csp.step_s: the dominating-set CSP (lambda = 0.5) on g, CspLocalMetropolis
/// at kThreads from the all-chosen configuration.
void probe_csp_layers(const graph::GraphPtr& g,
                      std::shared_ptr<const csp::CompiledFactorGraph> cfg,
                      std::uint64_t seed, Tracer& tr, Metrics& out) {
  constexpr int kProbe = -1;
  if (!cfg) {
    std::optional<csp::FactorGraph> fg;
    out["csp.build_s"] = median_time(
        [&] {
          fg.reset();
          auto s = tr.scope("csp.build", kProbe);
          fg.emplace(csp::make_dominating_set(*g, 0.5));
        },
        3, 0.0);
    out["csp.compile_s"] = median_time(
        [&] {
          cfg.reset();
          auto s = tr.scope("csp.compile", kProbe);
          cfg = std::make_shared<const csp::CompiledFactorGraph>(
              *fg, csp::CompiledFactorGraph::Options{});
        },
        3, 0.0);
  }
  auto s = tr.scope("csp.step", kProbe);
  chains::ParallelEngine engine(kThreads);
  csp::CspLocalMetropolisChain chain(cfg, seed);
  chain.set_engine(&engine);
  csp::Config x(static_cast<std::size_t>(cfg->n()), 1);
  std::int64_t t = 0;
  out["csp.step_s"] = median_time([&] { chain.step(x, t++); }, 10, 0.1);
}

}  // namespace

void probe_layers(const Workload& w, const Output& cold, Tracer& tr,
                  Metrics& out) {
  const ProbeModel pm = w.probe_model();
  const bool mrf_workload = cold.model != nullptr;
  const MrfStack st = mrf_stack(pm, cold, tr, out);
  probe_mrf_layers(pm, st, mrf_workload, tr, out);
  probe_csp_layers(w.csp_probe_graph(), cold.compiled_csp,
                   call_seed(pm.seed, -2), tr, out);
}

}  // namespace e2ebench
