// e2ebench: times whole core::sample_* calls, one workload per process.
//
//   e2ebench cold  --workload W --seed S
//       one facade call in this fresh process (lazy setup and first-touch
//       page faults included); prints {"mode":"cold","call_s":...}
//   e2ebench warm  --workload W --seed S --seconds T [--first-input K]
//                  [--inject-compile-delay F] [--skip-recheck 1]
//       a closed loop of facade calls on inputs K, K+1, ... from one caller
//       for T seconds after one warm-up call, every sample checked, one
//       call re-drawn at 1 thread and compared by hash (unless
//       --skip-recheck 1)
//   e2ebench trace --workload W --seed S --seconds T --trace-out PATH
//       a traced replay of call 0 through each layer's public functions,
//       per-layer probes on the objects it built, then untraced facade
//       calls paired with traced replays of the same calls for T seconds;
//       writes the spans to PATH (Chrome Trace Event Format)
//
// Every mode prints one JSON object on its last stdout line; run.py turns
// those into the benchmark's result.  --inject-compile-delay F adds a busy
// wait of F x (this model's CompiledMrf compile time), inside the timing,
// to the middle two of every four measured calls (unchanged, slowed,
// slowed, unchanged): the sensitivity self-test's synthetic 10% slowdown of
// one layer, interleaved with unchanged calls of the same process.
#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "mrf/compiled.hpp"
#include "probes.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace {

using namespace e2ebench;

struct Args {
  std::string mode;
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int first_input = 0;
  double inject_compile_delay = 0.0;
  bool recheck = true;
  std::string trace_out;
};

Args parse(int argc, char** argv) {
  Args a;
  if (argc < 2)
    throw std::invalid_argument(
        "usage: e2ebench cold|warm|trace --workload W --seed S "
        "[--seconds T]");
  a.mode = argv[1];
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::stoull(v);
    else if (k == "--seconds") a.seconds = std::stod(v);
    else if (k == "--first-input") a.first_input = std::stoi(v);
    else if (k == "--inject-compile-delay")
      a.inject_compile_delay = std::stod(v);
    else if (k == "--trace-out") a.trace_out = v;
    else if (k == "--skip-recheck") a.recheck = v == "0";
    else throw std::invalid_argument("unknown argument: " + k);
  }
  if (a.mode != "cold" && a.mode != "warm" && a.mode != "trace")
    throw std::invalid_argument("unknown mode: " + a.mode);
  return a;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Calls between a fresh process's first call and the measured loop.
constexpr int kWarmupCalls = 1;

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  std::ostringstream s;
  s.precision(17);
  s << v;
  return s.str();
}

std::string json_list(const std::vector<double>& v) {
  std::string s = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i > 0) s += ',';
    s += json_number(v[i]);
  }
  return s + "]";
}

std::string json_object(const std::map<std::string, double>& m) {
  std::string s = "{";
  for (const auto& [k, v] : m) {
    if (s.size() > 1) s += ',';
    s += '"' + k + "\":" + json_number(v);
  }
  return s + "}";
}

void spin_for(double seconds) {
  const Clock::time_point end =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  while (Clock::now() < end) {
  }
}

/// Median CompiledMrf compile time of the workload's model (3 compiles).
double compile_seconds(const Workload& w) {
  const lsample::mrf::Mrf m = w.probe_model().build();
  std::vector<double> t;
  for (int k = 0; k < 3; ++k) {
    const Clock::time_point a = Clock::now();
    const lsample::mrf::CompiledMrf cm(m);
    t.push_back(seconds_between(a, Clock::now()));
  }
  return median(t);
}

/// Hashes of every sample of one call.
std::vector<std::uint64_t> hashes(const Output& out) {
  std::vector<std::uint64_t> h;
  for (const auto& x : out.configs) h.push_back(config_hash(x));
  return h;
}

bool checked(const Workload& w, int i, const Output& out) {
  return out.library_feasible && w.valid(i, out);
}

/// Whether two draws of the same input agree: every sample bit for bit, the
/// rounds used and the message counts.
bool same_draw(const Output& a, const Output& b) {
  return hashes(a) == hashes(b) && a.rounds_used == b.rounds_used &&
         a.messages == b.messages;
}

/// The exact counts of one call, which every draw of its input repeats.
std::string counts_json(const Output& out) {
  const auto d = [](std::int64_t v) { return static_cast<double>(v); };
  return json_object({{"rounds_used", d(out.rounds_used)},
                      {"budget_rounds", d(out.budget_rounds)},
                      {"message_rounds", d(out.messages.rounds)},
                      {"messages", d(out.messages.messages)},
                      {"bits", d(out.messages.bits)}});
}

int run_cold(const Args& a) {
  const auto w = make_workload(a.workload, a.seed);
  w->prepare(0);
  const Clock::time_point t0 = Clock::now();
  const Output out = w->call(0, kThreads);
  const double call_s = seconds_between(t0, Clock::now());
  std::cout << "{\"mode\":\"cold\",\"call_s\":" << json_number(call_s)
            << ",\"ok\":" << (checked(*w, 0, out) ? "true" : "false")
            << ",\"counts\":" << counts_json(out) << "}\n";
  return 0;
}

int run_warm(const Args& a) {
  const auto w = make_workload(a.workload, a.seed);
  const double delay = a.inject_compile_delay > 0.0 && w->compiles_mrf()
                           ? a.inject_compile_delay * compile_seconds(*w)
                           : 0.0;
  int attempted = 0;
  int failed = 0;
  int samples = 0;
  std::vector<double> latencies;
  std::vector<double> rounds_used;
  std::map<std::string, double> counts;
  Output recheck;
  double first_call_s = 0.0;
  double loop_s = 0.0;
  // The process's call k draws input first_input + k.  Call 0 is the fresh
  // process's first call (a setup_s sample).  Warm-up calls follow, then
  // the measured loop runs for a.seconds (and at least two calls).
  constexpr int first_measured = 1 + kWarmupCalls;
  Clock::time_point loop_start;
  for (int k = 0;; ++k) {
    const int i = a.first_input + k;
    if (k == first_measured) loop_start = Clock::now();
    if (k >= first_measured + 2 &&
        seconds_between(loop_start, Clock::now()) >= a.seconds)
      break;
    const bool measured = k >= first_measured;
    ++attempted;
    try {
      w->prepare(i);
      const Clock::time_point t0 = Clock::now();
      Output out = w->call(i, kThreads);
      const int in_block = (k - first_measured) % 4;
      if (delay > 0.0 && measured && (in_block == 1 || in_block == 2))
        spin_for(delay);
      const double dt = seconds_between(t0, Clock::now());
      if (k == 0) first_call_s = dt;
      if (measured) {
        latencies.push_back(dt);
        loop_s += dt;
      }
      if (!checked(*w, i, out)) {
        ++failed;
        continue;
      }
      if (measured) samples += w->samples_per_call();
      rounds_used.push_back(static_cast<double>(out.rounds_used));
      if (out.messages.rounds > 0) {
        counts["local.messages"] = static_cast<double>(out.messages.messages);
        counts["local.bits"] = static_cast<double>(out.messages.bits);
      }
      if (k == first_measured) recheck = std::move(out);
    } catch (const std::exception& e) {
      std::cerr << "call " << i << " failed: " << e.what() << "\n";
      ++failed;
    }
  }
  // Bit-identity at any thread count is the library's contract: re-draw
  // the first measured call at one thread.
  if (a.recheck) {
    ++attempted;
    try {
      w->prepare(a.first_input + first_measured);
      const Output again = w->call(a.first_input + first_measured, 1);
      if (recheck.configs.empty() || !same_draw(again, recheck)) {
        std::cerr << "1-thread re-draw differs from the 4-thread call\n";
        ++failed;
      }
    } catch (const std::exception& e) {
      std::cerr << "1-thread re-draw failed: " << e.what() << "\n";
      ++failed;
    }
  }
  std::cout << "{\"mode\":\"warm\",\"first_call_s\":"
            << json_number(first_call_s)
            << ",\"latencies_s\":" << json_list(latencies)
            << ",\"loop_s\":" << json_number(loop_s)
            << ",\"samples\":" << samples << ",\"attempted\":" << attempted
            << ",\"failed\":" << failed
            << ",\"injected_delay_s\":" << json_number(delay)
            << ",\"rounds_used\":" << json_list(rounds_used)
            << ",\"counts\":" << json_object(counts)
            << ",\"peak_rss_mb\":" << json_number(peak_rss_mb()) << "}\n";
  return 0;
}

std::string module_of(const std::string& span) {
  return span.substr(0, span.find('.'));
}

/// Per-call sums of each span name's self time, for the replays' spans.
std::map<int, std::map<std::string, double>> self_by_call(const Tracer& tr) {
  std::map<int, std::map<std::string, double>> by_call;
  const auto& spans = tr.spans();
  for (std::size_t i = 0; i < spans.size(); ++i)
    if (spans[i].call >= 0)
      by_call[spans[i].call][spans[i].name] += tr.self_s(static_cast<int>(i));
  return by_call;
}

int run_trace(const Args& a) {
  const auto w = make_workload(a.workload, a.seed);
  Tracer tr;
  int attempted = 0;
  int failed = 0;
  const auto fail = [&](const std::string& what) {
    std::cerr << what << "\n";
    ++failed;
  };

  // 1. The process's first library call is a traced replay: its layer
  //    self times, against the warm ones, attribute the cold-start excess.
  ++attempted;
  w->prepare(0);
  Output cold = w->replay(0, tr);
  if (!checked(*w, 0, cold)) fail("cold replay produced an invalid sample");

  // 2. Per-layer probes on the objects the cold replay built, for the
  //    layers the workload's call does not run; then let those go.
  Metrics m;
  probe_layers(*w, cold, tr, m);
  cold.model.reset();
  cold.compiled.reset();
  cold.compiled_csp.reset();

  // 3. Warm pairs: an untraced facade call and a traced replay of the same
  //    input, alternating which runs first.  The replay must reproduce the
  //    facade's samples bit for bit.
  std::vector<double> untraced;
  const Clock::time_point start = Clock::now();
  for (int i = 1;; ++i) {
    if (i > 3 && seconds_between(start, Clock::now()) >= a.seconds) break;
    attempted += 2;
    try {
      w->prepare(i);
      Output facade;
      Output replay;
      const auto timed_call = [&] {
        const Clock::time_point t0 = Clock::now();
        facade = w->call(i, kThreads);
        untraced.push_back(seconds_between(t0, Clock::now()));
      };
      if (i % 2 == 1) {
        timed_call();
        replay = w->replay(i, tr);
      } else {
        replay = w->replay(i, tr);
        replay.model.reset();  // no second model alive during the call
        replay.compiled.reset();
        timed_call();
      }
      if (!checked(*w, i, facade))
        fail("facade call produced an invalid sample");
      if (!same_draw(replay, facade))
        fail("replay of call " + std::to_string(i) +
             " differs from the facade");
    } catch (const std::exception& e) {
      fail(std::string("call failed: ") + e.what());
    }
  }

  // 4. Layer self times of the warm replays (call 0 is the cold one).
  const auto by_call = self_by_call(tr);
  std::map<std::string, std::vector<double>> warm_self;
  std::vector<double> traced_total;
  for (const auto& [call, names] : by_call) {
    if (call == 0) continue;
    for (const auto& [name, self] : names) warm_self[name].push_back(self);
  }
  for (const Span& s : tr.spans())
    if (s.call > 0 && s.name == "core.call")
      traced_total.push_back(s.duration());
  for (auto& [name, v] : warm_self)
    while (v.size() < traced_total.size()) v.push_back(0.0);

  // A layer's self time is its median over the warm replays; core.self_s
  // is the replay's own time outside every layer span, so the layer self
  // times plus core.self_s make up the traced call, and the traced call
  // minus the untraced one is the tracing overhead.
  const double call_s = median(untraced);
  const double core_self = median(warm_self["core.call"]);
  std::map<std::string, double> module_self;
  for (const auto& [name, v] : warm_self) {
    if (name == "core.call") continue;
    const double self = median(v);
    module_self[module_of(name)] += self;
    m[name + "_s"] = self;
  }
  double layers = 0.0;
  for (const auto& [mod, self] : module_self) layers += self;
  m["core.self_s"] = core_self;
  m["core.call_s"] = call_s;
  m["core.traced_call_s"] = median(traced_total);
  m["core.accounted_s"] = layers + core_self;
  m["trace.overhead_s"] = m["core.traced_call_s"] - call_s;
  for (const char* mod : {"mrf", "chains", "csp", "local"})
    m[std::string(mod) + ".share"] = module_self[mod] / call_s;
  m["core.share"] = core_self / call_s;
  if (w->compiles_mrf()) m["mrf.model_mb"] = cold.model_mb;
  if (!w->compiles_mrf()) {
    m["chains.stop.rounds_used"] = static_cast<double>(cold.rounds_used);
    m["chains.stop.budget_rounds"] = static_cast<double>(cold.budget_rounds);
    m["chains.stop.savings"] = static_cast<double>(cold.budget_rounds) /
                               static_cast<double>(cold.rounds_used);
  }

  // The tail: the highest percentile with at least ten calls beyond it, or
  // the median when that percentile would lie below it (fewer than 22
  // calls).
  std::vector<double> sorted = untraced;
  std::sort(sorted.begin(), sorted.end());
  const int n = static_cast<int>(sorted.size());
  const int tail_index = std::max(n - 11, (n - 1) / 2);
  m["core.call_tail_s"] = sorted[static_cast<std::size_t>(tail_index)];
  m["core.call_tail_pct"] = 100.0 * (tail_index + 1) / n;
  m["core.calls"] = n;

  // Cold-start excess of the replay by module (run.py adds the excess of
  // the cold facade call over the warm one and the unattributed rest).
  std::map<std::string, double> cold_module;
  double cold_root = 0.0;
  for (const auto& [name, self] : by_call.at(0)) {
    if (name == "core.call") cold_root = self;
    else cold_module[module_of(name)] += self;
  }
  double cold_total = 0.0;
  for (const char* mod : {"mrf", "chains", "csp", "local"}) {
    const double excess = cold_module[mod] - module_self[mod];
    m[std::string(mod) + ".cold_s"] = excess;
    cold_total += excess;
  }
  m["core.cold_replay_self_s"] = cold_root - core_self;
  m["core.cold_replay_layers_s"] = cold_total;

  if (!a.trace_out.empty()) tr.write_chrome_trace(a.trace_out);
  std::cout << "{\"mode\":\"trace\",\"attempted\":" << attempted
            << ",\"failed\":" << failed << ",\"metrics\":" << json_object(m)
            << ",\"cold_counts\":" << counts_json(cold)
            << ",\"untraced_s\":" << json_list(untraced) << "}\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args a = parse(argc, argv);
    if (a.mode == "cold") return run_cold(a);
    if (a.mode == "warm") return run_warm(a);
    return run_trace(a);
  } catch (const std::exception& e) {
    std::cerr << "e2ebench: " << e.what() << "\n";
    return 2;
  }
}
