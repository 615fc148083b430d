// In-memory span recorder for the traced run.
//
// Spans are opened and closed from the benchmark's own code around calls
// into each library layer's public functions; nothing inside the library is
// instrumented.  Spans stay in memory and are written out once, when the run
// ends, in Chrome Trace Event Format (chrome://tracing and Perfetto open it).
#pragma once

#include <chrono>
#include <cstdint>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

namespace e2ebench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Span {
  std::string name;  ///< "<module>.<layer call>", e.g. "mrf.compile"
  double start_s = 0;
  double end_s = 0;
  int parent = -1;  ///< index of the enclosing span, -1 for a root
  int call = -1;    ///< the facade call this span belongs to (-1: a probe)
  [[nodiscard]] double duration() const { return end_s - start_s; }
};

class Tracer {
 public:
  Tracer() : origin_(Clock::now()) {}

  /// Opens a span nested in the innermost open one; returns its index.
  int begin(std::string name, int call) {
    const int parent = open_.empty() ? -1 : open_.back();
    spans_.push_back({std::move(name), now(), 0.0, parent, call});
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }
  void end(int id) {
    spans_[static_cast<std::size_t>(id)].end_s = now();
    open_.pop_back();
  }

  /// RAII span: `auto s = tracer.scope("mrf.build", call);`.
  class Scope {
   public:
    Scope(Tracer& tr, std::string name, int call)
        : tr_(tr), id_(tr.begin(std::move(name), call)) {}
    ~Scope() { tr_.end(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tr_;
    int id_;
  };
  [[nodiscard]] Scope scope(std::string name, int call) {
    return Scope(*this, std::move(name), call);
  }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// A span's duration minus the part its direct children cover.
  [[nodiscard]] double self_s(int id) const {
    double self = spans_[static_cast<std::size_t>(id)].duration();
    for (const Span& s : spans_)
      if (s.parent == id) self -= s.duration();
    return self;
  }

  /// Writes every span as a complete ("X") event; args carry the parent
  /// span index and the call id.
  void write_chrome_trace(const std::string& path) const {
    std::ofstream out(path);
    out << "{\"traceEvents\":[\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << (i == 0 ? "" : ",\n") << "{\"name\":\"" << s.name
          << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":" << s.start_s * 1e6
          << ",\"dur\":" << s.duration() * 1e6 << ",\"args\":{\"id\":" << i
          << ",\"parent\":" << s.parent << ",\"call\":" << s.call << "}}";
    }
    out << "\n],\"displayTimeUnit\":\"ms\"}\n";
  }

 private:
  [[nodiscard]] double now() const {
    return seconds_between(origin_, Clock::now());
  }

  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

}  // namespace e2ebench
