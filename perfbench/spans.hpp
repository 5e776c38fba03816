// In-memory span recorder of the traced benchmark run. Spans are recorded
// by the benchmark's own code around its calls into each layer; nothing
// inside the wasp libraries is traced. They stay in memory until the run
// ends and are then written as one JSON array.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t to_ns(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             t.time_since_epoch())
      .count();
}

struct Span {
  const char* name = "";
  std::uint64_t id = 0;
  std::uint64_t parent = 0;    ///< 0 for a root span
  std::uint64_t trace_id = 0;  ///< QueryResult::query_id for service spans
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  /// True when the interval was reported by the layer (QueryResult or
  /// MetricsSnapshot timings) instead of timed around a call.
  bool reported = false;
};

class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Records a finished span and returns its id (0 when disabled).
  std::uint64_t add(const char* name, std::int64_t start_ns,
                    std::int64_t end_ns, std::uint64_t parent = 0,
                    std::uint64_t trace_id = 0, bool reported = false) {
    if (!enabled_) return 0;
    spans_.push_back({name, spans_.size() + 1, parent, trace_id, start_ns,
                      end_ns, reported});
    return spans_.size();
  }

  /// Re-parents a recorded span and stamps its trace id (a query's id is
  /// known only once its future resolves).
  void link(std::uint64_t id, std::uint64_t parent, std::uint64_t trace_id) {
    if (id == 0) return;
    spans_[id - 1].parent = parent;
    spans_[id - 1].trace_id = trace_id;
  }

  /// Self time of every span: its duration minus the time its direct
  /// children cover (children of one parent never overlap here).
  [[nodiscard]] std::vector<std::int64_t> self_ns() const {
    std::vector<std::int64_t> self(spans_.size());
    for (const Span& s : spans_) self[s.id - 1] = s.end_ns - s.start_ns;
    for (const Span& s : spans_)
      if (s.parent != 0) self[s.parent - 1] -= s.end_ns - s.start_ns;
    for (std::int64_t& v : self) v = v < 0 ? 0 : v;
    return self;
  }

  /// Share of the root spans named in `roots` not covered by their
  /// children: sum of root self time over sum of root duration.
  [[nodiscard]] double residual_share(
      const std::vector<std::string>& roots) const {
    const std::vector<std::int64_t> self = self_ns();
    double total = 0.0, residual = 0.0;
    for (const Span& s : spans_) {
      if (s.parent != 0) continue;
      bool named = false;
      for (const std::string& r : roots) named = named || r == s.name;
      if (!named) continue;
      total += static_cast<double>(s.end_ns - s.start_ns);
      residual += static_cast<double>(self[s.id - 1]);
    }
    return total > 0.0 ? residual / total : 0.0;
  }

  /// Summed self time per span name, in milliseconds.
  [[nodiscard]] std::map<std::string, double> self_ms_by_name() const {
    const std::vector<std::int64_t> self = self_ns();
    std::map<std::string, double> out;
    for (const Span& s : spans_)
      out[s.name] += static_cast<double>(self[s.id - 1]) * 1e-6;
    return out;
  }

  void write_json(std::ostream& os) const {
    os << "[\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      os << "  {\"name\": \"" << s.name << "\", \"id\": " << s.id
         << ", \"parent\": " << s.parent << ", \"trace_id\": " << s.trace_id
         << ", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
         << ", \"reported\": " << (s.reported ? "true" : "false") << "}"
         << (i + 1 < spans_.size() ? ",\n" : "\n");
    }
    os << "]\n";
  }

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

}  // namespace perfbench
