//===- e2ebench/Harness.h - Shared pieces of the end-to-end benchmark ------===//
//
// Part of the CuAsmRL reproduction. Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Run options, the result record every workload fills, sample
/// statistics, and the span recorder of the traced run. Spans are kept
/// in memory and written out once, when the run ends; with tracing off
/// a span costs one branch.
///
//===----------------------------------------------------------------------===//

#ifndef CUASMRL_E2EBENCH_HARNESS_H
#define CUASMRL_E2EBENCH_HARNESS_H

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace e2e {

using SteadyClock = std::chrono::steady_clock;
using TimePoint = SteadyClock::time_point;

inline double secondsBetween(TimePoint A, TimePoint B) {
  return std::chrono::duration<double>(B - A).count();
}
inline double usBetween(TimePoint A, TimePoint B) {
  return std::chrono::duration<double, std::micro>(B - A).count();
}

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10.0;
  bool Trace = false;
  /// Scratch root for deploy/policy directories and the span file.
  std::string WorkDir;
};

/// Sample statistics. Percentiles use the nearest-rank rule.
double mean(const std::vector<double> &V);
double median(std::vector<double> V);
double percentile(std::vector<double> V, double Q);
double geomean(const std::vector<double> &V);
/// Peak resident set of this process, in MB.
double peakRssMb();

/// Latency samples in fixed memory: log-spaced buckets, 1000 per
/// decade from 0.01 us to 1e8 us, so a bucket is 0.23% wide and memory
/// does not grow with the number of samples.
class LatencyHistogram {
public:
  void add(double Us);
  uint64_t count() const { return Total; }
  /// Nearest-rank quantile, at the geometric centre of its bucket.
  double quantile(double Q) const;

private:
  static constexpr int PerDecade = 1000;
  static constexpr int Decades = 10;
  static constexpr double MinUs = 0.01;
  std::vector<uint64_t> Buckets =
      std::vector<uint64_t>(PerDecade * Decades + 1, 0);
  uint64_t Total = 0;
};

/// What one run reports. Every failed correctness check counts as one
/// failed operation.
struct RunReport {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  bool Correct = true;
  /// Response status -> count, over every timed operation.
  std::map<std::string, uint64_t> Statuses;
  std::vector<std::string> CheckFailures;
  /// (name, value, unit) in print order.
  std::vector<std::pair<std::string, std::pair<double, std::string>>> Metrics;
  /// Extra "key: value" lines printed before the result.
  std::vector<std::string> Notes;

  void status(const std::string &Name) { ++Statuses[Name]; }
  /// Records a failed check (empty \p Why = passed). \returns passed.
  bool check(const std::string &What, const std::string &Why);
  /// A check that fails on every input because of a known fault in
  /// the program. It counts as \p Times attempted operations, failed
  /// when \p Why is non-empty, and leaves Correct alone, so the other
  /// checks still decide the verdict.
  void knownFault(const std::string &What, const std::string &Why,
                  uint64_t Times);
  void metric(const std::string &Name, double Value, const std::string &Unit) {
    Metrics.push_back({Name, {Value, Unit}});
  }
  void note(const std::string &Line) { Notes.push_back(Line); }
};

/// In-memory span recorder (traced run only). Thread-safe.
class Tracer {
public:
  struct Span {
    std::string Name;
    int64_t StartNs = 0;
    int64_t EndNs = 0;
    int64_t Parent = -1;
    uint64_t Request = 0;
  };

  explicit Tracer(bool Enabled) : Enabled(Enabled) {
    Origin = SteadyClock::now();
  }
  bool enabled() const { return Enabled; }

  /// Opens a span starting now; \returns its id (-1 when disabled).
  int64_t begin(const char *Name, int64_t Parent = -1, uint64_t Request = 0);
  /// Closes span \p Id now (no-op for -1).
  void end(int64_t Id);
  /// Records a span timed by the caller; \returns its id.
  int64_t record(const char *Name, TimePoint Start, TimePoint End,
                 int64_t Parent = -1, uint64_t Request = 0);

  /// Sum of durations (ms) and count of the spans named \p Name.
  double totalMs(const std::string &Name) const;
  uint64_t count(const std::string &Name) const;
  /// Duration of span \p Id in ms.
  double spanMs(int64_t Id) const;
  /// Sum of the durations (ms) of \p Id's direct children.
  double childMs(int64_t Id) const;
  size_t size() const;

  /// Writes one JSON object per span.
  bool writeJsonl(const std::string &Path) const;

private:
  bool Enabled;
  TimePoint Origin;
  mutable std::mutex Mutex;
  std::vector<Span> Spans; ///< Guarded by Mutex.
};

/// Times a scope into a Tracer; a no-op when the tracer is disabled.
class ScopedSpan {
public:
  ScopedSpan(Tracer &T, const char *Name, int64_t Parent = -1,
             uint64_t Request = 0)
      : T(T), Id(T.begin(Name, Parent, Request)) {}
  ~ScopedSpan() { finish(); }
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;

  /// The span's id, for children (-1 when disabled).
  int64_t id() const { return Id; }
  /// Ends the span early.
  void finish() {
    if (!Done)
      T.end(Id);
    Done = true;
  }

private:
  Tracer &T;
  int64_t Id;
  bool Done = false;
};

/// Cost of one recorded span, measured on a scratch tracer (ns).
double spanCostNs();

/// N busy threads against one: total spin work per second with
/// \p Threads spinning, divided by the single-thread rate.
double parallelCapacity(unsigned Threads);

/// Prints the notes, the status breakdown and the one-line JSON result.
void printReport(const RunReport &R);

} // namespace e2e

#endif // CUASMRL_E2EBENCH_HARNESS_H
