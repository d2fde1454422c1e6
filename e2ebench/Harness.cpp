//===- e2ebench/Harness.cpp -------------------------------------------------===//
//
// Part of the CuAsmRL reproduction. Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <thread>

using namespace e2e;

double e2e::mean(const std::vector<double> &V) {
  double Sum = 0.0;
  for (double X : V)
    Sum += X;
  return V.empty() ? 0.0 : Sum / double(V.size());
}

double e2e::median(std::vector<double> V) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : 0.5 * (V[N / 2 - 1] + V[N / 2]);
}

double e2e::percentile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  size_t Rank = static_cast<size_t>(std::ceil(Q * double(V.size())));
  return V[std::min(V.size(), std::max<size_t>(1, Rank)) - 1];
}

double e2e::geomean(const std::vector<double> &V) {
  if (V.empty())
    return 0.0;
  double LogSum = 0.0;
  for (double X : V)
    LogSum += std::log(X);
  return std::exp(LogSum / double(V.size()));
}

void LatencyHistogram::add(double Us) {
  double Pos = std::log10(std::max(Us, MinUs) / MinUs) * PerDecade;
  size_t I = std::min(Buckets.size() - 1, size_t(Pos));
  ++Buckets[I];
  ++Total;
}

double LatencyHistogram::quantile(double Q) const {
  if (Total == 0)
    return 0.0;
  uint64_t Rank = std::max<uint64_t>(1, uint64_t(std::ceil(Q * double(Total))));
  uint64_t Seen = 0;
  size_t I = 0;
  for (; I < Buckets.size(); ++I) {
    Seen += Buckets[I];
    if (Seen >= Rank)
      break;
  }
  return MinUs * std::pow(10.0, (double(I) + 0.5) / PerDecade);
}

double e2e::peakRssMb() {
  rusage Usage{};
  getrusage(RUSAGE_SELF, &Usage);
  return double(Usage.ru_maxrss) / 1024.0; // ru_maxrss is in KiB.
}

bool RunReport::check(const std::string &What, const std::string &Why) {
  if (Why.empty())
    return true;
  CheckFailures.push_back(What + ": " + Why);
  ++Failed;
  Correct = false;
  return false;
}

void RunReport::knownFault(const std::string &What, const std::string &Why,
                           uint64_t Times) {
  Attempted += Times;
  if (Why.empty() || Times == 0)
    return;
  Failed += Times;
  note("known fault (" + std::to_string(Times) + "x): " + What + ": " + Why);
}

int64_t Tracer::begin(const char *Name, int64_t Parent, uint64_t Request) {
  if (!Enabled)
    return -1;
  int64_t Now = std::chrono::duration_cast<std::chrono::nanoseconds>(
                    SteadyClock::now() - Origin)
                    .count();
  std::lock_guard<std::mutex> Lock(Mutex);
  Spans.push_back({Name, Now, Now, Parent, Request});
  return int64_t(Spans.size()) - 1;
}

void Tracer::end(int64_t Id) {
  if (!Enabled || Id < 0)
    return;
  int64_t Now = std::chrono::duration_cast<std::chrono::nanoseconds>(
                    SteadyClock::now() - Origin)
                    .count();
  std::lock_guard<std::mutex> Lock(Mutex);
  Spans[size_t(Id)].EndNs = Now;
}

int64_t Tracer::record(const char *Name, TimePoint Start, TimePoint End,
                       int64_t Parent, uint64_t Request) {
  if (!Enabled)
    return -1;
  auto Ns = [this](TimePoint T) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(T - Origin)
        .count();
  };
  std::lock_guard<std::mutex> Lock(Mutex);
  Spans.push_back({Name, Ns(Start), Ns(End), Parent, Request});
  return int64_t(Spans.size()) - 1;
}

double Tracer::totalMs(const std::string &Name) const {
  std::lock_guard<std::mutex> Lock(Mutex);
  double Sum = 0.0;
  for (const Span &S : Spans)
    if (S.Name == Name)
      Sum += double(S.EndNs - S.StartNs) * 1e-6;
  return Sum;
}

uint64_t Tracer::count(const std::string &Name) const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return uint64_t(std::count_if(Spans.begin(), Spans.end(),
                                [&](const Span &S) { return S.Name == Name; }));
}

double Tracer::spanMs(int64_t Id) const {
  std::lock_guard<std::mutex> Lock(Mutex);
  const Span &S = Spans.at(size_t(Id));
  return double(S.EndNs - S.StartNs) * 1e-6;
}

double Tracer::childMs(int64_t Id) const {
  std::lock_guard<std::mutex> Lock(Mutex);
  double Sum = 0.0;
  for (const Span &S : Spans)
    if (S.Parent == Id)
      Sum += double(S.EndNs - S.StartNs) * 1e-6;
  return Sum;
}

size_t Tracer::size() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Spans.size();
}

bool Tracer::writeJsonl(const std::string &Path) const {
  std::lock_guard<std::mutex> Lock(Mutex);
  std::ofstream Out(Path);
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    Out << "{\"id\":" << I << ",\"name\":\"" << S.Name
        << "\",\"start_ns\":" << S.StartNs << ",\"end_ns\":" << S.EndNs
        << ",\"parent\":" << S.Parent << ",\"request\":" << S.Request
        << "}\n";
  }
  return Out.good();
}

double e2e::spanCostNs() {
  constexpr int N = 20000;
  Tracer T(true);
  TimePoint Start = SteadyClock::now();
  for (int I = 0; I < N; ++I)
    ScopedSpan S(T, "calibrate");
  return 1e3 * usBetween(Start, SteadyClock::now()) / N;
}

namespace {

/// Spins for \p Seconds on \p Threads threads; \returns total spin
/// iterations per second.
double spinRate(unsigned Threads, double Seconds) {
  std::atomic<bool> Go{false}, Stop{false};
  std::vector<uint64_t> Counts(Threads, 0);
  std::vector<std::thread> Pool;
  for (unsigned T = 0; T < Threads; ++T)
    Pool.emplace_back([&, T] {
      while (!Go.load(std::memory_order_acquire))
        std::this_thread::yield();
      uint64_t Local = 0, X = T + 1;
      while (!Stop.load(std::memory_order_relaxed)) {
        for (int I = 0; I < 1024; ++I)
          X = X * 6364136223846793005ull + 1442695040888963407ull;
        Local += 1024;
      }
      Counts[T] = Local + (X == 0);
    });
  TimePoint Start = SteadyClock::now();
  Go.store(true, std::memory_order_release);
  std::this_thread::sleep_for(std::chrono::duration<double>(Seconds));
  Stop.store(true);
  for (std::thread &Th : Pool)
    Th.join();
  double Elapsed = secondsBetween(Start, SteadyClock::now());
  uint64_t Total = 0;
  for (uint64_t C : Counts)
    Total += C;
  return double(Total) / Elapsed;
}

} // namespace

double e2e::parallelCapacity(unsigned Threads) {
  double One = spinRate(1, 0.15);
  double Many = spinRate(std::max(1u, Threads), 0.15);
  return One > 0 ? Many / One : 0.0;
}

void e2e::printReport(const RunReport &R) {
  for (const std::string &Line : R.Notes)
    std::printf("%s\n", Line.c_str());
  std::printf("statuses:");
  for (const auto &[Name, Count] : R.Statuses)
    std::printf(" %s=%llu", Name.c_str(), (unsigned long long)Count);
  std::printf("\n");
  for (const std::string &F : R.CheckFailures)
    std::printf("CHECK FAILED %s\n", F.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              R.Correct ? "true" : "false",
              (unsigned long long)std::max<uint64_t>(1, R.Attempted),
              (unsigned long long)R.Failed);
  for (size_t I = 0; I < R.Metrics.size(); ++I) {
    const auto &[Name, VU] = R.Metrics[I];
    double V = std::isfinite(VU.first) ? VU.first : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                I ? ", " : "", Name.c_str(), V, VU.second.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}
