//===- e2ebench/main.cpp - The end-to-end benchmark entry point ------------===//
//
// Part of the CuAsmRL reproduction. Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
///   e2ebench --workload <cold-paper|warm-lookup|mixed-serve> --seed N
///            --seconds S --trace <0|1>
///   e2ebench --self-test
///
/// Runs one workload and prints, as the last stdout line, one JSON
/// object: {"correct", "attempted", "failed", "metrics"}. With --trace 0
/// the metrics are the end-to-end ones, with --trace 1 the per-layer
/// ones (and the spans are written to .bench_build/e2ebench-spans/).
/// Exits 1 when any correctness check failed, 2 on bad arguments.
///
//===----------------------------------------------------------------------===//

#include "Checks.h"
#include "Harness.h"
#include "Workloads.h"

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>

using namespace e2e;

namespace {

int usage(const char *Argv0) {
  std::fprintf(stderr,
               "usage: %s --workload <cold-paper|warm-lookup|mixed-serve> "
               "--seed N --seconds S --trace <0|1>\n       %s --self-test\n",
               Argv0, Argv0);
  return 2;
}

} // namespace

int main(int argc, char **argv) {
  Options O;
  bool SelfTest = false;
  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    auto value = [&]() -> const char * {
      return I + 1 < argc ? argv[++I] : nullptr;
    };
    const char *V = nullptr;
    if (Arg == "--self-test")
      SelfTest = true;
    else if (Arg == "--workload" && (V = value()))
      O.Workload = V;
    else if (Arg == "--seed" && (V = value()))
      O.Seed = std::strtoull(V, nullptr, 10);
    else if (Arg == "--seconds" && (V = value()))
      O.Seconds = std::atof(V);
    else if (Arg == "--trace" && (V = value()))
      O.Trace = std::string(V) == "1";
    else
      return usage(argv[0]);
  }
  if (!SelfTest && (O.Workload.empty() || !(O.Seconds > 0)))
    return usage(argv[0]);

  namespace fs = std::filesystem;
  const fs::path Scratch = fs::path(".bench_build") / "e2ebench-work" /
                           (O.Workload + "-" + std::to_string(getpid()));
  fs::remove_all(Scratch);
  fs::create_directories(Scratch);
  O.WorkDir = Scratch.string();

  if (SelfTest) {
    int Rc = runSelfTest(O);
    fs::remove_all(Scratch);
    return Rc;
  }

  Tracer T(O.Trace);
  RunReport R;
  if (O.Workload == "cold-paper")
    R = runColdPaper(O, T);
  else if (O.Workload == "warm-lookup")
    R = runWarmLookup(O, T);
  else if (O.Workload == "mixed-serve")
    R = runMixedServe(O, T);
  else
    return usage(argv[0]);

  // The capacity record, taken after the timed phase.
  const unsigned Nproc = std::thread::hardware_concurrency();
  const double Capacity = parallelCapacity(Nproc);
  R.note("host: nproc " + std::to_string(Nproc) + ", parallel capacity " +
         std::to_string(Capacity) + "x (" + std::to_string(Nproc) +
         " busy threads vs 1)");
  if (T.enabled()) {
    R.metric("host.nproc", double(Nproc), "count");
    R.metric("host.parallel_capacity", Capacity, "x");
    const fs::path SpanDir = fs::path(".bench_build") / "e2ebench-spans";
    fs::create_directories(SpanDir);
    const fs::path SpanFile =
        SpanDir / (O.Workload + "-seed" + std::to_string(O.Seed) + ".jsonl");
    R.note("spans: " + std::to_string(T.size()) + " written to " +
           SpanFile.string());
    T.writeJsonl(SpanFile.string());
  }
  fs::remove_all(Scratch);
  printReport(R);
  return R.Correct ? 0 : 1;
}
