//===- e2ebench/Workloads.h - The three benchmark workloads -----------------===//
//
// Part of the CuAsmRL reproduction. Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// cold-paper, warm-lookup and mixed-serve (see README.md for their
/// inputs and why each exists). Each fills a RunReport with the
/// end-to-end metrics (untraced run) or the per-layer metrics (traced
/// run), its operation counts and every check result.
///
//===----------------------------------------------------------------------===//

#ifndef CUASMRL_E2EBENCH_WORKLOADS_H
#define CUASMRL_E2EBENCH_WORKLOADS_H

#include "Harness.h"

namespace e2e {

RunReport runColdPaper(const Options &O, Tracer &T);
RunReport runWarmLookup(const Options &O, Tracer &T);
RunReport runMixedServe(const Options &O, Tracer &T);

} // namespace e2e

#endif // CUASMRL_E2EBENCH_WORKLOADS_H
