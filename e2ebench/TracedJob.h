//===- e2ebench/TracedJob.h - One optimize job, stage by stage, traced -----===//
//
// Part of the CuAsmRL reproduction. Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The traced run cannot look inside OptimizationService's job, so it
/// drives the same stages itself through their public entry points —
/// autotune, compile + intercept, game construction, rollout collect,
/// PPO update, greedy replay, probabilistic test, substitution, deploy
/// store — in the order core::Optimizer::optimize runs them, with one
/// span around each call and one around every env step.
///
//===----------------------------------------------------------------------===//

#ifndef CUASMRL_E2EBENCH_TRACEDJOB_H
#define CUASMRL_E2EBENCH_TRACEDJOB_H

#include "Harness.h"

#include "core/Optimizer.h"

namespace e2e {

namespace cr = cuasmrl;

struct TracedJob {
  cr::core::OptimizeResult Result;
  int64_t Span = -1;           ///< The whole job.
  size_t AutotuneCandidates = 0;
};

/// Runs one optimize job for (\p Kind, \p Shape) under \p Config on
/// \p Device, persisting a verified winner under \p Key in \p Deploy.
TracedJob runTracedJob(const cr::core::OptimizeConfig &Config,
                       cr::gpusim::Gpu &Device, cr::kernels::WorkloadKind Kind,
                       const cr::kernels::WorkloadShape &Shape,
                       cr::Rng &DataRng, cr::triton::DeployCache &Deploy,
                       const std::string &Key, Tracer &T, uint64_t Request);

} // namespace e2e

#endif // CUASMRL_E2EBENCH_TRACEDJOB_H
