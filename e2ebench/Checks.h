//===- e2ebench/Checks.h - Property checks on the program's outputs --------===//
//
// Part of the CuAsmRL reproduction. Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Every check tests a property the method must have, never equality
/// with a stored copy of an earlier output. Each returns an empty
/// string when the property holds, otherwise why it does not.
///
//===----------------------------------------------------------------------===//

#ifndef CUASMRL_E2EBENCH_CHECKS_H
#define CUASMRL_E2EBENCH_CHECKS_H

#include "Harness.h"

#include "core/Optimizer.h"
#include "net/Wire.h"

#include <optional>

namespace e2e {

namespace cr = cuasmrl;

/// The optimized schedule holds exactly the -O3 schedule's
/// instructions, with every label where it was: the assembly game only
/// reorders.
std::string checkPermutation(const cr::sass::Program &O3,
                             const cr::sass::Program &Opt);

/// The search never reports a schedule slower than the one it started
/// from.
std::string checkNotSlower(double TritonUs, double OptimizedUs);

/// A re-measurement agrees with the reported time within the
/// simulator's measurement noise.
std::string checkRemeasured(double ReportedUs, double MeasuredUs,
                            double NoiseStddev);

/// On inputs drawn from \p Seed, \p Opt on the timed machine writes the
/// same output as \p O3 on the oracle machine. \p OptOutput receives
/// the optimized run's output.
std::string checkSameOutput(cr::gpusim::Gpu &Device,
                            const cr::kernels::BuiltKernel &Kernel,
                            const cr::sass::Program &O3,
                            const cr::sass::Program &Opt, uint64_t Seed,
                            std::vector<uint32_t> *OptOutput = nullptr);

/// Each softmax output row sums to 1 within fp tolerance.
std::string checkSoftmaxRows(const cr::kernels::WorkloadShape &Shape,
                             const std::vector<uint32_t> &Output);

/// \p Bytes equal the file at \p Path, read independently of the
/// deploy cache.
std::string checkFileBytes(const std::string &Path,
                           const std::vector<uint8_t> &Bytes);

/// Two responses to the same request agree on everything but wall
/// time.
std::string checkWireEqual(const cr::net::WireResponse &A,
                           const cr::net::WireResponse &B);

/// One optimize-job outcome to check.
struct OptimizedCase {
  cr::kernels::WorkloadKind Kind = cr::kernels::WorkloadKind::Softmax;
  cr::kernels::WorkloadShape Shape;
  /// The autotuner's winner when the response carries it; otherwise
  /// the check re-runs the (deterministic) sweep to find it.
  std::optional<cr::kernels::TileConfig> Config;
  cr::cubin::CubinFile Binary;
  double TritonUs = 0.0;
  double OptimizedUs = 0.0;
  cr::core::OptimizeConfig Job;
  uint64_t Seed = 1;
};

/// What checking one case measured on the simulator.
struct CaseMeasure {
  double MeasureUs = 0.0;   ///< Wall time of the two re-measurements.
  uint64_t SimCycles = 0;   ///< Simulated cycles of both schedules.
  uint64_t SimInstrs = 0;   ///< Instructions those runs issued.
};

/// Runs every optimized-cubin property but the softmax row sums on
/// \p C; failures go to \p R. \p Output receives the optimized
/// schedule's output on the seeded inputs.
CaseMeasure checkOptimized(const OptimizedCase &C, RunReport &R,
                           std::vector<uint32_t> &Output);

/// Feeds each check a corrupted input (a swapped dependent pair, a
/// flipped cubin byte, a dropped instruction, and one bad value per
/// remaining check) and shows it fails, and that it passes on the
/// uncorrupted input. \returns 0 when every check behaves.
int runSelfTest(const Options &O);

} // namespace e2e

#endif // CUASMRL_E2EBENCH_CHECKS_H
