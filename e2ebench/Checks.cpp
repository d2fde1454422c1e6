//===- e2ebench/Checks.cpp --------------------------------------------------===//
//
// Part of the CuAsmRL reproduction. Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "Checks.h"

#include "gpusim/Measurement.h"
#include "support/StringUtils.h"
#include "triton/Autotuner.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>

using namespace e2e;
using namespace cuasmrl;

std::string e2e::checkPermutation(const sass::Program &O3,
                                  const sass::Program &Opt) {
  if (O3.size() != Opt.size())
    return "statement count " + std::to_string(Opt.size()) + " != -O3's " +
           std::to_string(O3.size());
  std::vector<std::string> A, B;
  for (size_t I = 0; I < O3.size(); ++I) {
    const sass::Statement &X = O3.stmt(I), &Y = Opt.stmt(I);
    if (X.isLabel() != Y.isLabel() ||
        (X.isLabel() && X.label() != Y.label()))
      return "label moved at statement " + std::to_string(I);
    if (X.isInstr()) {
      A.push_back(X.instr().str());
      B.push_back(Y.instr().str());
    }
  }
  std::sort(A.begin(), A.end());
  std::sort(B.begin(), B.end());
  if (A != B)
    return "instruction multiset differs from -O3's";
  return "";
}

std::string e2e::checkNotSlower(double TritonUs, double OptimizedUs) {
  if (!(OptimizedUs > 0.0) || !(OptimizedUs <= TritonUs))
    return "optimized " + std::to_string(OptimizedUs) + " us > -O3 " +
           std::to_string(TritonUs) + " us";
  return "";
}

std::string e2e::checkRemeasured(double ReportedUs, double MeasuredUs,
                                 double NoiseStddev) {
  // Four standard deviations of the multiplicative timing noise.
  double Tol = 4.0 * NoiseStddev * ReportedUs + 1e-9;
  if (!(std::fabs(MeasuredUs - ReportedUs) <= Tol))
    return "re-measured " + std::to_string(MeasuredUs) + " us vs reported " +
           std::to_string(ReportedUs) + " us";
  return "";
}

std::string e2e::checkSameOutput(gpusim::Gpu &Device,
                                 const kernels::BuiltKernel &Kernel,
                                 const sass::Program &O3,
                                 const sass::Program &Opt, uint64_t Seed,
                                 std::vector<uint32_t> *OptOutput) {
  Rng RefStream(Seed);
  Kernel.randomizeInputs(Device, RefStream);
  gpusim::RunResult Ref = Device.run(O3, Kernel.Launch, gpusim::RunMode::Oracle);
  if (!Ref.Valid)
    return "-O3 oracle run faulted: " + Ref.FaultReason;
  std::vector<uint32_t> Expected = Kernel.readOutput(Device);

  Rng CandStream(Seed);
  Kernel.randomizeInputs(Device, CandStream);
  gpusim::RunResult Got = Device.run(Opt, Kernel.Launch, gpusim::RunMode::Timed);
  if (!Got.Valid)
    return "optimized timed run faulted: " + Got.FaultReason;
  std::vector<uint32_t> Out = Kernel.readOutput(Device);
  if (OptOutput)
    *OptOutput = Out;
  if (Out != Expected)
    return "optimized output differs from the -O3 oracle output";
  return "";
}

std::string e2e::checkSoftmaxRows(const kernels::WorkloadShape &Shape,
                                  const std::vector<uint32_t> &Output) {
  if (Output.size() != size_t(Shape.Rows) * Shape.Cols)
    return "softmax output has " + std::to_string(Output.size()) + " words";
  for (unsigned R = 0; R < Shape.Rows; ++R) {
    double Sum = 0.0;
    for (unsigned C = 0; C < Shape.Cols; ++C) {
      float F;
      std::memcpy(&F, &Output[size_t(R) * Shape.Cols + C], sizeof(F));
      Sum += F;
    }
    if (!(std::fabs(Sum - 1.0) <= 1e-3))
      return "softmax row " + std::to_string(R) + " sums to " +
             std::to_string(Sum);
  }
  return "";
}

std::string e2e::checkFileBytes(const std::string &Path,
                                const std::vector<uint8_t> &Bytes) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return "cannot read " + Path;
  std::vector<uint8_t> File((std::istreambuf_iterator<char>(In)),
                            std::istreambuf_iterator<char>());
  if (File != Bytes)
    return "bytes differ from " + std::filesystem::path(Path).filename().string();
  return "";
}

std::string e2e::checkWireEqual(const net::WireResponse &A,
                                const net::WireResponse &B) {
  bool Same = A.St == B.St && A.Key == B.Key && A.HasBinary == B.HasBinary &&
              A.Binary.serialize() == B.Binary.serialize() &&
              A.Persisted == B.Persisted && A.DegradedFrom == B.DegradedFrom &&
              A.WarmStartedFrom == B.WarmStartedFrom && A.Error == B.Error &&
              A.AutotuneValid == B.AutotuneValid && A.Verified == B.Verified &&
              A.TritonUs == B.TritonUs && A.OptimizedUs == B.OptimizedUs &&
              A.TrainingUpdates == B.TrainingUpdates &&
              A.WarmStartTensors == B.WarmStartTensors;
  if (!Same)
    return std::string("responses differ (") + net::statusName(A.St) + " vs " +
           net::statusName(B.St) + ", key " + A.Key + ")";
  return "";
}

namespace {

/// The reward-loop measurement protocol the game applied to \p Prog:
/// the job's measure config on at most two resident blocks, with the
/// noise seed derived from the schedule's identity.
gpusim::MeasureConfig gameMeasure(const core::OptimizeConfig &Job,
                                  gpusim::Gpu &Device,
                                  const kernels::BuiltKernel &Kernel,
                                  const sass::Program &Prog) {
  gpusim::MeasureConfig MC = Job.Game.Measure;
  if (MC.MaxBlocks == 0)
    MC.MaxBlocks = std::min(Device.residentBlocks(Kernel.Launch), 2u);
  MC.Seed = gpusim::MeasurementCache::deriveSeed(
      Job.Game.Measure.Seed, gpusim::MeasurementCache::keyFor(Prog).Check);
  return MC;
}

kernels::TileConfig winningConfig(const OptimizedCase &C,
                                  const gpusim::Gpu &Device) {
  if (C.Config)
    return *C.Config;
  triton::AutotuneOptions TO;
  TO.Measure = C.Job.AutotuneMeasure;
  TO.BaseSeed = C.Job.AutotuneSeed;
  triton::Autotuner Tuner(TO);
  return Tuner.tune(Device, C.Kind, C.Shape).Best;
}

} // namespace

CaseMeasure e2e::checkOptimized(const OptimizedCase &C, RunReport &R,
                                std::vector<uint32_t> &Output) {
  CaseMeasure M;
  const std::string Tag = kernels::workloadName(C.Kind) + ": ";
  gpusim::Gpu Device;
  Rng DataRng(mixSeed(C.Seed, 0x0b5e55edull));
  triton::CompiledKernel O3 = triton::compileKernel(
      Device, C.Kind, C.Shape, winningConfig(C, Device), DataRng);
  Expected<sass::Program> Opt = cubin::disassemble(C.Binary);
  if (!R.check(Tag + "disassemble", Opt ? "" : Opt.error().message()))
    return M;

  R.check(Tag + "permutation", checkPermutation(O3.Runtime.Prog, *Opt));
  R.check(Tag + "optimized <= -O3", checkNotSlower(C.TritonUs, C.OptimizedUs));

  // Re-measure both schedules on this fresh simulator.
  const double Noise = C.Job.Game.Measure.NoiseStddev;
  TimePoint Start = SteadyClock::now();
  gpusim::Measurement MO3 = gpusim::measureKernel(
      Device, O3.Runtime.Prog, O3.Runtime.Launch,
      gameMeasure(C.Job, Device, O3.Runtime, O3.Runtime.Prog));
  gpusim::Measurement MOpt = gpusim::measureKernel(
      Device, *Opt, O3.Runtime.Launch,
      gameMeasure(C.Job, Device, O3.Runtime, *Opt));
  M.MeasureUs = usBetween(Start, SteadyClock::now());
  M.SimCycles = MO3.Cycles + MOpt.Cycles;
  M.SimInstrs = MO3.Counters.IssuedInstrs + MOpt.Counters.IssuedInstrs;
  R.check(Tag + "-O3 re-measure", MO3.Valid ? checkRemeasured(C.TritonUs, MO3.MeanUs, Noise)
                                            : MO3.FaultReason);
  R.check(Tag + "optimized re-measure",
          MOpt.Valid ? checkRemeasured(C.OptimizedUs, MOpt.MeanUs, Noise)
                     : MOpt.FaultReason);

  R.check(Tag + "same output",
          checkSameOutput(Device, O3.Runtime, O3.Runtime.Prog, *Opt,
                          mixSeed(C.Seed, fnv1a64(kernels::workloadName(C.Kind))),
                          &Output));
  return M;
}

namespace {

int expect(bool Ok, const char *What) {
  std::printf("  %-52s %s\n", What, Ok ? "ok" : "WRONG");
  return Ok ? 0 : 1;
}

/// The first adjacent pair (I, I+1) where I+1 reads a register I
/// writes; Program::npos when there is none.
size_t firstDependentPair(const sass::Program &P) {
  for (size_t I = 0; I + 1 < P.size(); ++I) {
    if (!P.stmt(I).isInstr() || !P.stmt(I + 1).isInstr())
      continue;
    const sass::Instruction &A = P.stmt(I).instr(), &B = P.stmt(I + 1).instr();
    if (A.isControlFlow() || B.isControlFlow())
      continue;
    for (const sass::Register &D : A.regDefs())
      for (const sass::Register &U : B.regUses())
        if (D == U)
          return I;
  }
  return sass::Program::npos;
}

} // namespace

int e2e::runSelfTest(const Options &O) {
  std::printf("e2ebench self-test\n");
  int Bad = 0;
  const kernels::WorkloadKind Kind = kernels::WorkloadKind::Softmax;
  const kernels::WorkloadShape Shape = kernels::testShape(Kind);
  gpusim::Gpu Device;
  Rng DataRng(O.Seed);
  triton::Autotuner Tuner;
  triton::CompiledKernel K = triton::compileKernel(
      Device, Kind, Shape, Tuner.tune(Device, Kind, Shape).Best, DataRng);
  const sass::Program &P = K.Runtime.Prog;

  // Swapped dependent pair: still a permutation, but the consumer now
  // reads a stale register, so the output check must catch it.
  size_t Pair = firstDependentPair(P);
  Bad += expect(Pair != sass::Program::npos, "kernel has a dependent pair");
  if (Pair != sass::Program::npos) {
    sass::Program Swapped = P;
    Swapped.swap(Pair, Pair + 1);
    Bad += expect(checkPermutation(P, Swapped).empty(),
                  "swapped pair is still a permutation");
    Bad += expect(!checkSameOutput(Device, K.Runtime, P, Swapped, O.Seed).empty(),
                  "same-output fails on a swapped dependent pair");
  }
  std::vector<uint32_t> Out;
  Bad += expect(checkSameOutput(Device, K.Runtime, P, P, O.Seed, &Out).empty(),
                "same-output passes on the -O3 schedule");
  // The row-sum check against an exact softmax of seeded values (the
  // simulated kernel's own output fails it; see README.md).
  std::vector<uint32_t> Exact(size_t(Shape.Rows) * Shape.Cols);
  Rng Values(O.Seed);
  for (unsigned Row = 0; Row < Shape.Rows; ++Row) {
    std::vector<double> E(Shape.Cols);
    double Sum = 0.0;
    for (double &X : E)
      Sum += X = std::exp(Values.uniformReal(-4.0, 4.0));
    for (unsigned Col = 0; Col < Shape.Cols; ++Col) {
      float F = float(E[Col] / Sum);
      std::memcpy(&Exact[size_t(Row) * Shape.Cols + Col], &F, sizeof(F));
    }
  }
  Bad += expect(checkSoftmaxRows(Shape, Exact).empty(),
                "softmax rows pass on an exact softmax");
  float F;
  std::memcpy(&F, &Exact[0], sizeof(F));
  F += 0.5f;
  std::memcpy(&Exact[0], &F, sizeof(F));
  Bad += expect(!checkSoftmaxRows(Shape, Exact).empty(),
                "softmax rows fail on a perturbed row");

  // Dropped instruction.
  sass::Program Dropped(P.name());
  bool Skipped = false;
  for (const sass::Statement &S : P.statements()) {
    if (!Skipped && S.isInstr()) {
      Skipped = true;
      continue;
    }
    Dropped.append(S);
  }
  Bad += expect(checkPermutation(P, P).empty(), "permutation passes on -O3");
  Bad += expect(!checkPermutation(P, Dropped).empty(),
                "permutation fails on a dropped instruction");

  // Flipped cubin byte.
  std::vector<uint8_t> Bytes = K.Binary.serialize();
  std::string Path = O.WorkDir + "/selftest.cubin";
  {
    std::ofstream Out(Path, std::ios::binary);
    Out.write(reinterpret_cast<const char *>(Bytes.data()),
              std::streamsize(Bytes.size()));
  }
  Bad += expect(checkFileBytes(Path, Bytes).empty(),
                "file bytes pass on the stored cubin");
  std::vector<uint8_t> Flipped = Bytes;
  Flipped[Flipped.size() / 2] ^= 0x10;
  Bad += expect(!checkFileBytes(Path, Flipped).empty(),
                "file bytes fail on a flipped cubin byte");
  std::filesystem::remove(Path);

  net::WireResponse A;
  A.St = net::WireStatus::LookupHit;
  A.HasBinary = true;
  A.Binary = K.Binary;
  net::WireResponse B = A;
  Bad += expect(checkWireEqual(A, B).empty(), "wire equality passes on a copy");
  Expected<cubin::CubinFile> Corrupt = cubin::CubinFile::deserialize(Flipped);
  if (Corrupt)
    B.Binary = *Corrupt;
  else
    B.HasBinary = false;
  Bad += expect(!checkWireEqual(A, B).empty(),
                "wire equality fails on a flipped cubin byte");

  Bad += expect(!checkNotSlower(10.0, 10.5).empty(),
                "optimized <= -O3 fails on a slower schedule");
  Bad += expect(!checkRemeasured(10.0, 10.5, 0.003).empty(),
                "re-measure fails on a 5% gap");
  Bad += expect(checkRemeasured(10.0, 10.001, 0.003).empty(),
                "re-measure passes within the noise");
  std::printf("self-test: %s\n", Bad ? "FAILED" : "passed");
  return Bad ? 1 : 0;
}
