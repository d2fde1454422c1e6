//===- e2ebench/TracedJob.cpp -----------------------------------------------===//
//
// Part of the CuAsmRL reproduction. Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "TracedJob.h"

#include "core/GameEnvAdapter.h"
#include "triton/DeployCache.h"

#include <sstream>

using namespace e2e;
using namespace cuasmrl;

namespace {

/// Times rl::Env::step on the game adapter. It offers no lockstep
/// surface, so the rollout engine steps it slot-major, which the
/// engine's contract makes bit-identical to the lockstep path.
class TimedEnv : public rl::Env {
public:
  TimedEnv(std::unique_ptr<core::GameEnvAdapter> Inner, Tracer &T,
           const int64_t &Parent, uint64_t Request)
      : Inner(std::move(Inner)), T(T), Parent(Parent), Request(Request) {}

  std::vector<float> reset() override { return Inner->reset(); }
  rl::EnvStep step(unsigned Action) override {
    ScopedSpan S(T, "env.step", Parent, Request);
    return Inner->step(Action);
  }
  std::vector<uint8_t> actionMask() override { return Inner->actionMask(); }
  unsigned actionCount() const override { return Inner->actionCount(); }
  size_t obsRows() const override { return Inner->obsRows(); }
  size_t obsFeatures() const override { return Inner->obsFeatures(); }

  env::AssemblyGame &game() { return Inner->game(); }

private:
  std::unique_ptr<core::GameEnvAdapter> Inner;
  Tracer &T;
  const int64_t &Parent; ///< The enclosing collect span.
  uint64_t Request;
};

} // namespace

TracedJob e2e::runTracedJob(const core::OptimizeConfig &Config,
                            gpusim::Gpu &Device, kernels::WorkloadKind Kind,
                            const kernels::WorkloadShape &Shape, Rng &DataRng,
                            triton::DeployCache &Deploy, const std::string &Key,
                            Tracer &T, uint64_t Request) {
  TracedJob Job;
  ScopedSpan JobSpan(T, "job", -1, Request);
  Job.Span = JobSpan.id();
  core::OptimizeResult &Result = Job.Result;

  triton::AutotuneResult Tuned;
  {
    ScopedSpan S(T, "triton.autotune", Job.Span, Request);
    triton::AutotuneOptions TO;
    TO.Measure = Config.AutotuneMeasure;
    TO.Workers = Config.AutotuneWorkers;
    TO.BaseSeed = Config.AutotuneSeed;
    triton::Autotuner Tuner(TO);
    Tuned = Tuner.tune(Device, Kind, Shape);
  }
  Job.AutotuneCandidates = Tuned.Sweep.size();
  if (!Tuned.Valid) {
    Result.AutotuneValid = false;
    return Job;
  }
  Result.BestConfig = Tuned.Best;

  triton::CompiledKernel Compiled;
  {
    ScopedSpan S(T, "triton.compile", Job.Span, Request);
    Compiled = triton::compileKernel(Device, Kind, Shape, Tuned.Best, DataRng);
    Expected<sass::Program> Intercepted = triton::interceptCubin(Compiled);
    if (!Intercepted)
      return Job;
  }

  // One game (OptimizeConfig::NumEnvs defaults to 1) on the job's own
  // device, sharing the measurement cache the optimizer would give it.
  std::shared_ptr<gpusim::MeasurementCache> Cache;
  int64_t CollectSpan = -1;
  std::vector<std::unique_ptr<rl::Env>> Envs;
  TimedEnv *Env = nullptr;
  {
    ScopedSpan S(T, "env.build", Job.Span, Request);
    env::GameConfig GC = Config.Game;
    if (GC.CacheMeasurements)
      Cache = std::make_shared<gpusim::MeasurementCache>(GC.Measure.Seed);
    GC.SharedCache = Cache;
    GC.RecordTrace = false;
    auto Game =
        std::make_unique<env::AssemblyGame>(Device, Compiled.Runtime, GC);
    auto Owned = std::make_unique<TimedEnv>(
        std::make_unique<core::GameEnvAdapter>(std::move(Game)), T,
        CollectSpan, Request);
    Env = Owned.get();
    Envs.push_back(std::move(Owned));
  }

  std::unique_ptr<rl::RolloutRunner> Runner;
  std::unique_ptr<rl::PpoTrainer> Trainer;
  {
    ScopedSpan S(T, "rl.setup", Job.Span, Request);
    rl::RolloutConfig RC;
    RC.Workers = 1;
    RC.Seed = Config.Ppo.Seed;
    Runner = std::make_unique<rl::RolloutRunner>(std::move(Envs), RC);
    Trainer = std::make_unique<rl::PpoTrainer>(*Runner, Config.Ppo);
  }

  // PpoTrainer::train(): collect + update until the step budget.
  unsigned StepsDone = 0;
  while (StepsDone < Config.Ppo.TotalSteps) {
    rl::TrajectoryBatch Batch;
    {
      ScopedSpan S(T, "rl.collect", Job.Span, Request);
      CollectSpan = S.id();
      Batch = Runner->collect(Trainer->net(), Config.Ppo.RolloutLen);
    }
    ScopedSpan S(T, "rl.update", Job.Span, Request);
    rl::UpdateStats U = Trainer->updateFromBatch(Batch);
    StepsDone = U.StepsDone;
    Result.Training.push_back(U);
  }

  env::AssemblyGame &Game = Env->game();
  Result.TritonUs = Game.initialTimeUs();
  {
    ScopedSpan S(T, "rl.greedy", Job.Span, Request);
    Game.setTraceRecording(Config.Game.RecordTrace);
    core::GameEnvAdapter Probe(Game);
    Trainer->playGreedy(Probe, Config.Game.EpisodeLength);
  }
  Result.OptimizedUs = Game.bestTimeUs();
  Result.OptimizedProg = Game.best();
  Result.KernelExecutions = Game.measurementsTaken();
  Result.RolloutCounters = Game.simCounters();
  if (Cache)
    Cache->accumulate(Result.RolloutCounters);

  {
    ScopedSpan S(T, "triton.verify", Job.Span, Request);
    Result.Verified = triton::probabilisticTest(
        Device, Compiled.Runtime, Compiled.Runtime.Prog, Result.OptimizedProg,
        Config.ProbTestRounds, DataRng);
  }
  {
    ScopedSpan S(T, "rl.save", Job.Span, Request);
    std::ostringstream Blob;
    Trainer->net().save(Blob);
    Result.PolicyBlob = Blob.str();
  }
  // The game refers to Compiled.Runtime; release it before moving.
  Trainer.reset();
  Runner.reset();
  Result.Kernel = std::move(Compiled);
  if (Result.Verified) {
    {
      ScopedSpan S(T, "triton.substitute", Job.Span, Request);
      triton::substituteSchedule(Result.Kernel, Result.OptimizedProg);
    }
    ScopedSpan S(T, "triton.deploy_store", Job.Span, Request);
    Deploy.store(Key, Result.Kernel.Binary);
  }
  return Job;
}
