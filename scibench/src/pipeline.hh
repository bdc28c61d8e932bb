/**
 * @file
 * Pieces shared by the pipeline workloads (mine, mine-persist) and by
 * the check workload's untimed preparation.
 */

#ifndef SCIBENCH_PIPELINE_HH
#define SCIBENCH_PIPELINE_HH

#include <string>

#include "core/scifinder.hh"
#include "report.hh"

namespace scibench {

/** Set-up and untraced repetitions: set-up is timed this many times
 *  per run and reported as the median. */
constexpr int kSetupRepeats = 7;

/** Worker threads of every pipeline run: the 4 cores of the
 *  reference host. */
constexpr size_t kJobs = 4;

/** Inference seeds a pipeline run cycles through: iteration i uses
 *  seed stream i % kInferenceSeeds, so a run's median covers several
 *  train/test splits and fold assignments, and repeated streams check
 *  that one seed always infers the same set. */
constexpr uint64_t kInferenceSeeds = 4;

/** The pipeline configuration of a workload: the full 17-program
 *  corpus, the 24-program validation corpus, kJobs workers,
 *  and inference seed stream 0 of the workload seed. */
scif::core::PipelineConfig pipelineConfig(const Options &options);

/** Set phase 4's split and fold seeds to stream @p k of @p seed. */
void seedInference(scif::core::PipelineConfig &cfg, uint64_t seed,
                   uint64_t k);

/** Create @p dir (and parents); returns it. */
std::string makeDir(const std::string &dir);

/**
 * The phase 1-3 output checks: 16 of the 17 Table 1 bugs have at
 * least one SCI and b2 has none; the raw and optimized invariant
 * counts and the per-bug SCI sets match the digest recorded for the
 * corpus; the model and SCI-database artifacts at @p modelPath and
 * @p dbPath match their recorded digests.
 */
bool phase13Holds(const scif::core::PipelineResult &result,
                  const std::string &modelPath, const std::string &dbPath,
                  const Options &options, Report &report);

} // namespace scibench

#endif // SCIBENCH_PIPELINE_HH
