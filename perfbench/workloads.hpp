// The benchmark's four workloads: their inputs, the simulations of one
// round, the experiment configuration of each simulation, and the checks
// its outputs must pass. Every check compares against a figure computed
// here from the workload's own parameters, or against a property the
// method must have; none compares against a saved copy of earlier output.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "exp/experiment.hpp"
#include "group/group.hpp"
#include "sim/churn.hpp"
#include "trace/record.hpp"

namespace perfbench {

enum class WorkloadKind { kNormStorm, kGpWide, kHplFaults, kServiceChurn };

struct Workload {
  WorkloadKind kind;
  const char* name;
  int nranks;
  int setup_reps;   ///< set-up batches per run; setup_s is their median
  int setup_batch;  ///< set-ups per batch, timed together
};

/// All workloads, in the order BENCHMARK.json lists them.
const std::vector<Workload>& workloads();
const Workload* find_workload(std::string_view name);

/// The 1-D stencil of the coordination-storm workloads (the app of
/// bench/fig_scale_extrapolation): ranks talk only inside blocks of `block`.
struct StencilShape {
  int iterations = 40;
  int block = 8;
  std::int64_t halo_bytes = 32 * 1024;
};

/// One simulation of a round. `seed` is ExperimentConfig::seed, which also
/// seeds the fault and churn models.
struct SimSpec {
  std::uint64_t seed = 1;
  gcr::sim::ChurnModelKind churn = gcr::sim::ChurnModelKind::kNone;
};
std::string sim_label(const SimSpec& spec);

/// What set-up builds before the first simulation.
struct Inputs {
  gcr::exp::AppFactory app;
  gcr::group::GroupSet groups;
  double profile_s = 0;    ///< host span of exp::profile_app (0: none)
  double formation_s = 0;  ///< host span of group::form_groups_from_trace
  std::string error;       ///< failed set-up check ("" = passed)
};

Inputs build_inputs(const Workload& w, std::uint64_t seed);

/// The simulations of one round. norm_storm and gp_wide run one
/// simulation seeded by `seed`. hpl_faults and service_churn run a fixed
/// list of fault/churn seeds (see fixed_specs) in an order `seed` shuffles.
std::vector<SimSpec> round_of(const Workload& w, std::uint64_t seed);

/// hpl_faults: seeds [from, to]. service_churn: spot then rolling churn,
/// seeds [from, to] each. Other workloads: seeds [from, to].
std::vector<SimSpec> specs_for_seeds(const Workload& w, int from, int to);

gcr::exp::ExperimentConfig make_config(const Workload& w, const Inputs& in,
                                       const SimSpec& spec);

/// "" when the result passes every check of its workload, else the name of
/// the first failed check.
std::string check_result(const Workload& w,
                         const gcr::exp::ExperimentConfig& config,
                         const gcr::exp::ExperimentResult& result);

// The individual checks, exposed for the benchmark's tests.
std::string check_stencil(const gcr::exp::ExperimentResult& result,
                          int nranks, const StencilShape& shape);
std::string check_blocks(const gcr::group::GroupSet& groups, int nranks,
                         int block);
/// Algorithm 2 (group formation) re-derived from the send records of a
/// profiling trace: pairs by size, then count, merged under `max_size`.
std::vector<std::vector<int>> reference_formation(
    const gcr::trace::Trace& trace, int nranks, int max_size);
std::string check_formation(const gcr::group::GroupSet& groups,
                            const gcr::trace::Trace& trace, int nranks,
                            int max_size);
std::string check_hpl_faults(const gcr::exp::ExperimentResult& result,
                             double bb_capacity_bytes);
std::string check_service(const gcr::exp::ExperimentResult& result,
                          int nranks, std::uint64_t requests_per_rank);

}  // namespace perfbench
