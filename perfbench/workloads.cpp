#include "workloads.hpp"

#include <algorithm>
#include <chrono>
#include <map>
#include <numeric>
#include <tuple>

#include "apps/hpl.hpp"
#include "apps/service.hpp"
#include "apps/simple.hpp"
#include "group/formation.hpp"
#include "group/strategies.hpp"

namespace perfbench {
namespace {

using gcr::exp::ExperimentConfig;
using gcr::exp::ExperimentResult;
using gcr::group::GroupSet;

constexpr StencilShape kStencil{};

// hpl_faults: HPL at the paper's 128 processes (P = 8, Table 1), periodic
// checkpoints through the drain tier, per-node exponential faults.
constexpr int kHplGridRows = 8;
constexpr double kHplInterval_s = 30.0;
constexpr double kHplNodeMtbf_s = 2000.0;
constexpr int kHplSeeds = 20;

// service_churn: the service app at 64 ranks with the defaults of
// bench/ablation_elastic, on the drain tier, under spot and rolling churn.
// Reclaims arrive every 20 s on average (the ablation's default is 40 s),
// about five in the 100 s service window.
constexpr std::uint64_t kServiceRequests = 400;
constexpr double kServiceMtbd_s = 20.0;
constexpr double kServiceRate_hz = 4.0;
constexpr int kServiceBlock = 4;
constexpr int kServiceSeeds = 15;

gcr::apps::ServiceParams service_params() {
  gcr::apps::ServiceParams sp;
  sp.requests = kServiceRequests;
  sp.arrival_rate_hz = kServiceRate_hz;
  sp.slo_s = 0.5;
  sp.cluster_width = kServiceBlock;
  return sp;
}

gcr::exp::AppFactory stencil_app() {
  return [](int nranks) {
    gcr::apps::Stencil1dParams p;
    p.iterations = static_cast<std::uint64_t>(kStencil.iterations);
    p.halo_bytes = kStencil.halo_bytes;
    p.compute_s = 0.005;
    p.mem_bytes = 4 * 1024 * 1024;
    p.cluster_width = kStencil.block;
    return gcr::apps::make_stencil1d(nranks, p);
  };
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Profiling run, then Algorithm 2, each inside its own span. Returns the
/// profiling trace for the set-up checks.
gcr::trace::Trace derive_groups(Inputs& in, int nranks, int max_group_size,
                                std::uint64_t seed) {
  auto t0 = std::chrono::steady_clock::now();
  gcr::trace::Trace trace = gcr::exp::profile_app(in.app, nranks, seed);
  in.profile_s = seconds_since(t0);
  gcr::group::FormationOptions options;
  options.max_group_size = max_group_size;
  t0 = std::chrono::steady_clock::now();
  in.groups = gcr::group::form_groups_from_trace(nranks, trace, options);
  in.formation_s = seconds_since(t0);
  return trace;
}

/// Groups as sorted member lists, sorted, so partitions compare by content.
std::vector<std::vector<int>> canonical(const GroupSet& groups) {
  std::vector<std::vector<int>> out;
  for (int g = 0; g < groups.num_groups(); ++g) {
    std::vector<int> m(groups.members(g).begin(), groups.members(g).end());
    std::sort(m.begin(), m.end());
    out.push_back(std::move(m));
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::string compare_partition(const GroupSet& groups,
                              std::vector<std::vector<int>> want,
                              const char* what) {
  for (std::vector<int>& m : want) std::sort(m.begin(), m.end());
  std::sort(want.begin(), want.end());
  if (canonical(groups) == want) return "";
  return std::string("groups are not ") + what + " (got " +
         std::to_string(groups.num_groups()) + " groups, want " +
         std::to_string(want.size()) + ")";
}

std::string check_finished(const ExperimentResult& r) {
  return r.finished ? "" : "watchdog: simulation did not finish";
}

/// splitmix64: the shuffle must not depend on the standard library's
/// unspecified std::shuffle algorithm.
std::uint64_t mix(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

}  // namespace

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      // norm_storm's set-up (the NORM set) takes microseconds: time it in
      // batches so that one batch is well above the clock's noise.
      {WorkloadKind::kNormStorm, "norm_storm", 1024, 51, 200},
      {WorkloadKind::kGpWide, "gp_wide", 2048, 5, 1},
      {WorkloadKind::kHplFaults, "hpl_faults", 128, 15, 1},
      {WorkloadKind::kServiceChurn, "service_churn", 64, 25, 1},
  };
  return all;
}

const Workload* find_workload(std::string_view name) {
  for (const Workload& w : workloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

std::string sim_label(const SimSpec& spec) {
  std::string label;
  if (spec.churn != gcr::sim::ChurnModelKind::kNone) {
    label = std::string(gcr::sim::churn_model_name(spec.churn)) + " ";
  }
  return label + "seed " + std::to_string(spec.seed);
}

Inputs build_inputs(const Workload& w, std::uint64_t seed) {
  Inputs in;
  switch (w.kind) {
    case WorkloadKind::kNormStorm:
      in.app = stencil_app();
      in.groups = gcr::group::make_norm(w.nranks);
      break;
    case WorkloadKind::kGpWide:
      in.app = stencil_app();
      derive_groups(in, w.nranks, /*max_group_size=*/0, seed);
      in.error = check_blocks(in.groups, w.nranks, kStencil.block);
      break;
    case WorkloadKind::kHplFaults: {
      gcr::apps::HplParams hpl;
      hpl.grid_rows = kHplGridRows;
      in.app = [hpl](int nr) { return gcr::apps::make_hpl(nr, hpl); };
      // The fault seeds of a round are fixed (round_of), so the grouping
      // they run on is fixed too: profile with seed 1. G = P as in Table 1.
      const gcr::trace::Trace trace =
          derive_groups(in, w.nranks, kHplGridRows, 1);
      in.error = check_formation(in.groups, trace, w.nranks, kHplGridRows);
      break;
    }
    case WorkloadKind::kServiceChurn: {
      const gcr::apps::ServiceParams sp = service_params();
      in.app = [sp](int nr) { return gcr::apps::make_service(nr, sp); };
      derive_groups(in, w.nranks, kServiceBlock, 1);
      break;
    }
  }
  return in;
}

std::vector<SimSpec> specs_for_seeds(const Workload& w, int from, int to) {
  std::vector<SimSpec> out;
  const bool churn = w.kind == WorkloadKind::kServiceChurn;
  for (gcr::sim::ChurnModelKind kind :
       {gcr::sim::ChurnModelKind::kSpot, gcr::sim::ChurnModelKind::kRolling}) {
    for (int s = from; s <= to; ++s) {
      out.push_back({static_cast<std::uint64_t>(s),
                     churn ? kind : gcr::sim::ChurnModelKind::kNone});
    }
    if (!churn) break;
  }
  return out;
}

std::vector<SimSpec> round_of(const Workload& w, std::uint64_t seed) {
  switch (w.kind) {
    case WorkloadKind::kNormStorm:
    case WorkloadKind::kGpWide:
      return {SimSpec{seed}};
    case WorkloadKind::kHplFaults:
    case WorkloadKind::kServiceChurn:
      break;
  }
  std::vector<SimSpec> specs = specs_for_seeds(
      w, 1,
      w.kind == WorkloadKind::kHplFaults ? kHplSeeds : kServiceSeeds);
  std::uint64_t state = seed;
  for (std::size_t i = specs.size(); i > 1; --i) {
    std::swap(specs[i - 1], specs[mix(state) % i]);
  }
  return specs;
}

ExperimentConfig make_config(const Workload& w, const Inputs& in,
                             const SimSpec& spec) {
  ExperimentConfig cfg;
  cfg.app = in.app;
  cfg.nranks = w.nranks;
  cfg.seed = spec.seed;
  cfg.groups = in.groups;
  cfg.checkpoints = true;
  switch (w.kind) {
    case WorkloadKind::kNormStorm:
    case WorkloadKind::kGpWide:
      // bench/fig_scale_extrapolation's single round inside the ~0.4 s
      // stencil run, with its commit margin scaled to the rank count.
      if (w.kind == WorkloadKind::kGpWide) {
        cfg.topology.kind = gcr::sim::TopologyKind::kFatTree;
        cfg.topology.fattree_routing = gcr::sim::FatTreeRouting::kAdaptive;
      }
      cfg.schedule.first_at_s = 0.1;
      cfg.schedule.max_rounds = 1;
      cfg.protocol_options.commit_margin = std::max(2, w.nranks / 256);
      break;
    case WorkloadKind::kHplFaults:
      cfg.schedule.first_at_s = kHplInterval_s;
      cfg.schedule.interval_s = kHplInterval_s;
      cfg.schedule.round_spread_s = 0.4;
      cfg.storage.mode = gcr::ckpt::StorageMode::kDrain;
      cfg.fault_model.kind = gcr::sim::FaultModelKind::kExponential;
      cfg.fault_model.mtbf_s = kHplNodeMtbf_s;
      break;
    case WorkloadKind::kServiceChurn: {
      cfg.schedule.first_at_s = 5.0;
      cfg.schedule.interval_s = 10.0;
      cfg.schedule.round_spread_s = 0.2;
      cfg.storage.mode = gcr::ckpt::StorageMode::kDrain;
      cfg.churn.kind = spec.churn;
      cfg.churn.drain_mtbd_s = kServiceMtbd_s;
      cfg.churn.outage_s = 12.0;
      cfg.churn.warning_s = 5.0;
      // Rolling sweep inside the nominal service window, as
      // bench/ablation_elastic sizes it.
      const double horizon =
          static_cast<double>(kServiceRequests) / kServiceRate_hz;
      cfg.churn.rolling_start_s = 0.1 * horizon;
      cfg.churn.rolling_step_s = 0.8 * horizon / w.nranks;
      cfg.recovery.detect_s = 0.5;
      cfg.recovery.relaunch_s = 0.5;
      break;
    }
  }
  return cfg;
}

std::string check_stencil(const ExperimentResult& r, int nranks,
                          const StencilShape& shape) {
  // Each block of `block` ranks has block-1 neighbour links, each carrying
  // one halo per direction per iteration.
  const std::int64_t messages =
      static_cast<std::int64_t>(nranks / shape.block) * 2 *
      (shape.block - 1) * shape.iterations;
  if (r.app_messages != messages) {
    return "app_messages " + std::to_string(r.app_messages) + " != " +
           std::to_string(messages);
  }
  if (r.app_bytes != messages * shape.halo_bytes) {
    return "app_bytes " + std::to_string(r.app_bytes) + " != " +
           std::to_string(messages * shape.halo_bytes);
  }
  if (r.metrics.ckpts.size() != static_cast<std::size_t>(nranks)) {
    return "checkpoint records " + std::to_string(r.metrics.ckpts.size()) +
           " != ranks " + std::to_string(nranks) + " (want exactly one round)";
  }
  std::vector<int> per_rank(static_cast<std::size_t>(nranks), 0);
  for (const gcr::core::CkptRecord& c : r.metrics.ckpts) {
    if (c.rank < 0 || c.rank >= nranks ||
        ++per_rank[static_cast<std::size_t>(c.rank)] > 1) {
      return "checkpoint records: rank " + std::to_string(c.rank) +
             " out of range or checkpointed twice";
    }
  }
  return check_finished(r);
}

std::string check_blocks(const GroupSet& groups, int nranks, int block) {
  std::vector<std::vector<int>> want;
  for (int b = 0; b < nranks / block; ++b) {
    std::vector<int> members(static_cast<std::size_t>(block));
    std::iota(members.begin(), members.end(), b * block);
    want.push_back(std::move(members));
  }
  return compare_partition(groups, std::move(want),
                           "the stencil's contiguous blocks");
}

std::vector<std::vector<int>> reference_formation(
    const gcr::trace::Trace& trace, int nranks, int max_size) {
  struct Pair {
    int a = 0, b = 0;
    std::uint64_t count = 0;
    std::int64_t bytes = 0;
  };
  std::map<std::pair<int, int>, Pair> acc;
  for (const gcr::trace::TraceRecord& rec : trace) {
    if (rec.kind != gcr::trace::EventKind::kSend || rec.rank == rec.peer) {
      continue;
    }
    const int a = std::min(rec.rank, rec.peer);
    const int b = std::max(rec.rank, rec.peer);
    Pair& p = acc[{a, b}];
    p.a = a;
    p.b = b;
    ++p.count;
    p.bytes += rec.bytes;
  }
  std::vector<Pair> pairs;
  for (const auto& [key, p] : acc) pairs.push_back(p);
  // The paper's order: size descending, then count descending; the pair
  // itself breaks the remaining ties.
  std::sort(pairs.begin(), pairs.end(), [](const Pair& x, const Pair& y) {
    if (x.bytes != y.bytes) return x.bytes > y.bytes;
    if (x.count != y.count) return x.count > y.count;
    return std::tie(x.a, x.b) < std::tie(y.a, y.b);
  });
  std::vector<std::vector<int>> groups;
  std::vector<int> owner(static_cast<std::size_t>(nranks), -1);
  auto join = [&](int g, int r) {
    groups[static_cast<std::size_t>(g)].push_back(r);
    owner[static_cast<std::size_t>(r)] = g;
  };
  auto size = [&](int g) {
    return static_cast<int>(groups[static_cast<std::size_t>(g)].size());
  };
  for (const Pair& p : pairs) {
    const int ga = owner[static_cast<std::size_t>(p.a)];
    const int gb = owner[static_cast<std::size_t>(p.b)];
    if (ga < 0 && gb < 0) {
      if (max_size < 2) continue;
      groups.emplace_back();
      join(static_cast<int>(groups.size()) - 1, p.a);
      join(static_cast<int>(groups.size()) - 1, p.b);
    } else if (gb < 0) {
      if (size(ga) < max_size) join(ga, p.b);
    } else if (ga < 0) {
      if (size(gb) < max_size) join(gb, p.a);
    } else if (ga != gb && size(ga) + size(gb) <= max_size) {
      for (int r : std::vector<int>(groups[static_cast<std::size_t>(gb)])) {
        join(ga, r);
      }
      groups[static_cast<std::size_t>(gb)].clear();
    }
  }
  std::vector<std::vector<int>> out;
  for (auto& g : groups) {
    if (!g.empty()) out.push_back(std::move(g));
  }
  for (int r = 0; r < nranks; ++r) {
    if (owner[static_cast<std::size_t>(r)] < 0) out.push_back({r});
  }
  return out;
}

std::string check_formation(const GroupSet& groups,
                            const gcr::trace::Trace& trace, int nranks,
                            int max_size) {
  return compare_partition(groups,
                           reference_formation(trace, nranks, max_size),
                           "Algorithm 2 re-derived from the profiling trace");
}

std::string check_hpl_faults(const ExperimentResult& r,
                             double bb_capacity_bytes) {
  if (r.failures_injected != r.recoveries_completed + r.recoveries_aborted) {
    return "recovery books: injected " + std::to_string(r.failures_injected) +
           " != completed " + std::to_string(r.recoveries_completed) +
           " + aborted " + std::to_string(r.recoveries_aborted);
  }
  const gcr::ckpt::TierStats& t = r.tier_stats;
  if (t.drains_completed + t.drains_abandoned > t.drains_started) {
    return "drain books: completed + abandoned > started";
  }
  if (static_cast<double>(t.bb_bytes_peak) > bb_capacity_bytes) {
    return "burst-buffer peak " + std::to_string(t.bb_bytes_peak) +
           " exceeds capacity";
  }
  const std::int64_t reads = t.reads_local + t.reads_bb + t.reads_pfs;
  if (reads > static_cast<std::int64_t>(r.metrics.restarts.size())) {
    return "tier reads " + std::to_string(reads) + " > restart records " +
           std::to_string(r.metrics.restarts.size());
  }
  return check_finished(r);
}

std::string check_service(const ExperimentResult& r, int nranks,
                          std::uint64_t requests_per_rank) {
  if (!r.service) return "service stats missing";
  const gcr::apps::ServiceStats& s = *r.service;
  const std::uint64_t want =
      static_cast<std::uint64_t>(nranks) * requests_per_rank;
  if (s.completed != want) {
    return "completed requests " + std::to_string(s.completed) +
           " != " + std::to_string(want);
  }
  if (!(s.p50_latency_s <= s.p99_latency_s &&
        s.p99_latency_s <= s.max_latency_s)) {
    return "latency order p50 <= p99 <= max violated";
  }
  if (!(r.availability > 0 && r.availability <= 1)) {
    return "availability " + std::to_string(r.availability) +
           " outside (0, 1]";
  }
  return check_finished(r);
}

std::string check_result(const Workload& w, const ExperimentConfig& cfg,
                         const ExperimentResult& r) {
  switch (w.kind) {
    case WorkloadKind::kNormStorm:
    case WorkloadKind::kGpWide:
      return check_stencil(r, w.nranks, kStencil);
    case WorkloadKind::kHplFaults:
      return check_hpl_faults(r, cfg.storage.burst_buffer_capacity_bytes);
    case WorkloadKind::kServiceChurn:
      return check_service(r, w.nranks, kServiceRequests);
  }
  return "unknown workload";
}

}  // namespace perfbench
