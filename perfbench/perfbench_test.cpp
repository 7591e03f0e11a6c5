// Tests of the benchmark's own code: module attribution of sampled frames,
// and that every correctness check accepts a real result and rejects a
// doctored one.
#include <gtest/gtest.h>

#include <chrono>
#include <unistd.h>

#include "apps/hpl.hpp"
#include "group/formation.hpp"
#include "group/strategies.hpp"
#include "sampler.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using gcr::exp::ExperimentResult;

Frame prog(const char* name) { return {true, name}; }
Frame lib(const char* name) { return {false, name}; }

TEST(Attribution, GroupProtocolMemberIsCoreProtocol) {
  const Attribution a = attribute(
      {prog("gcr::core::GroupProtocol::handle_ctrl(gcr::mpi::RankId, "
            "gcr::core::CtrlMsg const&)"),
       prog("gcr::sim::Engine::run(long)")});
  EXPECT_EQ(a.layer, Layer::kCoreProtocol);
  EXPECT_FALSE(a.runtime_lib);
}

TEST(Attribution, EngineMemberIsSimEngine) {
  EXPECT_EQ(attribute({prog("gcr::sim::Engine::pop_next(long, "
                            "gcr::sim::Engine::Event&)"),
                       prog("gcr::exp::run_experiment(gcr::exp::"
                            "ExperimentConfig const&)")})
                .layer,
            Layer::kSimEngine);
}

TEST(Attribution, CoroutineActorCloneIsItsModule) {
  EXPECT_EQ(attribute({prog("gcr::apps::(anonymous namespace)::hpl_rank("
                            "gcr::mpi::Rank&, gcr::apps::HplParams) "
                            "[clone .actor]"),
                       prog("gcr::sim::Engine::dispatch()")})
                .layer,
            Layer::kApps);
  // A templated coroutine prints its return type first.
  EXPECT_EQ(frame_layer("gcr::sim::Co<void> gcr::ckpt::TierStore::"
                        "drain<int>(int, long) [clone .actor] [clone .isra.0]"),
            Layer::kCkpt);
}

TEST(Attribution, CLibraryFrameChargesTheCallerAndCountsAsRuntime) {
  const Attribution a =
      attribute({lib("__memmove_avx_unaligned_erms"),
                 prog("std::vector<gcr::mpi::PeerVolume, std::allocator<"
                      "gcr::mpi::PeerVolume> >::operator=(std::vector<gcr::"
                      "mpi::PeerVolume, std::allocator<gcr::mpi::PeerVolume> "
                      "> const&)"),
                 prog("gcr::mpi::Rank::Rank(gcr::sim::Engine&, int)"),
                 prog("gcr::exp::run_experiment(gcr::exp::ExperimentConfig "
                      "const&)")});
  EXPECT_EQ(a.layer, Layer::kMpi);
  EXPECT_TRUE(a.runtime_lib);
}

TEST(Attribution, SubLayersAndPassThroughFrames) {
  EXPECT_EQ(frame_layer("gcr::core::MessageLog::append(int, long)"),
            Layer::kCoreMsglog);
  EXPECT_EQ(frame_layer("gcr::core::RecoveryManager::arm()::{lambda()#1}::"
                        "operator()() const"),
            Layer::kCoreRecovery);
  EXPECT_EQ(frame_layer("gcr::sim::Network::settle(unsigned int)"),
            Layer::kSimNetwork);
  EXPECT_EQ(frame_layer("gcr::sim::StorageDevice::on_timer()"),
            Layer::kSimStorage);
  EXPECT_EQ(frame_layer("gcr::sim::(anonymous namespace)::ExpModel::next()"),
            Layer::kSimOther);
  EXPECT_EQ(frame_layer("bool gcr::sim::operator<(gcr::sim::Event const&, "
                        "gcr::sim::Event const&)"),
            Layer::kSimOther);
  // Helpers outside the eight modules pass the charge to their caller.
  EXPECT_EQ(frame_layer("gcr::Rng::next()"), std::nullopt);
  EXPECT_EQ(frame_layer("void std::__introsort_loop<gcr::trace::Record*, "
                        "long>(gcr::trace::Record*, gcr::trace::Record*, "
                        "long)"),
            std::nullopt);
  EXPECT_EQ(
      attribute({prog("gcr::Rng::next()"),
                 prog("gcr::sim::(anonymous namespace)::ExpModel::next()")})
          .layer,
      Layer::kSimOther);
  EXPECT_EQ(attribute({lib("malloc"), prog("main")}).layer,
            Layer::kUnattributed);
}

TEST(Symbolizer, ResolvesProgramAndLibraryFrames) {
  const Symbolizer sym;
  const Frame f =
      sym.frame(reinterpret_cast<std::uintptr_t>(&gcr::group::make_norm) + 1);
  EXPECT_TRUE(f.in_program);
  EXPECT_NE(f.name.find("gcr::group::make_norm"), std::string::npos) << f.name;
  EXPECT_EQ(frame_layer(f.name), Layer::kGroup);
  const auto libc_pc = reinterpret_cast<std::uintptr_t>(&::getpid);
  EXPECT_FALSE(sym.frame(libc_pc).in_program);
}

TEST(Sampler, ChargesEverySampleToExactlyOneLayer) {
  const Symbolizer sym;
  const Workload& w = *find_workload("norm_storm");
  Inputs in = build_inputs(w, 1);
  in.groups = gcr::group::make_norm(64);
  Workload small = w;
  small.nranks = 64;
  Sampler sampler;
  sampler.start(1000);
  const auto t0 = std::chrono::steady_clock::now();
  while (sampler.samples() < 50 &&
         std::chrono::steady_clock::now() - t0 < std::chrono::seconds(20)) {
    gcr::exp::run_experiment(make_config(small, in, SimSpec{1}));
  }
  sampler.stop();
  const LayerSamples ls = sampler.attribute(sym);
  ASSERT_GE(ls.total, 50);
  std::int64_t sum = 0;
  for (std::int64_t n : ls.layer) sum += n;
  EXPECT_EQ(sum, ls.total);
  // The loop spends its time inside the simulator, not in this test.
  EXPECT_LT(ls.layer[static_cast<int>(Layer::kUnattributed)], ls.total / 10);
}

// --- correctness checks -----------------------------------------------

ExperimentResult stencil_run(int nranks) {
  Workload w = *find_workload("norm_storm");
  w.nranks = nranks;
  Inputs in = build_inputs(w, 1);
  in.groups = gcr::group::make_norm(nranks);
  return gcr::exp::run_experiment(make_config(w, in, SimSpec{1}));
}

TEST(Checks, StencilAcceptsARealRunAndRejectsDoctoredOnes) {
  const StencilShape shape;
  const ExperimentResult good = stencil_run(64);
  ASSERT_EQ(check_stencil(good, 64, shape), "");
  EXPECT_EQ(good.app_messages, 64 / 8 * 2 * 7 * 40);

  ExperimentResult r = good;
  r.app_messages += 1;
  EXPECT_NE(check_stencil(r, 64, shape), "");
  r = good;
  r.app_bytes -= 1;
  EXPECT_NE(check_stencil(r, 64, shape), "");
  r = good;
  r.metrics.ckpts.pop_back();
  EXPECT_NE(check_stencil(r, 64, shape), "");
  r = good;
  r.metrics.ckpts.back().rank = r.metrics.ckpts.front().rank;
  EXPECT_NE(check_stencil(r, 64, shape), "");
  r = good;
  r.finished = false;
  EXPECT_NE(check_stencil(r, 64, shape), "");
}

TEST(Checks, BlocksRejectAnythingButTheStencilBlocks) {
  EXPECT_EQ(check_blocks(gcr::group::make_blocks(64, 8), 64, 8), "");
  EXPECT_NE(check_blocks(gcr::group::make_blocks(64, 4), 64, 8), "");
  EXPECT_NE(check_blocks(gcr::group::make_norm(64), 64, 8), "");
  // Swap one rank between two blocks: same shape, wrong members.
  std::vector<std::vector<gcr::mpi::RankId>> g;
  for (int b = 0; b < 8; ++b) {
    std::vector<gcr::mpi::RankId> m;
    for (int i = 0; i < 8; ++i) m.push_back(b * 8 + i);
    g.push_back(m);
  }
  std::swap(g[0][7], g[1][0]);
  EXPECT_NE(check_blocks(gcr::group::GroupSet(64, g), 64, 8), "");
}

TEST(Checks, FormationMatchesTheReferenceAndRejectsOtherPartitions) {
  // HPL on the 8 x 4 grid of Table 1: Algorithm 2 with G = P = 8 finds the
  // four grid columns {c, c+4, ..., c+28}.
  const gcr::exp::AppFactory app = [](int nr) {
    return gcr::apps::make_hpl(nr);
  };
  const gcr::trace::Trace trace = gcr::exp::profile_app(app, 32, 1);
  gcr::group::FormationOptions options;
  options.max_group_size = 8;
  const gcr::group::GroupSet derived =
      gcr::group::form_groups_from_trace(32, trace, options);
  EXPECT_EQ(check_formation(derived, trace, 32, 8), "");
  std::vector<std::vector<gcr::mpi::RankId>> cols(4);
  for (int r = 0; r < 32; ++r) {
    cols[static_cast<std::size_t>(r % 4)].push_back(r);
  }
  EXPECT_EQ(check_formation(gcr::group::GroupSet(32, cols), trace, 32, 8), "");

  std::swap(cols[0][1], cols[1][1]);
  EXPECT_NE(check_formation(gcr::group::GroupSet(32, cols), trace, 32, 8), "");
  EXPECT_NE(check_formation(gcr::group::make_blocks(32, 8), trace, 32, 8), "");
  EXPECT_NE(check_formation(derived, trace, 32, 4), "");
}

TEST(Checks, HplFaultBooksRejectBrokenInvariants) {
  const Workload& w = *find_workload("hpl_faults");
  const Inputs in = build_inputs(w, 1);
  ASSERT_EQ(in.error, "");
  const gcr::exp::ExperimentConfig cfg = make_config(w, in, SimSpec{1});
  const ExperimentResult good = gcr::exp::run_experiment(cfg);
  const double cap = cfg.storage.burst_buffer_capacity_bytes;
  ASSERT_EQ(check_hpl_faults(good, cap), "");
  ASSERT_GT(good.failures_injected, 0);

  ExperimentResult r = good;
  r.recoveries_completed += 1;
  EXPECT_NE(check_hpl_faults(r, cap), "");
  r = good;
  r.tier_stats.drains_abandoned = r.tier_stats.drains_started + 1;
  EXPECT_NE(check_hpl_faults(r, cap), "");
  r = good;
  r.tier_stats.bb_bytes_peak = static_cast<std::int64_t>(cap) + 1;
  EXPECT_NE(check_hpl_faults(r, cap), "");
  r = good;
  r.tier_stats.reads_pfs +=
      static_cast<std::int64_t>(r.metrics.restarts.size()) + 1;
  EXPECT_NE(check_hpl_faults(r, cap), "");
  EXPECT_NE(check_result(w, cfg, r), "");
}

TEST(Checks, ServiceRejectsLostRequestsAndBadStats) {
  const Workload& w = *find_workload("service_churn");
  const Inputs in = build_inputs(w, 1);
  const gcr::exp::ExperimentConfig cfg =
      make_config(w, in, SimSpec{1, gcr::sim::ChurnModelKind::kSpot});
  const ExperimentResult good = gcr::exp::run_experiment(cfg);
  ASSERT_EQ(check_service(good, w.nranks, 400), "");
  ASSERT_LT(good.availability, 1.0);

  ExperimentResult r = good;
  r.service->completed -= 1;
  EXPECT_NE(check_service(r, w.nranks, 400), "");
  r = good;
  r.service->p99_latency_s = r.service->max_latency_s * 2;
  EXPECT_NE(check_service(r, w.nranks, 400), "");
  r = good;
  r.availability = 0;
  EXPECT_NE(check_service(r, w.nranks, 400), "");
  r = good;
  r.availability = 1.5;
  EXPECT_NE(check_service(r, w.nranks, 400), "");
  r = good;
  r.service.reset();
  EXPECT_NE(check_result(w, cfg, r), "");
}

TEST(Rounds, FixedSeedListsOnlyChangeOrder) {
  const Workload& w = *find_workload("hpl_faults");
  auto a = round_of(w, 1), b = round_of(w, 7);
  ASSERT_EQ(a.size(), b.size());
  auto key = [](const SimSpec& s) { return s.seed; };
  std::vector<std::uint64_t> ka, kb;
  for (const SimSpec& s : a) ka.push_back(key(s));
  for (const SimSpec& s : b) kb.push_back(key(s));
  EXPECT_NE(ka, kb);
  std::sort(ka.begin(), ka.end());
  std::sort(kb.begin(), kb.end());
  EXPECT_EQ(ka, kb);
  EXPECT_EQ(round_of(*find_workload("norm_storm"), 5).front().seed, 5u);
}

}  // namespace
}  // namespace perfbench
