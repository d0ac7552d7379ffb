// Reproduces Fig. 5a: per-voter wall-clock latency of the Registration,
// Voting and Tally phases for SwissPost, VoteAgain, TRIP-Core and Civitas,
// from 10^2 to 10^6 voters.
//
// Methodology: every system's cryptographic path runs for
// real at sizes feasible on this machine; larger sizes are extrapolated
// along each phase's complexity and flagged with '*' — the paper itself
// extrapolates Civitas beyond 10^4. Absolute numbers differ from the paper's
// (different hardware and implementation language); the reproduced *shape*
// is the per-phase ordering and the growth laws. --full measures each system
// at larger sizes before extrapolating.
#include <cstdio>
#include <memory>

#include "bench/figure_bench.h"
#include "src/baselines/civitas.h"
#include "src/baselines/swisspost.h"
#include "src/baselines/voteagain.h"
#include "src/baselines/votegral_model.h"
#include "src/common/table.h"
#include "src/crypto/drbg.h"
#include "src/sim/pipeline.h"

namespace votegral {
namespace {

struct SystemPlan {
  std::unique_ptr<VotingSystemModel> model;
  std::vector<size_t> sizes;
  size_t max_measured;
};

void RunFig5a(bool full) {
  const std::vector<size_t> display_sizes = {100, 1000, 10000, 100000, 1000000};

  std::vector<SystemPlan> plans;
  plans.push_back({std::make_unique<SwissPostModel>(), display_sizes,
                   full ? size_t{1000} : size_t{100}});
  plans.push_back({std::make_unique<VoteAgainModel>(), display_sizes,
                   full ? size_t{2000} : size_t{100}});
  plans.push_back({std::make_unique<VotegralModel>(), display_sizes,
                   full ? size_t{1000} : size_t{100}});
  // Civitas' quadratic tally forces a small measured anchor (the paper
  // extrapolates beyond 10^4 on a 128-core testbed; we anchor at 24).
  std::vector<size_t> civitas_sizes = {24};
  civitas_sizes.insert(civitas_sizes.end(), display_sizes.begin(), display_sizes.end());
  plans.push_back({std::make_unique<CivitasModel>(), civitas_sizes, size_t{24}});

  TextTable table("Fig. 5a — Per-voter wall-clock latency by phase ('*' = extrapolated)");
  table.SetHeader({"Voters", "System", "Registration/voter", "Voting/voter", "Tally/voter"});

  std::map<size_t, std::map<std::string, ScalingRow>> by_size;
  for (SystemPlan& plan : plans) {
    ChaChaRng rng(0x516A);
    auto rows = SweepSystem(*plan.model, plan.sizes, plan.max_measured, rng);
    for (const ScalingRow& row : rows) {
      by_size[row.voters][plan.model->name()] = row;
    }
  }
  for (size_t n : display_sizes) {
    for (const char* system : {"SwissPost", "VoteAgain", "TRIP-Core", "Civitas"}) {
      auto it = by_size[n].find(system);
      if (it == by_size[n].end()) {
        continue;
      }
      const ScalingRow& row = it->second;
      const char* star = row.extrapolated ? "*" : "";
      table.AddRow({std::to_string(n), system,
                    FormatSeconds(row.registration_per_voter) + star,
                    FormatSeconds(row.voting_per_voter) + star,
                    FormatSeconds(row.tally_total / static_cast<double>(n)) + star});
    }
  }
  std::printf("%s\n", table.Format().c_str());

  // Shape checks mirroring §7.3/§7.4 at the 10^6 column.
  const auto& million = by_size[1000000];
  double reg_trip = million.at("TRIP-Core").registration_per_voter;
  double reg_sp = million.at("SwissPost").registration_per_voter;
  double reg_va = million.at("VoteAgain").registration_per_voter;
  double reg_civ = million.at("Civitas").registration_per_voter;
  std::printf("Registration shape (paper: VoteAgain < TRIP < SwissPost << Civitas):\n");
  std::printf("  VoteAgain %.3f ms | TRIP-Core %.3f ms | SwissPost %.3f ms | Civitas %.1f ms\n",
              reg_va * 1e3, reg_trip * 1e3, reg_sp * 1e3, reg_civ * 1e3);
  std::printf("  TRIP vs Civitas factor: %.0fx (paper: ~2 orders of magnitude)\n",
              reg_civ / reg_trip);
  std::printf("  TRIP vs SwissPost: %.1fx faster (paper: ~1 order)\n", reg_sp / reg_trip);
  std::printf("  TRIP vs VoteAgain: %.1fx slower (paper: ~1 order)\n\n", reg_trip / reg_va);
  double vote_trip = million.at("TRIP-Core").voting_per_voter;
  std::printf("Voting shape (paper: TRIP ~1ms < SwissPost ~ VoteAgain ~10ms << Civitas):\n");
  std::printf("  TRIP-Core %.2f ms | SwissPost %.2f ms | VoteAgain %.2f ms | Civitas %.2f ms\n",
              vote_trip * 1e3, million.at("SwissPost").voting_per_voter * 1e3,
              million.at("VoteAgain").voting_per_voter * 1e3,
              million.at("Civitas").voting_per_voter * 1e3);
  std::printf("\nCSV:\n%s", table.Csv().c_str());
}

}  // namespace
}  // namespace votegral

int main(int argc, char** argv) {
  votegral::figure::Bench bench("fig5a", argc, argv);
  const bool full = bench.Switch("--full");
  bench.RejectUnreadFlags();
  votegral::RunFig5a(full);
  return 0;
}
