// Per-layer measurements for the traced run of votegral_bench.
//
// After the façade phases, a traced run replays each layer's public
// function on the workload's own data (the last round's election or
// board) at the run's thread count, and reports one metric family per
// layer. README.md maps every metric to the end-to-end metric it should
// move. The crypto preamble is single-threaded fixed loops, independent of
// the workload.
#ifndef BENCH_VOTEGRAL_BENCH_LAYERS_H_
#define BENCH_VOTEGRAL_BENCH_LAYERS_H_

#include <string_view>

#include "bench/votegral_bench/report.h"
#include "bench/votegral_bench/workloads.h"

namespace votegral::bench {

// Builds the library's lazily initialized process-wide tables before
// anything is timed. The revote counter table must be built here, on the
// main thread: its initializer runs a ParallelFor under the static-init
// guard, so a first use inside a parallel tally stage can deadlock when the
// help-first join picks up a sibling chunk that needs the same table.
void WarmUp();

// A fixed single-thread MulBase loop, in ms: the host-drift probe taken at
// the start and end of every run.
double HostProbeMs();

// crypto.*: field, point, scalar-multiplication, MSM and batch-verify costs.
void MeasureCrypto(RunContext& ctx, Report& report);

// The election the stage replays run on: the last round's, tallied if it
// was not (register), or a small tallied one when the workload has none
// (catchup). Also yields executor.* from its Tally and Verify.
std::unique_ptr<ElectionState> ReplayElection(RunContext& ctx, LastRound& last,
                                              Report& report);

// trip.* (the ceremony step by step) and ballot.* (make and check).
void ReplayTripAndBallots(RunContext& ctx, bool revoting, Report& report);

// ledger.*: on the board (catchup) or the election's ballot log.
void ReplayLedger(RunContext& ctx, const LastRound& last, const ElectionState& election,
                  Report& report);

// tally.*, mix.*, tag.*, decrypt.*, revote.*: over the election's last tally.
void ReplayTallyStages(RunContext& ctx, ElectionState& election, Report& report);

// net.* and replica.*: a fresh follower cold-syncs the same board.
void ReplayReplica(RunContext& ctx, const LastRound& last, const ElectionState& election,
                   Report& report);

inline constexpr std::string_view kPerLayer[] = {
    "host.probe_start_ms",
    "host.probe_end_ms",
    "crypto.fe_mul_ns",
    "crypto.fe_invsqrt_us",
    "crypto.point_add_ns",
    "crypto.encode_us",
    "crypto.decode_us",
    "crypto.mul_base_us",
    "crypto.mul_var_us",
    "crypto.msm_term_ns",
    "crypto.schnorr_batch_verify_us",
    "crypto.dleq_batch_verify_us",
    "trip.checkin_ms",
    "trip.kiosk_real_ms",
    "trip.kiosk_fake_ms",
    "trip.checkout_ms",
    "trip.activate_ms",
    "ballot.make_us",
    "ballot.check_us",
    "ledger.post_ballot_us",
    "ledger.scan_s",
    "ledger.verify_chains_s",
    "ledger.prove_consistency_us",
    "ledger.verify_consistency_us",
    "ledger.bytes_per_entry",
    "tally.validate_s",
    "tally.dedup_s",
    "mix.prove_s",
    "mix.verify_s",
    "tag.apply_s",
    "tag.verify_s",
    "decrypt.share_s",
    "decrypt.verify_s",
    "revote.select_s",
    "tally.counted_over_ballots",
    "executor.tally_occupancy",
    "executor.verify_occupancy",
    "net.recv_wait_s",
    "net.frames",
    "net.payload_over_wire",
    "replica.cold_entries_per_s",
    "replica.checkpoint_us",
    "trace.overhead_pct",
};

}  // namespace votegral::bench

#endif  // BENCH_VOTEGRAL_BENCH_LAYERS_H_
