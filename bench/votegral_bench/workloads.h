// The four votegral_bench workloads and the state they share with the
// traced layer replay (layers.h). README.md says why each workload exists.
//
// Every workload runs in rounds. A round sets up anew (timed as
// set-up), then drives the program through the Election façade or the
// replica layer in one closed loop on one client thread, and checks every
// output. Rounds repeat while the next one should end within --seconds (at
// least three rounds, so set-up has a median; one under --smoke or
// --issue-sizes). Round r of seed s always draws the same inputs. A traced
// run runs every round twice, traced and untraced, to measure what tracing
// costs.
//
// Short steps are spread through the run, not bunched at one point of each
// round: other tenants of a shared host slow it in spells of seconds, and a
// bunch of short steps falls into one spell. So tally rounds overlap: while
// one election is tallied and verified, the next one's ballots are cast
// between those steps. And the chain audits of a register or catchup round
// run during the next round, between its registrations or incremental
// syncs.
#ifndef BENCH_VOTEGRAL_BENCH_WORKLOADS_H_
#define BENCH_VOTEGRAL_BENCH_WORKLOADS_H_

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "bench/votegral_bench/host.h"
#include "bench/votegral_bench/report.h"
#include "bench/votegral_bench/trace.h"
#include "src/crypto/drbg.h"
#include "src/net/socket.h"
#include "src/replica/follower.h"
#include "src/replica/leader.h"
#include "src/votegral/election.h"

namespace votegral::bench {

inline constexpr std::string_view kWorkloads[] = {"register", "tally", "revote", "catchup"};

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 20.0;
  size_t threads = 0;  // 0 = min(nproc, 4)
  std::string json_path;
  std::string trace_path;
  std::string tmp_dir = "build/vb/tmp";
  bool smoke = false;
  bool issue_sizes = false;  // one round at the sizes of a real registration day
  size_t probes = 0;         // > 0: only print this many host-probe readings
};

// Per-round sizes. The default sizes keep one round to a few seconds on a
// 4-core host so a run of --seconds holds several rounds.
struct Sizes {
  size_t register_voters = 0;  // cohort registering at one booth
  size_t tally_voters = 0;
  size_t revote_voters = 0;
  uint64_t board_entries = 0;  // leader board the mirror cold-syncs
  uint64_t delta_rounds = 0;   // incremental sync rounds after the cold sync
  uint64_t delta_entries = 0;  // new entries per incremental round
  size_t replay_voters = 0;    // step-by-step ceremony replay (traced run)
};
Sizes SizesFor(const Options& options);

// Deterministic stream: the same (seed, label, round, stream) yields the
// same bytes, so a seed fixes every input of every round.
ChaChaRng StreamRng(uint64_t seed, std::string_view label, uint64_t round, uint64_t stream);

const std::vector<std::string>& Candidates();

// The file-backed ledger every workload uses, rooted at `dir`.
LedgerStorageConfig FileStorage(const std::string& dir);

// The electorate generator: per voter a fake-credential count (0-2,
// uniform, one of each in every block of three voters), the choice behind
// every cast, and a recast flag for a quarter of voters. Every credential casts once; a recast voter then casts again
// with the real credential. The prediction is what a correct tally reports.
struct VoterPlan {
  size_t fakes = 0;
  std::vector<size_t> choices;  // one per credential, real first
  bool recast = false;
  size_t recast_choice = 0;
};

struct Electorate {
  std::vector<std::string> ids;
  std::vector<VoterPlan> plans;
  size_t casts = 0;
  std::map<std::string, size_t> expected_counts;  // last real cast per voter
  size_t fake_ballots = 0;
  size_t recasts = 0;
};
Electorate MakeElectorate(size_t voters, Rng& rng);

// Per-run samples by series, in wall-clock time. A series in "ms" is a
// per-operation latency (reported as p50/p99); any other unit is one value
// per round (median). A sample pushed with a speed factor (host.h) is also
// kept at reference speed, which the result is taken from, along with the
// share of its step the hypervisor stole from a core (TimedStep::stolen).
class Samples {
 public:
  void Push(const std::string& series, std::string_view unit, double value,
            double factor = 0.0, double stolen = 0.0);
  const std::vector<double>* Find(const std::string& series) const;
  // The samples of `series` at reference speed, in the order pushed,
  // without those whose step lost more than 5% to the hypervisor. Where
  // that would leave fewer than a third of them, the least-stolen third.
  std::vector<double> AtReference(const std::string& series) const;
  // How many samples at reference speed lost more than 5%.
  size_t stolen() const { return stolen_; }
  // Every wall-clock series as report metrics: `<name>_p50_ms` and
  // `<name>_p99_ms` for latencies, the median under its own name otherwise.
  void AddTo(Report& report) const;

 private:
  struct Series {
    std::string unit;
    std::vector<double> values;
    std::vector<double> at_reference;
    std::vector<double> stolen;  // parallel to at_reference
  };
  std::map<std::string, Series> series_;
  size_t stolen_ = 0;
};

struct RunContext {
  const Options& options;
  Sizes sizes;
  size_t threads = 1;
  std::string dir;  // this run's working directory (inside --tmp)
  Tracer* tracer = nullptr;
  Verdict& verdict;
  Samples& samples;
};

// Records one operation; a failed one aborts the run (BenchFailure).
void Expect(RunContext& ctx, bool ok, std::string_view what);

// Pins the client for the next sample of `series`, whose samples go to one
// CPU per `window` of them.
void PinForNext(const RunContext& ctx, const std::string& series, size_t window);

struct BenchFailure : std::runtime_error {
  using std::runtime_error::runtime_error;
};

// An election on the file-backed ledger plus its electorate, registered
// voters and (once tallied) its last tally. Owns its ledger directory.
struct ElectionState {
  std::string dir;
  bool revoting = false;
  Electorate electorate;
  std::unique_ptr<Election> election;
  std::vector<RegisteredVoter> voters;  // parallel to electorate.ids
  std::optional<TallyOutput> output;
  double tally_s = 0, tally_cpu_s = 0, verify_s = 0, verify_cpu_s = 0;

  ElectionState() = default;
  ElectionState(const ElectionState&) = delete;
  ElectionState& operator=(const ElectionState&) = delete;
  ~ElectionState();
};

std::unique_ptr<ElectionState> MakeElection(RunContext& ctx, const std::string& name,
                                            Electorate electorate, bool revoting, Rng& rng);
// Registers every voter through Election::Register (series `series`, ms).
void RegisterAll(RunContext& ctx, ElectionState& state, Rng& rng, const std::string& series);
// Casts every voter's plan through Election::Cast (series "cast", ms).
void CastAll(RunContext& ctx, ElectionState& state, Rng& rng);
// Election::Tally then Election::Verify (three times), checked against the
// prediction. `between(k)` runs after the tally (k = 0) and after each
// verification (k = 1..3), outside the timed calls.
void TallyAndVerify(RunContext& ctx, ElectionState& state, Rng& rng,
                    const std::function<void(int)>& between = nullptr);

// Follower-side channel decorator: counts received frames and bytes and the
// time spent blocked in Recv.
class CountingChannel : public Channel {
 public:
  explicit CountingChannel(std::unique_ptr<Channel> inner) : inner_(std::move(inner)) {}
  Status Send(const WireMessage& msg) override { return inner_->Send(msg); }
  Outcome<WireMessage> Recv() override;
  void Close() override { inner_->Close(); }
  std::string Describe() const override { return inner_->Describe(); }

  double recv_wait_s = 0.0;
  uint64_t frames = 0;
  uint64_t wire_bytes = 0;  // length word + type + payload of received frames

 private:
  std::unique_ptr<Channel> inner_;
};

// A leader serving `board` over AF_UNIX on its own thread, connected to a
// counted follower-side channel. The board may grow between sync rounds,
// while the leader waits for the next request.
class ServedBoard {
 public:
  ServedBoard(const Ledger& board, const SchnorrKeyPair& key, uint64_t seed,
              const std::string& socket_path);
  ~ServedBoard();
  ServedBoard(const ServedBoard&) = delete;
  ServedBoard& operator=(const ServedBoard&) = delete;

  bool ok() const { return channel_ != nullptr; }
  CountingChannel& channel() { return *channel_; }
  // The thread the leader serves on; valid until Stop.
  pthread_t leader_thread() { return thread_.native_handle(); }
  // Closes the follower end and joins the leader; its Serve status.
  Status Stop();

 private:
  SchnorrKeyPair key_;
  ChaChaRng rng_;
  ReplicationLeader leader_;
  std::unique_ptr<SocketListener> listener_;
  std::unique_ptr<CountingChannel> channel_;
  Status serve_status_ = Status::Ok();
  std::thread thread_;
};

// The mirror workload's board: the leader's file-backed log, and the
// follower that mirrors it.
struct BoardState {
  std::string dir;
  std::unique_ptr<Ledger> board;
  std::optional<ReplicationFollower> follower;

  BoardState() = default;
  BoardState(const BoardState&) = delete;
  BoardState& operator=(const BoardState&) = delete;
  ~BoardState();
};

// What a round leaves for the next round and, after the last one, for the
// traced replay.
struct LastRound {
  std::unique_ptr<ElectionState> election;  // register, tally, revote
  std::unique_ptr<BoardState> board;        // catchup
  // tally, revote: the next round's election, registered and cast.
  std::unique_ptr<ElectionState> next;
  // register, catchup: audits of this round's board, which the next round
  // runs one at a time between its own steps (after the last round, in a
  // row).
  std::vector<std::function<void()>> audits;
};

// Runs the rounds. In a traced run each round also runs untraced, on the
// same inputs, in a directory of its own and with its samples going to
// `untraced_samples`, the two in alternating order: what the spans cost is
// the difference between the two.
LastRound RunWorkload(RunContext& ctx, Samples& untraced_samples);

// The end-to-end metrics, named by role so every workload reports each:
// op_* is the workload's per-request latency, result_* the step that
// produces its result, audit_* an independent re-check of that result.
void AddEndToEnd(const std::string& workload, const Sizes& sizes, const Samples& samples,
                 Report& report);

inline constexpr std::string_view kEndToEnd[] = {
    "setup_s", "op_p50_ms", "result_s", "result_cpu_s", "audit_s", "audit_cpu_s", "peak_rss_mb"};

}  // namespace votegral::bench

#endif  // BENCH_VOTEGRAL_BENCH_WORKLOADS_H_
