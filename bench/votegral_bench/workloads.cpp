#include "bench/votegral_bench/workloads.h"

#include <malloc.h>

#include <algorithm>
#include <filesystem>
#include <functional>
#include <numeric>
#include <utility>

#include "src/common/clock.h"
#include "src/common/stats.h"
#include "src/crypto/schnorr.h"
#include "src/replica/follower.h"

namespace votegral::bench {

namespace fs = std::filesystem;

namespace {

// A realistic ballot-sized board entry (a RevoteBallot is 320 bytes).
constexpr size_t kBoardPayloadBytes = 330;

// Requests and voters go in windows of 24, each window pinned to one CPU
// (host.h): 24 voters hold each fake count eight times (see
// MakeElectorate), and 24 incremental syncs seal three segments, so every
// CPU sees the same mix.
constexpr size_t kWindow = 24;

// A step that lost more than this share of its wall time to the hypervisor
// on some CPU is left out of the result where enough steps lost less
// (Samples::AtReference).
constexpr double kMaxStolen = 0.05;

double Ms(const WallTimer& timer) { return timer.Seconds() * 1e3; }

// One voter's visit through Election::Register (series `series`, ms).
void RegisterVoter(RunContext& ctx, ElectionState& state, size_t i, Rng& rng,
                   const std::string& series) {
  Election& election = *state.election;
  Vsd vsd = election.trip().MakeVsd();
  Span span(ctx.tracer, "register");
  WallTimer timer;
  auto voter =
      election.Register(state.electorate.ids[i], state.electorate.plans[i].fakes, vsd, rng);
  ctx.samples.Push(series, "ms", Ms(timer), CoreRotation::Get().factor());
  Expect(ctx, voter.ok(), "register");
  state.voters.push_back(std::move(*voter));
}

// With `pin_casts`, each window of casts runs on a CPU of its own;
// otherwise the caller's pin holds.
void CastVoter(RunContext& ctx, ElectionState& state, size_t i, Rng& rng, bool pin_casts) {
  Election& election = *state.election;
  const RegisteredVoter& voter = state.voters[i];
  const VoterPlan& plan = state.electorate.plans[i];
  Expect(ctx, voter.activated.size() == plan.choices.size(),
         "register: wrong number of activated credentials");
  auto cast = [&](const ActivatedCredential& credential, size_t choice) {
    if (pin_casts) {
      PinForNext(ctx, "cast", kWindow);
    }
    Span span(ctx.tracer, "cast");
    WallTimer timer;
    Status status = election.Cast(credential, Candidates()[choice], rng);
    ctx.samples.Push("cast", "ms", Ms(timer), CoreRotation::Get().factor());
    Expect(ctx, status.ok(), "cast");
  };
  for (size_t k = 0; k < plan.choices.size(); ++k) {
    cast(voter.activated[k], plan.choices[k]);
  }
  if (plan.recast) {
    cast(voter.activated[0], plan.recast_choice);
  }
}

// A round repeats its audit, and every repetition is a sample of its own.
constexpr int kAuditReps = 3;
// The booth's board takes about 20 ms to audit, so a register round can
// afford more repetitions.
constexpr int kBoothAuditReps = 8;

// Pushes a timed step into series `<series>_s` and `<series>_cpu_s`.
void PushStep(RunContext& ctx, const std::string& series, const TimedStep& step) {
  ctx.samples.Push(series + "_s", "s", step.wall_s, step.factor, step.stolen);
  ctx.samples.Push(series + "_cpu_s", "s", step.cpu_s, step.factor, step.stolen);
}

void PushSetUp(RunContext& ctx, const TimedStep& setup) {
  ctx.samples.Push("setup_s", "s", setup.wall_s, setup.factor, setup.stolen);
}

// `reps` audits of a board's hash chains (series "chains"), for the next
// round to run between its own steps, each audit on the next CPU.
std::vector<std::function<void()>> ChainAudits(RunContext& ctx, int reps,
                                               std::function<Status()> verify) {
  return std::vector<std::function<void()>>(reps, [&ctx, verify] {
    PinForNext(ctx, "chains_s", 1);
    Status status = Status::Ok();
    const TimedStep step = TimeOnCore([&] {
      Span span(ctx.tracer, "chains");
      status = verify();
    });
    Expect(ctx, status.ok(), "chains");
    PushStep(ctx, "chains", step);
  });
}

// Runs deferred steps spread evenly over a loop of `steps` steps of the
// caller's own, outside the caller's timed calls.
class Interleaved {
 public:
  Interleaved(std::vector<std::function<void()>> work, size_t steps)
      : work_(std::move(work)), steps_(std::max<size_t>(1, steps)) {}

  // After the caller's step `step` (from 0): the work whose turn has come.
  void After(size_t step) {
    RunUntil(std::min(work_.size(), (work_.size() + 1) * (step + 1) / steps_));
  }
  void Finish() { RunUntil(work_.size()); }

 private:
  void RunUntil(size_t due) {
    while (done_ < due) {
      work_[done_++]();
    }
  }

  std::vector<std::function<void()>> work_;
  size_t steps_;
  size_t done_ = 0;
};

// register: registration day at one booth. The cohort registers and
// activates through Election::Register, each voter casting right after.
// The previous cohort's board is audited between registrations.
void RegisterRound(RunContext& ctx, uint64_t round, LastRound& prev, LastRound& out) {
  const Sizes& sizes = ctx.sizes;
  ChaChaRng inputs = StreamRng(ctx.options.seed, "register", round, 0);
  ChaChaRng rng = StreamRng(ctx.options.seed, "register", round, 1);
  Electorate electorate = MakeElectorate(sizes.register_voters, inputs);

  std::unique_ptr<ElectionState> state;
  const TimedStep setup = TimeOnAllCores([&] {
    Span span(ctx.tracer, "setup");
    state = MakeElection(ctx, "register-" + std::to_string(round), std::move(electorate),
                         /*revoting=*/false, rng);
  });
  PushSetUp(ctx, setup);

  // Each voter's visit (registration, then every cast) is a sample of its
  // own, taken at the speed of the CPU its window ran on.
  const size_t voters = state->electorate.ids.size();
  Interleaved audits(std::move(prev.audits), voters);
  double loop_s = 0.0;
  {
    Unpinned unpinned;
    for (size_t i = 0; i < voters; ++i) {
      PinForNext(ctx, "register", kWindow);
      WallTimer wall;
      CpuTimer cpu;
      RegisterVoter(ctx, *state, i, rng, "register");
      CastVoter(ctx, *state, i, rng, /*pin_casts=*/false);
      const double factor = CoreRotation::Get().factor();
      ctx.samples.Push("voter_s", "s", wall.Seconds(), factor);
      ctx.samples.Push("voter_cpu_s", "s", cpu.Elapsed().Total(), factor);
      loop_s += wall.Seconds();
      audits.After(i);
    }
    audits.Finish();
  }
  ctx.samples.Push("voters_per_s", "1/s", static_cast<double>(voters) / loop_s);

  PublicLedger* ledger = &state->election->ledger();
  ctx.verdict.Check(ledger->BallotCount() == state->electorate.casts,
                    "register: ballot count differs from casts");
  ctx.verdict.Check(ledger->ActiveRegistrations().size() == voters,
                    "register: active registrations differ from the cohort");
  out.audits = ChainAudits(ctx, kBoothAuditReps, [ledger] { return ledger->VerifyChains(); });
  out.election = std::move(state);
}

// A tally election: constructed, and every voter registered (set-up).
std::unique_ptr<ElectionState> SetUpTallyElection(RunContext& ctx, uint64_t round,
                                                  bool revoting) {
  const std::string label = revoting ? "revote" : "tally";
  const size_t voters = revoting ? ctx.sizes.revote_voters : ctx.sizes.tally_voters;
  ChaChaRng inputs = StreamRng(ctx.options.seed, label, round, 0);
  ChaChaRng rng = StreamRng(ctx.options.seed, label, round, 1);
  Electorate electorate = MakeElectorate(voters, inputs);

  std::unique_ptr<ElectionState> state;
  const TimedStep setup = TimeOnAllCores([&] {
    Span span(ctx.tracer, "setup");
    state = MakeElection(ctx, label + "-" + std::to_string(round), std::move(electorate),
                         revoting, rng);
    RegisterAll(ctx, *state, rng, "setup_register");
  });
  PushSetUp(ctx, setup);
  return state;
}

// Casts the ballots of voters [begin, end) of a tally election.
void CastVoters(RunContext& ctx, ElectionState& state, uint64_t round, size_t begin,
                size_t end) {
  // One stream per voter, so the ballots do not depend on how the casts
  // are split up.
  Unpinned unpinned;
  for (size_t i = begin; i < end; ++i) {
    ChaChaRng rng = StreamRng(ctx.options.seed, state.revoting ? "revote.cast" : "tally.cast",
                              round, i);
    CastVoter(ctx, state, i, rng, /*pin_casts=*/true);
  }
}

// tally / revote: close of polls. The round tallies and verifies an
// election registered and cast during the previous round (the first round
// sets up its own). Meanwhile the next election registers (set-up) and its
// ballots are cast, a quarter after the tally and after each verification.
void TallyRound(RunContext& ctx, uint64_t round, bool revoting, bool final, LastRound& prev,
                LastRound& out) {
  std::unique_ptr<ElectionState> state = std::move(prev.next);
  if (state == nullptr) {
    state = SetUpTallyElection(ctx, round, revoting);
    CastVoters(ctx, *state, round, 0, state->voters.size());
  }
  std::unique_ptr<ElectionState> next;
  if (!final) {
    next = SetUpTallyElection(ctx, round + 1, revoting);
  }
  auto cast_quarter = [&](int k) {
    if (next != nullptr) {
      const size_t n = next->voters.size();
      CastVoters(ctx, *next, round + 1, n * k / 4, n * (k + 1) / 4);
    }
  };
  ChaChaRng rng = StreamRng(ctx.options.seed, revoting ? "revote" : "tally", round, 2);
  TallyAndVerify(ctx, *state, rng, cast_quarter);
  out.election = std::move(state);
  out.next = std::move(next);
}

// catchup: a mirror of the bulletin board. Set-up writes the leader board;
// the follower cold-syncs it over AF_UNIX, then follows it through
// incremental rounds, checking its Merkle root against the leader's after
// every round. The previous round's mirror is audited between incremental
// rounds.
void CatchupRound(RunContext& ctx, uint64_t round, LastRound& prev, LastRound& out) {
  const Sizes& sizes = ctx.sizes;
  ChaChaRng rng = StreamRng(ctx.options.seed, "catchup", round, 0);
  auto state = std::make_unique<BoardState>();
  state->dir = ctx.dir + "/catchup-" + std::to_string(round);
  fs::remove_all(state->dir);

  std::unique_ptr<ServedBoard> served;
  SchnorrKeyPair key = SchnorrKeyPair::Generate(rng);
  const TimedStep setup = TimeOnAllCores([&] {
    Span span(ctx.tracer, "setup");
    state->board = std::make_unique<Ledger>(FileStorage(state->dir + "/leader"));
    for (uint64_t i = 0; i < sizes.board_entries; ++i) {
      state->board->Append("ballot", rng.RandomBytes(kBoardPayloadBytes));
    }
    auto opened = ReplicationFollower::Open(FileStorage(state->dir + "/follower"),
                                            key.public_bytes(), /*replica_id=*/2);
    Expect(ctx, opened.ok(), "catchup: open follower");
    state->follower.emplace(std::move(*opened));
    served = std::make_unique<ServedBoard>(*state->board, key, rng.Uniform(UINT64_MAX),
                                           state->dir + "/leader.sock");
    Expect(ctx, served->ok(), "catchup: connect to the leader");
  });
  PushSetUp(ctx, setup);

  ReplicationFollower& follower = *state->follower;
  const Ledger& board = *state->board;
  auto same_root = [&] { return follower.ledger().MerkleRoot() == board.MerkleRoot(); };
  {
    // The leader runs on the client's CPU, so a request and its answer
    // never wait for a second vCPU, which the hypervisor may have taken
    // away. The two ends hardly overlap anyway: the cold sync's CPU time is
    // its wall time.
    Unpinned unpinned;
    Companion leader(served->leader_thread());
    PinForNext(ctx, "catchup_s", 1);
    bool cold_ok = false;
    const TimedStep cold = TimeOnCore([&] {
      Span span(ctx.tracer, "sync.cold");
      cold_ok = follower.SyncOnce(served->channel()).ok();
    });
    Expect(ctx, cold_ok, "catchup: cold sync");
    PushStep(ctx, "catchup", cold);
    ctx.verdict.Check(same_root(), "catchup: root differs after the cold sync");

    Interleaved audits(std::move(prev.audits), sizes.delta_rounds);
    for (uint64_t r = 0; r < sizes.delta_rounds; ++r) {
      for (uint64_t i = 0; i < sizes.delta_entries; ++i) {
        state->board->Append("ballot", rng.RandomBytes(kBoardPayloadBytes));
      }
      {
        PinForNext(ctx, "catchup_delta", kWindow);
        Span span(ctx.tracer, "sync.delta");
        WallTimer wall;
        auto synced = follower.SyncOnce(served->channel());
        ctx.samples.Push("catchup_delta", "ms", Ms(wall), CoreRotation::Get().factor());
        Expect(ctx, synced.ok(), "catchup: incremental sync");
      }
      ctx.verdict.Check(same_root(), "catchup: root differs after an incremental round");
      audits.After(r);
    }
    audits.Finish();
  }
  Expect(ctx, served->Stop().ok(), "catchup: leader serve loop");
  out.audits =
      ChainAudits(ctx, kAuditReps, [&follower] { return follower.ledger().VerifyChain(); });
  out.board = std::move(state);
}

}  // namespace

// Incremental rounds append 128 entries, an eighth of a 1024-entry ledger
// segment, as a live follower mostly sees: seven rounds in eight stay inside
// the open segment and the eighth seals it, so the p50 is a sub-segment
// round. --issue-sizes are the sizes of a real registration day; README.md
// compares their per-voter costs with the default sizes'.
Sizes SizesFor(const Options& options) {
  if (options.smoke) {
    return Sizes{.register_voters = 64,
                 .tally_voters = 64,
                 .revote_voters = 64,
                 .board_entries = 4096,
                 .delta_rounds = 16,
                 .delta_entries = 128,
                 .replay_voters = 16};
  }
  if (options.issue_sizes) {
    return Sizes{.register_voters = 8192,
                 .tally_voters = 6144,
                 .revote_voters = 1536,
                 .board_entries = uint64_t{1} << 18,
                 .delta_rounds = 256,
                 .delta_entries = 128,
                 .replay_voters = 64};
  }
  return Sizes{.register_voters = 1024,
               .tally_voters = 512,
               .revote_voters = 128,
               .board_entries = uint64_t{1} << 16,
               .delta_rounds = 256,
               .delta_entries = 128,
               .replay_voters = 64};
}

LedgerStorageConfig FileStorage(const std::string& dir) {
  LedgerStorageConfig config;
  config.backend = LedgerStorageConfig::Backend::kFile;
  config.directory = dir;
  return config;
}

ChaChaRng StreamRng(uint64_t seed, std::string_view label, uint64_t round, uint64_t stream) {
  uint64_t label_hash = 1469598103934665603ull;  // FNV-1a
  for (char c : label) {
    label_hash = (label_hash ^ static_cast<uint8_t>(c)) * 1099511628211ull;
  }
  std::array<uint8_t, 32> key{};
  const uint64_t words[4] = {seed, label_hash, round, stream};
  for (size_t w = 0; w < 4; ++w) {
    for (size_t b = 0; b < 8; ++b) {
      key[w * 8 + b] = static_cast<uint8_t>(words[w] >> (8 * b));
    }
  }
  return ChaChaRng(key);
}

const std::vector<std::string>& Candidates() {
  static const std::vector<std::string> kCandidates = {"Alpha", "Beta", "Gamma", "Delta"};
  return kCandidates;
}

Electorate MakeElectorate(size_t voters, Rng& rng) {
  const size_t choices = Candidates().size();
  Electorate e;
  for (const std::string& candidate : Candidates()) {
    e.expected_counts[candidate] = 0;  // the tally reports every candidate
  }
  size_t block_fakes[3] = {0, 1, 2};
  for (size_t i = 0; i < voters; ++i) {
    char id[32];
    std::snprintf(id, sizeof(id), "voter-%06zu", i);
    e.ids.push_back(id);
    VoterPlan plan;
    // Each block of three voters holds one voter with each fake count, in
    // random order: every voter's count is uniform on 0-2, and any window of
    // 3k consecutive voters has the same mix (see kWindow).
    if (i % 3 == 0) {
      for (size_t k = 2; k > 0; --k) {
        std::swap(block_fakes[k], block_fakes[rng.Uniform(k + 1)]);
      }
    }
    plan.fakes = block_fakes[i % 3];
    for (size_t k = 0; k <= plan.fakes; ++k) {
      plan.choices.push_back(static_cast<size_t>(rng.Uniform(choices)));
    }
    plan.recast = rng.Uniform(4) == 0;
    plan.recast_choice = static_cast<size_t>(rng.Uniform(choices));
    e.casts += plan.choices.size() + (plan.recast ? 1 : 0);
    e.fake_ballots += plan.fakes;
    e.recasts += plan.recast ? 1 : 0;
    ++e.expected_counts[Candidates()[plan.recast ? plan.recast_choice : plan.choices[0]]];
    e.plans.push_back(std::move(plan));
  }
  return e;
}

void Samples::Push(const std::string& series, std::string_view unit, double value,
                   double factor, double stolen) {
  Series& s = series_[series];
  s.unit = unit;
  s.values.push_back(value);
  if (factor > 0.0) {
    s.at_reference.push_back(value * factor);
    s.stolen.push_back(stolen);
    stolen_ += stolen > kMaxStolen ? 1 : 0;
  }
}

std::vector<double> Samples::AtReference(const std::string& series) const {
  auto it = series_.find(series);
  if (it == series_.end()) {
    return {};
  }
  const Series& s = it->second;
  // A spell of steal can cover a whole run; its least-stolen steps are then
  // the closest to the program's own time.
  std::vector<double> shares = s.stolen;
  std::sort(shares.begin(), shares.end());
  const double limit =
      shares.empty() ? 0.0 : std::max(kMaxStolen, shares[(shares.size() - 1) / 3]);
  std::vector<double> kept;
  for (size_t i = 0; i < s.at_reference.size(); ++i) {
    if (s.stolen[i] <= limit) {
      kept.push_back(s.at_reference[i]);
    }
  }
  return kept;
}

const std::vector<double>* Samples::Find(const std::string& series) const {
  auto it = series_.find(series);
  return it == series_.end() ? nullptr : &it->second.values;
}

void Samples::AddTo(Report& report) const {
  for (const auto& [name, s] : series_) {
    if (s.unit == "ms") {
      report.Add(name + "_p50_ms", Quantile(s.values, 0.50), "ms", s.values.size());
      report.Add(name + "_p99_ms", Quantile(s.values, 0.99), "ms", s.values.size());
    } else {
      report.Add(name, Quantile(s.values, 0.50), s.unit, s.values.size());
    }
  }
}

void Expect(RunContext& ctx, bool ok, std::string_view what) {
  ctx.verdict.Op(ok, what);
  if (!ok) {
    throw BenchFailure(std::string(what) + " failed");
  }
}

void PinForNext(const RunContext& ctx, const std::string& series, size_t window) {
  const std::vector<double>* samples = ctx.samples.Find(series);
  CoreRotation::Get().Pin((samples != nullptr ? samples->size() : 0) / window);
}

ElectionState::~ElectionState() {
  election.reset();
  std::error_code ignored;
  fs::remove_all(dir, ignored);
}

BoardState::~BoardState() {
  follower.reset();
  board.reset();
  std::error_code ignored;
  fs::remove_all(dir, ignored);
}

std::unique_ptr<ElectionState> MakeElection(RunContext& ctx, const std::string& name,
                                            Electorate electorate, bool revoting, Rng& rng) {
  auto state = std::make_unique<ElectionState>();
  state->dir = ctx.dir + "/" + name;
  state->revoting = revoting;
  fs::remove_all(state->dir);
  ElectionConfig config;
  config.roster = electorate.ids;
  config.candidates = Candidates();
  config.threads = ctx.threads;
  config.storage = FileStorage(state->dir);
  config.revoting = revoting;
  state->electorate = std::move(electorate);
  state->election = std::make_unique<Election>(std::move(config), rng);
  return state;
}

void RegisterAll(RunContext& ctx, ElectionState& state, Rng& rng, const std::string& series) {
  for (size_t i = 0; i < state.electorate.ids.size(); ++i) {
    RegisterVoter(ctx, state, i, rng, series);
  }
}

void CastAll(RunContext& ctx, ElectionState& state, Rng& rng) {
  for (size_t i = 0; i < state.voters.size(); ++i) {
    CastVoter(ctx, state, i, rng, /*pin_casts=*/false);
  }
}

void TallyAndVerify(RunContext& ctx, ElectionState& state, Rng& rng,
                    const std::function<void(int)>& between) {
  const Election& election = *state.election;
  std::optional<TallyOutput> output;
  const TimedStep tally = TimeOnAllCores([&] {
    Span span(ctx.tracer, "tally");
    try {
      output = election.Tally(rng);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "tally failed: %s\n", e.what());
    }
  });
  state.tally_s = tally.wall_s;
  state.tally_cpu_s = tally.cpu_s;
  Expect(ctx, output.has_value(), "tally");
  PushStep(ctx, "tally", tally);
  if (between) {
    between(0);
  }
  std::vector<double> verify_s, verify_cpu_s;
  for (int k = 1; k <= kAuditReps; ++k) {
    Status status = Status::Ok();
    const TimedStep verify = TimeOnAllCores([&] {
      Span span(ctx.tracer, "verify");
      status = election.Verify(*output);
    });
    Expect(ctx, status.ok(), "verify");
    PushStep(ctx, "verify", verify);
    verify_s.push_back(verify.wall_s);
    verify_cpu_s.push_back(verify.cpu_s);
    if (between) {
      between(k);
    }
  }
  state.verify_s = Quantile(verify_s, 0.5);
  state.verify_cpu_s = Quantile(verify_cpu_s, 0.5);

  // The prediction: each voter's last real cast counts, fakes never do. A
  // fake credential's ballot survives dedup and drops at the tag join; a
  // recast supersedes the voter's first real ballot. Revote padding adds
  // published dummy groups: each drops size-1 members as superseded and its
  // survivor as an unmatched tag.
  const Electorate& e = state.electorate;
  const TallyResult& result = output->result;
  size_t dummy_groups = 0;
  size_t dummy_superseded = 0;
  for (const RevoteDummyGroup& group : output->transcript.revote.dummies) {
    ++dummy_groups;
    dummy_superseded += static_cast<size_t>(group.size) - 1;
  }
  ctx.verdict.Check(result.counts == e.expected_counts, "tally: counts differ from prediction");
  ctx.verdict.Check(result.counted == e.ids.size(), "tally: counted differs from voters");
  ctx.verdict.Check(result.discards.unmatched_tag == e.fake_ballots + dummy_groups,
                    "tally: unmatched_tag differs from prediction");
  ctx.verdict.Check(result.discards.superseded == e.recasts + dummy_superseded,
                    "tally: superseded differs from prediction");
  state.output = std::move(output);
}

Outcome<WireMessage> CountingChannel::Recv() {
  WallTimer timer;
  auto message = inner_->Recv();
  recv_wait_s += timer.Seconds();
  if (message.ok()) {
    ++frames;
    wire_bytes += 6 + message->payload.size();  // u32 length + u16 type + payload
  }
  return message;
}

ServedBoard::ServedBoard(const Ledger& board, const SchnorrKeyPair& key, uint64_t seed,
                         const std::string& socket_path)
    : key_(key), rng_(seed), leader_(board, key_, rng_) {
  constexpr uint64_t kRecvTimeoutMs = 30000;
  auto listener = SocketListener::Bind(socket_path, kRecvTimeoutMs);
  if (!listener.ok()) {
    return;
  }
  listener_ = std::move(*listener);
  // A listening unix socket completes connect() from its backlog, so both
  // ends exist before the leader thread starts.
  auto follower_end = ConnectUnixSocket(socket_path, kRecvTimeoutMs);
  if (!follower_end.ok()) {
    return;
  }
  auto leader_end = listener_->Accept();
  if (!leader_end.ok()) {
    return;
  }
  channel_ = std::make_unique<CountingChannel>(std::move(*follower_end));
  thread_ = std::thread(
      [this, end = std::move(*leader_end)] { serve_status_ = leader_.Serve(*end); });
}

ServedBoard::~ServedBoard() { Stop(); }

Status ServedBoard::Stop() {
  if (channel_ != nullptr) {
    channel_->Close();  // the leader's Recv sees EOF and Serve returns
  }
  if (thread_.joinable()) {
    thread_.join();
  }
  return serve_status_;
}

namespace {

// One round. `prev` holds what the previous round left (audits to run
// between this round's steps, the election to tally); `out` receives what
// this round leaves. `final` says no round follows.
void RunRound(RunContext& ctx, uint64_t round, bool final, LastRound& prev, LastRound& out) {
  const std::string& w = ctx.options.workload;
  Span span(ctx.tracer, "round");
  if (w == "register") {
    RegisterRound(ctx, round, prev, out);
  } else if (w == "tally" || w == "revote") {
    prev.election.reset();  // tallied and checked last round
    TallyRound(ctx, round, w == "revote", final, prev, out);
  } else {
    CatchupRound(ctx, round, prev, out);
  }
}

// RunRound, recording the round's own peak resident set (series
// "round_peak_rss_mb"). The process's peak creeps up from round to round, so
// it would grow with the number of rounds a run fits, and a faster program
// fits more. Heap pages earlier rounds freed go back to the system first, so
// the peak counts what the round holds, not what the allocator kept.
void RunMeasuredRound(RunContext& ctx, uint64_t round, bool final, LastRound& prev,
                      LastRound& out) {
  ::malloc_trim(0);
  ResetPeakRss();
  RunRound(ctx, round, final, prev, out);
  ctx.samples.Push("round_peak_rss_mb", "MB", PeakRssMb());
}

// The last round's audits, which no round follows to interleave them.
void FinishRounds(LastRound& last) {
  Unpinned unpinned;
  Interleaved(std::move(last.audits), 1).Finish();
}

}  // namespace

LastRound RunWorkload(RunContext& ctx, Samples& untraced_samples) {
  const bool one_round = ctx.options.smoke || ctx.options.issue_sizes;
  const size_t min_rounds = one_round ? 1 : 3;
  RunContext untraced{ctx.options, ctx.sizes,  ctx.threads, ctx.dir + "/untraced",
                      nullptr,     ctx.verdict, untraced_samples};
  LastRound last;
  LastRound untraced_last;
  WallTimer run;
  double round_s = 0.0;  // the previous round's length
  for (uint64_t round = 0;; ++round) {
    // A round starts only if it should end within --seconds, so a run lasts
    // about --seconds whatever its round length.
    if (round >= min_rounds && run.Seconds() + round_s > ctx.options.seconds) {
      break;
    }
    const bool final = one_round || (round + 1 >= min_rounds &&
                                     run.Seconds() + 2 * round_s > ctx.options.seconds);
    WallTimer round_timer;
    // The previous rounds' state is released after this round's steps,
    // outside anything timed.
    LastRound prev = std::exchange(last, LastRound{});
    if (ctx.tracer == nullptr) {
      RunMeasuredRound(ctx, round, final, prev, last);
    } else {
      LastRound untraced_prev = std::exchange(untraced_last, LastRound{});
      for (int k = 0; k < 2; ++k) {
        const bool traced = (round + k) % 2 == 1;
        fs::create_directories(untraced.dir);
        RunMeasuredRound(traced ? ctx : untraced, round, final, traced ? prev : untraced_prev,
                         traced ? last : untraced_last);
      }
    }
    round_s = round_timer.Seconds();
    if (final) {
      break;  // a final tally round set up no next election
    }
  }
  FinishRounds(untraced_last);
  FinishRounds(last);
  return last;
}

void AddEndToEnd(const std::string& workload, const Sizes& sizes, const Samples& samples,
                 Report& report) {
  // op / result / audit series per workload (see README.md, "Metrics").
  struct Roles {
    const char* op;
    const char* result;
    const char* audit;
  };
  Roles roles = {"cast", "tally", "verify"};
  if (workload == "register") {
    roles = {"register", "voter", "chains"};
  } else if (workload == "catchup") {
    roles = {"catchup_delta", "catchup", "chains"};
  }
  // Every time is taken at reference speed (host.h), as the median over
  // the run. Set-up is the median over rounds, so work moved into it shows
  // in full. On register, the result is the cohort's time: the median
  // window's visits (registration and casts of kWindow voters, about eight
  // with each fake count) scaled to the cohort size. A mean over the visits
  // follows the slow spells of a shared host.
  auto add = [&](const std::string& name, const std::string& series, const char* unit) {
    const std::vector<double> v = samples.AtReference(series);
    if (workload == "register" && series.starts_with("voter")) {
      std::vector<double> windows;
      for (size_t w = 0; w + kWindow <= v.size(); w += kWindow) {
        windows.push_back(std::accumulate(v.begin() + w, v.begin() + w + kWindow, 0.0));
      }
      const double scale =
          static_cast<double>(sizes.register_voters) / static_cast<double>(kWindow);
      if (!windows.empty()) {
        report.Add(name, scale * Quantile(windows, 0.5), unit, windows.size());
      }
    } else if (!v.empty()) {
      report.Add(name, Quantile(v, 0.5), unit, v.size());
    }
  };
  add("setup_s", "setup_s", "s");
  add("op_p50_ms", roles.op, "ms");
  for (const std::string suffix : {"_s", "_cpu_s"}) {
    add("result" + suffix, roles.result + suffix, "s");
    add("audit" + suffix, roles.audit + suffix, "s");
  }
  // Memory is the median over rounds of each round's peak resident set.
  if (const std::vector<double>* rss = samples.Find("round_peak_rss_mb"); rss != nullptr) {
    report.Add("peak_rss_mb", Quantile(*rss, 0.5), "MB", rss->size());
  }
}

}  // namespace votegral::bench
