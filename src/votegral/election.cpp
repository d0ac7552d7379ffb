#include "src/votegral/election.h"

namespace votegral {

namespace {

TripSystem MakeTrip(const ElectionConfig& config, Rng& rng) {
  TripSystemParams params;
  params.authority_members = config.authority_members;
  params.authority_threshold = config.authority_threshold;
  params.roster = config.roster;
  params.storage = config.storage;
  return TripSystem::Create(params, rng);
}

}  // namespace

Election::Election(ElectionConfig config, Rng& rng)
    : config_(std::move(config)),
      trip_(MakeTrip(config_, rng)),
      tagging_(TaggingService::Create(config_.tagging_members, rng)),
      candidates_(config_.candidates),
      dedicated_executor_(config_.threads != 0 ? std::make_unique<Executor>(config_.threads)
                                               : nullptr) {}

Executor& Election::executor() const {
  return dedicated_executor_ != nullptr ? *dedicated_executor_ : Executor::Global();
}

Outcome<RegisteredVoter> Election::Register(const std::string& voter_id, size_t fake_count,
                                            Vsd& vsd, Rng& rng) {
  return RegisterAndActivate(trip_, voter_id, fake_count, vsd, rng);
}

std::optional<size_t> Election::CandidateIndex(const std::string& candidate) const {
  for (size_t i = 0; i < candidates_.size(); ++i) {
    if (candidates_.name(i) == candidate) {
      return i;
    }
  }
  return std::nullopt;
}

Status Election::Cast(const ActivatedCredential& credential, const std::string& candidate,
                      Rng& rng) {
  std::optional<size_t> index = CandidateIndex(candidate);
  if (!index.has_value()) {
    return Status::Error("election: unknown candidate: " + candidate);
  }
  if (config_.revoting) {
    uint64_t& next = revote_counters_[credential.credential_pk];
    if (next >= kRevoteCounterLimit) {
      return Status::Error(StatusCode::kExhausted,
                           "election: credential has used all " +
                               std::to_string(kRevoteCounterLimit) + " revote counters");
    }
    RevoteBallot ballot = MakeRevoteBallot(credential, candidates_, *index,
                                           trip_.authority_pk(), next, rng);
    ++next;
    trip_.ledger().PostBallot(ballot.Serialize());
    return Status::Ok();
  }
  Ballot ballot = MakeBallot(credential, candidates_, *index, trip_.authority_pk(), rng);
  trip_.ledger().PostBallot(ballot.Serialize());
  return Status::Ok();
}

Status Election::CastRevote(const ActivatedCredential& credential, const std::string& candidate,
                            uint64_t counter, Rng& rng) {
  if (!config_.revoting) {
    return Status::Error("election: CastRevote requires config.revoting");
  }
  std::optional<size_t> index = CandidateIndex(candidate);
  if (!index.has_value()) {
    return Status::Error("election: unknown candidate: " + candidate);
  }
  RevoteBallot ballot = MakeRevoteBallot(credential, candidates_, *index,
                                         trip_.authority_pk(), counter, rng);
  trip_.ledger().PostBallot(ballot.Serialize());
  return Status::Ok();
}

TallyOutput Election::Tally(Rng& rng) const {
  // Dereferencing a failed Outcome throws ProtocolError carrying the coded
  // reason — the old abort-on-failure contract, now with localized blame.
  Outcome<TallyOutput> outcome = TryTally(rng);
  return std::move(*outcome);
}

Outcome<TallyOutput> Election::TryTally(Rng& rng) const {
  TallyService service(trip_.authority(), tagging_, executor(), config_.retry_policy,
                       config_.revoting, config_.revote_padding);
  return service.Run(trip_.ledger(), candidates_, trip_.authorized_kiosks(), rng);
}

Status Election::Verify(const TallyOutput& output) const {
  return VerifyElection(trip_.ledger(), verifier_params(), candidates_, output, executor());
}

VerifierParams Election::verifier_params() const {
  VerifierParams params;
  params.authority_pk = trip_.authority_pk();
  for (size_t i = 0; i < trip_.authority().size(); ++i) {
    params.authority_shares.push_back(trip_.authority().member(i).public_share);
  }
  params.authority_threshold =
      trip_.authority().is_threshold() ? trip_.authority().threshold() : 0;
  params.tagging_commitments = tagging_.commitments();
  params.authorized_kiosks = trip_.authorized_kiosks();
  params.authorized_officials = trip_.authorized_officials();
  params.revoting = config_.revoting;
  params.revote_padding = config_.revote_padding;
  return params;
}

}  // namespace votegral
