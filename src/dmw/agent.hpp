// The DMW agent state machine (paper §3, Phases II-IV).
//
// Each agent owns its secrets (bid polynomials), verifies everything it can
// observe, and aborts the protocol the moment a check fails — the behaviour
// the faithfulness proof (Thms. 4, 8) relies on. The protocol engine
// (dmw/protocol.hpp) drives agents through the phase steps one network round
// at a time, mirroring the implicit synchronization point II.4; all
// communication flows through SimNetwork so traffic statistics are real.
//
// Efficiency note (Thm. 12): verifying Eq. (11) for every publisher naively
// costs O(n^3 log p) per task because Gamma_{i,l} depends on both the
// verifier's pseudonym and the publisher. We instead aggregate the
// commitment vectors once per task — Qhat_l = prod_l' Q_{l',l} — after which
// prod_l Gamma_{i,l} == commitment_eval(Qhat, alpha_i), restoring the
// claimed O(m n^2 log p) bound. The same aggregate serves Eq. (13) via Rhat.
//
// Execution model: every phase is split into a per-agent *ingest* step
// (drains the inbox / bulletin and touches cross-task members: transcript,
// peer keys, bids) and per-task *compute* steps that read shared-const state
// and write only their own TaskView. The engine's stage table chains them
// ingest -> per-task steps -> commit_task_failures(), running the per-task
// steps inline in ascending task order or as slices on ThreadPool workers.
// Per-task randomness comes from an independent ChaCha stream keyed by
// (master seed, task id), so sampled polynomials are identical no matter
// which worker — or how many workers — execute the task. Failed checks are
// *recorded* per task and committed at the stage barrier as a single abort
// on the lowest failing task, which is exactly the abort the historical
// sequential scan (tasks in ascending order, stop at first failure)
// produced.
#pragma once

#include <array>
#include <map>
#include <optional>
#include <span>
#include <vector>

#include "crypto/aead.hpp"
#include "crypto/chacha.hpp"
#include "crypto/dh.hpp"
#include "crypto/transcript.hpp"
#include "dmw/batchverify.hpp"
#include "dmw/messages.hpp"
#include "dmw/params.hpp"
#include "dmw/polycommit.hpp"
#include "dmw/strategy.hpp"
#include "net/network.hpp"
#include "poly/lagrange.hpp"
#include "support/logging.hpp"
#include "support/secret.hpp"
#include "support/trace.hpp"

namespace dmw::proto {

/// Resolved auction result for one task, as seen by one agent.
template <dmw::num::GroupBackend G>
struct TaskView {
  // Phase II inputs. The polynomial bundle and incoming shares are the
  // losing-bid witnesses Thm. 10's privacy argument protects: both live
  // behind the secret-hygiene wrapper and are zeroized with the view.
  std::optional<Secret<BidPolynomials<G>>> secrets;
  std::vector<std::optional<Secret<ShareBundle<G>>>> shares_in;  // by sender
  std::vector<std::optional<CommitmentVectors<G>>> commitments;  // by agent
  /// Participation mask: false for agents that posted no commitments and are
  /// treated as crashed (crash-tolerant mode only; everyone is alive in the
  /// strict protocol). All honest agents agree on this mask because it is a
  /// function of the shared bulletin.
  std::vector<bool> alive;

  // Aggregated commitment vectors (see header comment).
  std::vector<typename G::Elem> qhat, rhat;

  // Phase III state.
  std::vector<std::optional<typename G::Elem>> lambda, psi;       // by agent
  std::vector<std::optional<std::vector<typename G::Scalar>>> disclosures;
  std::vector<std::optional<typename G::Elem>> lambda_red, psi_red;

  std::optional<mech::Cost> first_price;
  std::optional<std::size_t> winner;
  std::optional<mech::Cost> second_price;
};

template <dmw::num::GroupBackend G>
class DmwAgent {
 public:
  DmwAgent(const PublicParams<G>& params, std::size_t id,
           std::vector<mech::Cost> true_costs, Strategy<G>& strategy,
           std::uint64_t secret_seed, bool encrypt_channels = true)
      : params_(params),
        id_(id),
        true_costs_(std::move(true_costs)),
        strategy_(strategy),
        secret_seed_(secret_seed),
        rng_(crypto::ChaChaRng::from_seed(secret_seed, id)),
        transcript_("dmw-session"),
        tasks_(params.m()),
        task_failures_(params.m()),
        encrypt_(encrypt_channels),
        dh_(crypto::DhKeyPair<G>::generate(params.group(), rng_)),
        peer_keys_(params.n()) {
    DMW_REQUIRE(id_ < params_.n());
    DMW_REQUIRE(true_costs_.size() == params_.m());
    build_stream_caches();
    for (auto& view : tasks_) {
      view.shares_in.assign(params_.n(), std::nullopt);
      view.commitments.assign(params_.n(), std::nullopt);
      view.alive.assign(params_.n(), true);
      view.lambda.assign(params_.n(), std::nullopt);
      view.psi.assign(params_.n(), std::nullopt);
      view.disclosures.assign(params_.n(), std::nullopt);
      view.lambda_red.assign(params_.n(), std::nullopt);
      view.psi_red.assign(params_.n(), std::nullopt);
    }
  }

  std::size_t id() const { return id_; }
  bool aborted() const { return abort_.has_value(); }
  /// True when a fail-silent strategy stopped this agent without an abort.
  bool halted() const { return halted_; }
  /// No further participation: either aborted (with broadcast) or halted.
  bool stopped() const { return aborted() || halted_; }
  std::optional<AbortMsg> abort_record() const { return abort_; }
  const std::vector<mech::Cost>& bids() const { return bids_; }
  const crypto::Transcript& transcript() const { return transcript_; }

  /// Resolved outcome views (valid only after the corresponding step).
  const TaskView<G>& task_view(std::size_t task) const {
    DMW_REQUIRE(task < tasks_.size());
    return tasks_[task];
  }

  // ---- Channel setup -------------------------------------------------------

  /// Publish the Diffie-Hellman public key that peers use to seal the
  /// private-channel traffic ("securely transmits the shares", II.2).
  void phase0_publish_key(net::SimNetwork& net) {
    if (stopped() || !encrypt_) return;
    DMW_SPAN("phase0/publish_key", id_);
    typename G::Elem public_key = dh_.public_key;
    if (!strategy_.edit_key_exchange(public_key)) return;  // withheld
    KeyExchangeMsg<G> msg{public_key};
    net.publish(static_cast<net::AgentId>(id_),
                static_cast<std::uint32_t>(MsgKind::kKeyExchange),
                msg.encode(params_.group()));
  }

  // ---- Phase II ------------------------------------------------------------

  /// II.1 ingest: absorb peers' DH keys, choose bids, derive every channel
  /// key eagerly (the per-task send steps then only *read* the key caches,
  /// which keeps them safe to run concurrently).
  void phase2_prepare(net::SimNetwork& net) {
    if (stopped()) return;
    DMW_SPAN("phase2/prepare", id_);
    absorb_bulletin(net);  // peers' DH keys
    bids_ = strategy_.choose_bids(true_costs_, params_.bid_set());
    DMW_CHECK_MSG(bids_.size() == params_.m(), "strategy returned bad bids");
    derive_channel_keys();
  }

  /// II.2-II.3 for one task: sample the bid polynomials from the task's own
  /// ChaCha stream, distribute shares over the private channels, publish
  /// commitments. Writes only tasks_[task].
  void phase2_send_task(net::SimNetwork& net, std::size_t j) {
    if (stopped()) return;
    DMW_SPAN("phase2/send_task", j);
    const G& g = params_.group();
    auto& view = tasks_[j];
    crypto::ChaChaRng rng = task_rng(j);
    view.secrets = Secret<BidPolynomials<G>>(
        BidPolynomials<G>::sample(params_, bids_[j], rng));

    for (std::size_t k = 0; k < params_.n(); ++k) {
      Secret<ShareBundle<G>> bundle(ShareBundle<G>::from_polys(
          g, view.secrets->reveal(), params_.pseudonym(k)));
      if (k == id_) {
        view.shares_in[id_] = bundle;  // my own shares, kept locally
        continue;
      }
      if (!strategy_.edit_share(j, k, bundle.reveal_mut())) continue;
      SharesMsg<G> msg{static_cast<std::uint32_t>(j), bundle.reveal()};
      std::vector<std::uint8_t> payload = msg.encode(g);
      if (encrypt_) {
        // No published key means the peer cannot open anything we send;
        // skip (a silent peer is handled by the crash/abort logic).
        if (!peer_keys_[k]) continue;
        // Wire format: cleartext 4-byte nonce (the task id, one use per
        // directional key) followed by ciphertext||tag.
        net::Writer wrapper;
        wrapper.u32(static_cast<std::uint32_t>(j));
        std::vector<std::uint8_t> wire = wrapper.take();
        channel(k, /*outbound=*/true)
            .seal(/*nonce=*/j, payload, channel_aad(id_, k), wire);
        payload = std::move(wire);
      }
      net.send(static_cast<net::AgentId>(id_), static_cast<net::AgentId>(k),
               static_cast<std::uint32_t>(MsgKind::kShares),
               std::move(payload));
    }

    CommitmentVectors<G> commitments =
        CommitmentVectors<G>::commit(params_, view.secrets->reveal());
    if (!strategy_.edit_commitments(j, commitments)) return;  // withheld
    CommitmentsMsg<G> msg{static_cast<std::uint32_t>(j),
                          std::move(commitments)};
    net.publish(static_cast<net::AgentId>(id_),
                static_cast<std::uint32_t>(MsgKind::kCommitments),
                msg.encode(g));
  }

  // ---- Phase III -----------------------------------------------------------

  /// III.1 ingest: open the sealed share envelopes and absorb the published
  /// commitments. Touches every TaskView, so it runs per-agent, before the
  /// per-task verification steps.
  void phase3_ingest(net::SimNetwork& net) {
    if (stopped()) return;
    DMW_SPAN("phase3/ingest", id_);
    drain_unicasts(net);
    absorb_bulletin(net);
  }

  /// Bulletin catch-up for the verification steps of III.2-III.4 (no inbox
  /// traffic in those rounds).
  void absorb_published(net::SimNetwork& net) {
    if (stopped()) return;
    DMW_SPAN("phase3/absorb_published", id_);
    absorb_bulletin(net);
  }

  /// III.1 for one task: verify Eqs. (7)-(9) and build the Qhat/Rhat
  /// aggregates. Failures are recorded, not thrown: commit_task_failures()
  /// turns the lowest failing task into the abort broadcast.
  ///
  /// With params.batch_verify() (the default) all 3*(n-1) commitment checks
  /// of the task fold into one RLC batch (dmw/batchverify.hpp): one
  /// fixed-base commitment on the left against one long multi-exponentiation
  /// on the right. An honest transcript always passes the batch (the fold is
  /// exact); any presence/shape problem or a failed batch delegates to the
  /// sequential scan, whose early-return order is what assigns the abort —
  /// so AbortReason records are byte-identical in both modes.
  void phase3_verify_task(net::SimNetwork& net, std::size_t j) {
    if (stopped()) return;
    DMW_SPAN("phase3/verify_shares", j);
    (void)net;
    if (!params_.batch_verify()) return phase3_verify_task_sequential(j);
    const G& g = params_.group();
    auto& view = tasks_[j];
    // Presence / well-formedness scan, ascending k, with the same
    // crash-handling side effects as the sequential path (idempotent, so
    // the fallback below can replay them safely). Attributing any failure
    // here needs the sequential interleaving of presence and value checks —
    // delegate the whole task.
    for (std::size_t k = 0; k < params_.n(); ++k) {
      if (!view.commitments[k]) {
        if (params_.crash_tolerant()) {
          view.alive[k] = false;
          view.shares_in[k].reset();  // ignore any stray shares it sent
          continue;
        }
        return phase3_verify_task_sequential(j);
      }
      if (!view.shares_in[k] || !view.commitments[k]->well_formed(params_))
        return phase3_verify_task_sequential(j);
    }
    // alpha_i^{l+1} for l = 0..sigma-1, shared by all three equations of
    // every peer: the precomputed PublicParams row, never rebuilt per task.
    const std::size_t sigma = params_.sigma();
    const auto& apow = params_.pseudonym_powers(id_);
    BatchVerifier<G> batch(g, rlc_rng(j, kRlcStageVerify));
    for (std::size_t k = 0; k < params_.n(); ++k) {
      if (!view.alive[k]) continue;
      const auto& commitments = *view.commitments[k];
      const auto& shares = view.shares_in[k]->reveal();
      // Eq. (7): commit(e*f, g) == prod_l O_l^{alpha_i^l}.
      const auto r7 = batch.draw();
      batch.fold_commit(r7, g.smul(shares.e, shares.f), shares.g);
      for (std::size_t l = 0; l < sigma; ++l)
        batch.rhs_term(commitments.O[l], g.smul(r7, apow[l]));
      // Eq. (8): commit(e, h) == prod_l Q_l^{alpha_i^l}.
      const auto r8 = batch.draw();
      batch.fold_commit(r8, shares.e, shares.h);
      for (std::size_t l = 0; l < sigma; ++l)
        batch.rhs_term(commitments.Q[l], g.smul(r8, apow[l]));
      // Eq. (9): commit(f, h) == prod_l R_l^{alpha_i^l}.
      const auto r9 = batch.draw();
      batch.fold_commit(r9, shares.f, shares.h);
      for (std::size_t l = 0; l < sigma; ++l)
        batch.rhs_term(commitments.R[l], g.smul(r9, apow[l]));
    }
    if (!batch.verify()) {
      DMW_COUNT("batchverify/replays", 1);
      return phase3_verify_task_sequential(j);
    }
    DMW_COUNT("batchverify/batches", 1);
    DMW_COUNT("batchverify/checks_batched", batch.checks());
    finish_verified_task(j);
  }

  /// III.2 (Eq. 10) for one task: publish Lambda_i = z1^{E(alpha_i)},
  /// Psi_i = z2^{H(alpha_i)}.
  void phase3_lambda_task(net::SimNetwork& net, std::size_t j) {
    if (stopped()) return;
    DMW_SPAN("phase3/lambda_psi", j);
    const G& g = params_.group();
    {
      auto& view = tasks_[j];
      typename G::Scalar e_sum = g.szero();
      typename G::Scalar h_sum = g.szero();
      for (std::size_t k = 0; k < params_.n(); ++k) {
        if (!view.alive[k]) continue;
        e_sum = g.sadd(e_sum, view.shares_in[k]->reveal().e);
        h_sum = g.sadd(h_sum, view.shares_in[k]->reveal().h);
      }
      typename G::Elem lambda = g.pow(g.z1(), e_sum);
      typename G::Elem psi = g.pow(g.z2(), h_sum);
      if (!strategy_.edit_lambda_psi(j, lambda, psi)) return;  // withheld
      LambdaPsiMsg<G> msg{static_cast<std::uint32_t>(j), lambda, psi};
      net.publish(static_cast<net::AgentId>(id_),
                  static_cast<std::uint32_t>(MsgKind::kLambdaPsi),
                  msg.encode(g));
    }
  }

  /// III.2 verification (Eq. 11) for one task. Batched by default: one RLC
  /// coefficient per publisher folds prod_k (Lambda_k Psi_k)^{r_k} against
  /// prod_l Qhat_l^{w_l} with merged weights w_l = sum_k r_k alpha_k^{l+1} —
  /// sigma right-hand bases total, instead of one full commitment
  /// evaluation per publisher. Presence failures and batch mismatches
  /// delegate to the sequential scan for attribution.
  void phase3_first_price_checks_task(net::SimNetwork& net, std::size_t j) {
    if (stopped()) return;
    DMW_SPAN("phase3/first_price_checks", j);
    (void)net;
    if (!params_.batch_verify()) return phase3_first_price_checks_sequential(j);
    const G& g = params_.group();
    auto& view = tasks_[j];
    for (std::size_t k = 0; k < params_.n(); ++k) {
      if (!view.alive[k]) continue;  // crashed agents publish nothing
      if (!view.lambda[k] || !view.psi[k]) {
        // A participant that fell silent after Phase II: tolerated as a
        // lost resolution point in crash-tolerant mode, fatal otherwise.
        if (params_.crash_tolerant()) continue;
        return phase3_first_price_checks_sequential(j);
      }
    }
    const std::size_t sigma = params_.sigma();
    std::vector<typename G::Scalar> weights(sigma, g.szero());
    BatchVerifier<G> batch(g, rlc_rng(j, kRlcStageFirstPrice));
    for (std::size_t k = 0; k < params_.n(); ++k) {
      if (!view.alive[k] || !view.lambda[k] || !view.psi[k]) continue;
      const auto r = batch.draw();
      batch.lhs_term(g.mul(*view.lambda[k], *view.psi[k]), r);
      const auto& kpow = params_.pseudonym_powers(k);
      for (std::size_t l = 0; l < sigma; ++l)
        weights[l] = g.sadd(weights[l], g.smul(r, kpow[l]));
    }
    for (std::size_t l = 0; l < sigma; ++l)
      batch.rhs_term(view.qhat[l], weights[l]);
    if (!batch.verify()) {
      DMW_COUNT("batchverify/replays", 1);
      return phase3_first_price_checks_sequential(j);
    }
    DMW_COUNT("batchverify/batches", 1);
    DMW_COUNT("batchverify/checks_batched", batch.checks());
  }

  /// First-price resolution (Eq. 12) for one task: least s with
  /// z1^{E^{(s)}(0)} == 1; degree = s - 1. Skips tasks the checks already
  /// doomed. Idempotent, so benchmarks may re-run it.
  void phase3_first_price_resolve_task(net::SimNetwork& net, std::size_t j) {
    if (stopped()) return;
    (void)net;
    if (task_failures_[j]) return;
    DMW_SPAN("phase3/price_resolution", j);
    auto& view = tasks_[j];
    const auto resolution = resolve_published(view, view.lambda, view.psi);
    if (!resolution.degree || !params_.degree_is_valid_bid(*resolution.degree))
      return record_failure(j, AbortReason::kFirstPriceUnresolved);
    view.first_price = params_.bid_for_degree(*resolution.degree);
  }

  /// III.2 verification (Eq. 11) + first-price resolution (Eq. 12) for one
  /// task.
  void phase3_first_price_task(net::SimNetwork& net, std::size_t j) {
    phase3_first_price_checks_task(net, j);
    phase3_first_price_resolve_task(net, j);
  }

  /// III.3 disclosure for one task: the first y*+1 agents publish the
  /// f-shares they hold.
  void phase3_disclose_task(net::SimNetwork& net, std::size_t j) {
    if (stopped()) return;
    DMW_SPAN("phase3/disclose", j);
    const G& g = params_.group();
    {
      auto& view = tasks_[j];
      // Prescribed disclosers: the first y*+1 participants in pseudonym
      // order; crash-tolerant runs add c backups so up to c silent
      // disclosers cannot deadlock winner identification (cf. Thm. 8's
      // "any of the other properly functioning agents can transmit").
      const std::size_t needed = *view.first_price + 1 +
                                 (params_.crash_tolerant() ? params_.c() : 0);
      bool should_disclose = false;
      std::size_t alive_rank = 0;
      for (std::size_t k = 0; k <= id_; ++k) {
        if (!view.alive[k]) continue;
        ++alive_rank;
        if (k == id_) should_disclose = alive_rank <= needed;
      }
      std::vector<typename G::Scalar> f_shares;
      f_shares.reserve(params_.n());
      for (std::size_t k = 0; k < params_.n(); ++k)
        f_shares.push_back(view.alive[k] ? view.shares_in[k]->reveal().f
                                         : g.szero());
      if (!strategy_.edit_disclosure(j, should_disclose, f_shares)) return;
      WinnerSharesMsg<G> msg{static_cast<std::uint32_t>(j),
                             std::move(f_shares)};
      net.publish(static_cast<net::AgentId>(id_),
                  static_cast<std::uint32_t>(MsgKind::kWinnerShares),
                  msg.encode(g));
    }
  }

  /// III.3 winner identification for one task: verify disclosures (Eq. 13),
  /// interpolate every f at the disclosed points (Eq. 14), pick the winner
  /// (smallest pseudonym on ties).
  void phase3_winner_task(net::SimNetwork& net, std::size_t j) {
    if (stopped()) return;
    DMW_SPAN("phase3/winner", j);
    (void)net;
    const G& g = params_.group();
    {
      auto& view = tasks_[j];
      const std::size_t needed = *view.first_price + 1;

      // Validate each disclosure with Eq. (13) and keep the valid ones.
      std::vector<std::size_t> valid_disclosers;
      const CommitmentEvalCache<G> rhat_eval(g, view.rhat);
      for (std::size_t k = 0; k < params_.n(); ++k) {
        if (!view.alive[k] || !view.disclosures[k]) continue;
        const auto& disclosed = *view.disclosures[k];
        if (disclosed.size() != params_.n()) {
          view.disclosures[k].reset();
          continue;
        }
        if (!view.psi[k]) continue;
        typename G::Scalar f_sum = g.szero();
        for (std::size_t l = 0; l < params_.n(); ++l) {
          if (view.alive[l]) f_sum = g.sadd(f_sum, disclosed[l]);
        }
        const auto lhs = g.mul(g.pow(g.z1(), f_sum), *view.psi[k]);
        const auto rhs = rhat_eval.eval(params_.pseudonym(k));
        if (lhs != rhs) return record_failure(j, AbortReason::kBadDisclosure);
        valid_disclosers.push_back(k);
        if (valid_disclosers.size() == needed) break;
      }
      if (valid_disclosers.size() < needed)
        return record_failure(j, AbortReason::kMissingDisclosure);

      // Interpolate each agent's f over the disclosed points; the winner's
      // f (degree y*) vanishes at zero with y*+1 points (Eq. 14). Every
      // candidate interpolates over the same point set, so the Lagrange
      // basis at zero — and its one batched field inversion — is hoisted
      // out of the candidate loop; per candidate only the dot product with
      // the disclosed values remains.
      std::vector<typename G::Scalar> points;
      points.reserve(needed);
      for (std::size_t k : valid_disclosers)
        points.push_back(params_.pseudonym(k));
      const auto rho = poly::lagrange_basis_at_zero(g, points, needed);
      std::optional<std::size_t> winner;
      for (std::size_t candidate = 0; candidate < params_.n(); ++candidate) {
        if (!view.alive[candidate]) continue;
        typename G::Scalar at_zero = g.szero();
        for (std::size_t t = 0; t < needed; ++t) {
          at_zero = g.sadd(
              at_zero,
              g.smul((*view.disclosures[valid_disclosers[t]])[candidate],
                     rho[t]));
        }
        if (at_zero == g.szero()) {
          winner = candidate;  // smallest pseudonym first: loop order
          break;
        }
      }
      if (!winner) return record_failure(j, AbortReason::kNoWinner);
      view.winner = winner;
    }
  }

  /// III.4 (Eq. 15) for one task: publish the winner-excluded Lambda/Psi.
  void phase3_reduced_task(net::SimNetwork& net, std::size_t j) {
    if (stopped()) return;
    DMW_SPAN("phase3/reduced_lambda_psi", j);
    const G& g = params_.group();
    {
      auto& view = tasks_[j];
      const std::size_t w = *view.winner;
      // An agent that never published its own Lambda/Psi (e.g. a deviant
      // strategy suppressed them in a crash-tolerant run) has nothing to
      // reduce.
      if (!view.lambda[id_] || !view.psi[id_]) return;
      // Lambda_i / z1^{e_*(alpha_i)}, Psi_i / z2^{h_*(alpha_i)}: I know the
      // winner's shares at my own pseudonym.
      typename G::Elem lambda = g.mul(
          *view.lambda[id_],
          g.inv(g.pow(g.z1(), view.shares_in[w]->reveal().e)));
      typename G::Elem psi = g.mul(
          *view.psi[id_],
          g.inv(g.pow(g.z2(), view.shares_in[w]->reveal().h)));
      if (!strategy_.edit_reduced_lambda_psi(j, lambda, psi)) return;
      LambdaPsiMsg<G> msg{static_cast<std::uint32_t>(j), lambda, psi};
      net.publish(static_cast<net::AgentId>(id_),
                  static_cast<std::uint32_t>(MsgKind::kReducedLambdaPsi),
                  msg.encode(g));
    }
  }

  /// III.4 verification (Eq. 11 excluding the winner) for one task. The
  /// batched form clears the winner's denominator instead of inverting it:
  ///   prod_k (LambdaRed_k PsiRed_k)^{r_k} * prod_l WinnerQ_l^{w_l}
  ///     == prod_l Qhat_l^{w_l},          w_l = sum_k r_k alpha_k^{l+1},
  /// so the batched path needs no group inversions at all. Presence
  /// failures and batch mismatches delegate to the sequential scan.
  void phase3_second_price_checks_task(net::SimNetwork& net, std::size_t j) {
    if (stopped()) return;
    DMW_SPAN("phase3/second_price_checks", j);
    (void)net;
    if (!params_.batch_verify())
      return phase3_second_price_checks_sequential(j);
    const G& g = params_.group();
    auto& view = tasks_[j];
    for (std::size_t k = 0; k < params_.n(); ++k) {
      if (!view.alive[k]) continue;
      if (!view.lambda_red[k] || !view.psi_red[k]) {
        if (params_.crash_tolerant()) continue;  // lost point, not fatal
        return phase3_second_price_checks_sequential(j);
      }
    }
    const auto& winner_commits = *view.commitments[*view.winner];
    const std::size_t sigma = params_.sigma();
    std::vector<typename G::Scalar> weights(sigma, g.szero());
    BatchVerifier<G> batch(g, rlc_rng(j, kRlcStageSecondPrice));
    for (std::size_t k = 0; k < params_.n(); ++k) {
      if (!view.alive[k] || !view.lambda_red[k] || !view.psi_red[k]) continue;
      const auto r = batch.draw();
      batch.lhs_term(g.mul(*view.lambda_red[k], *view.psi_red[k]), r);
      const auto& kpow = params_.pseudonym_powers(k);
      for (std::size_t l = 0; l < sigma; ++l)
        weights[l] = g.sadd(weights[l], g.smul(r, kpow[l]));
    }
    for (std::size_t l = 0; l < sigma; ++l) {
      batch.lhs_term(winner_commits.Q[l], weights[l]);
      batch.rhs_term(view.qhat[l], weights[l]);
    }
    if (!batch.verify()) {
      DMW_COUNT("batchverify/replays", 1);
      return phase3_second_price_checks_sequential(j);
    }
    DMW_COUNT("batchverify/batches", 1);
    DMW_COUNT("batchverify/checks_batched", batch.checks());
  }

  /// Second-price resolution for one task over the reduced Lambda points.
  /// Skips tasks the checks already doomed. Idempotent.
  void phase3_second_price_resolve_task(net::SimNetwork& net, std::size_t j) {
    if (stopped()) return;
    (void)net;
    if (task_failures_[j]) return;
    DMW_SPAN("phase3/second_price_resolution", j);
    auto& view = tasks_[j];
    const auto resolution =
        resolve_published(view, view.lambda_red, view.psi_red);
    if (!resolution.degree || !params_.degree_is_valid_bid(*resolution.degree))
      return record_failure(j, AbortReason::kSecondPriceUnresolved);
    view.second_price = params_.bid_for_degree(*resolution.degree);
  }

  /// III.4 verification + second-price resolution for one task.
  void phase3_second_price_task(net::SimNetwork& net, std::size_t j) {
    phase3_second_price_checks_task(net, j);
    phase3_second_price_resolve_task(net, j);
  }

  // ---- Phase IV ------------------------------------------------------------

  /// IV.1: compute the full payment vector and submit it to the payment
  /// infrastructure (modeled as a published claim).
  void phase4_submit_payment_claim(net::SimNetwork& net) {
    if (stopped()) return;
    DMW_SPAN("phase4/payment_claim", id_);
    std::vector<std::uint64_t> payments(params_.n(), 0);
    for (std::size_t j = 0; j < params_.m(); ++j) {
      const auto& view = tasks_[j];
      payments[*view.winner] += *view.second_price;
    }
    if (!strategy_.edit_payment_claim(payments)) return;  // withheld
    PaymentClaimMsg msg{std::move(payments)};
    net.publish(static_cast<net::AgentId>(id_),
                static_cast<std::uint32_t>(MsgKind::kPaymentClaim),
                msg.encode());
  }

  // ---- Abort semantics -----------------------------------------------------

  /// Stage barrier: turn the recorded per-task failures into the abort
  /// broadcast. The lowest failing task wins, which reproduces bit-for-bit
  /// the abort the historical sequential scan (tasks in ascending order,
  /// stop at the first failure) chose — regardless of which worker found
  /// which failure first. Call once per stage, after every task step of
  /// this agent's stage has finished.
  void commit_task_failures(net::SimNetwork& net) {
    if (stopped()) return;
    for (std::size_t j = 0; j < tasks_.size(); ++j) {
      if (task_failures_[j]) return abort(net, j, *task_failures_[j]);
    }
  }

 private:
  /// Record a per-task check failure for the stage barrier to commit. First
  /// reason per task wins (matching the sequential early-return). Safe to
  /// call concurrently for *different* tasks: each slot is written by the
  /// one worker that owns the task.
  void record_failure(std::size_t task, AbortReason reason) {
    if (!task_failures_[task]) task_failures_[task] = reason;
  }

  /// Degree resolution (Eq. 12) over the published Lambda points of the
  /// participants that sent both `lambda` and `psi`, in pseudonym order.
  /// With all n points present that is the whole pseudonym set, whose
  /// prefix bases PublicParams already holds; a crash gap builds bases for
  /// the surviving points.
  poly::DegreeResolution resolve_published(
      const TaskView<G>& view,
      const std::vector<std::optional<typename G::Elem>>& lambda,
      const std::vector<std::optional<typename G::Elem>>& psi) const {
    std::vector<typename G::Scalar> points;
    std::vector<typename G::Elem> lambdas;
    points.reserve(params_.n());
    lambdas.reserve(params_.n());
    for (std::size_t k = 0; k < params_.n(); ++k) {
      if (!view.alive[k] || !lambda[k] || !psi[k]) continue;
      points.push_back(params_.pseudonym(k));
      lambdas.push_back(*lambda[k]);
    }
    const G& g = params_.group();
    if (lambdas.size() == params_.n())
      return poly::resolve_degree_in_exponent(g, params_.prefix_bases(),
                                              lambdas);
    return poly::resolve_degree_in_exponent(g, points, lambdas);
  }

  /// The historical one-check-at-a-time III.1 scan. The batch_verify=false
  /// ablation runs it for every task; the batched path runs it only for a
  /// task whose batch failed (or that has a presence/shape problem), because
  /// its ascending-k early-return order is the definition of which
  /// AbortReason the task gets. All mutations (alive mask, stray-share
  /// reset) are idempotent, so replaying after the batched scan is safe.
  void phase3_verify_task_sequential(std::size_t j) {
    const G& g = params_.group();
    const auto& alpha_i = params_.pseudonym(id_);
    auto& view = tasks_[j];
    for (std::size_t k = 0; k < params_.n(); ++k) {
      if (!view.commitments[k]) {
        // Crash-tolerant mode: an agent that published nothing is treated
        // as crashed and excluded from the auction (Open Problem 11); the
        // strict protocol aborts. An agent that published commitments but
        // withheld shares is an equivocator, not a crash — abort in both
        // modes.
        if (params_.crash_tolerant()) {
          view.alive[k] = false;
          view.shares_in[k].reset();  // ignore any stray shares it sent
          continue;
        }
        return record_failure(j, AbortReason::kMissingCommitments);
      }
      if (!view.shares_in[k])
        return record_failure(j, AbortReason::kMissingShares);
      const auto& commitments = *view.commitments[k];
      if (!commitments.well_formed(params_))
        return record_failure(j, AbortReason::kBadShareCommitment);
      const auto& shares = view.shares_in[k]->reveal();
      if (!verify_product_commitment(g, shares, commitments.O, alpha_i))
        return record_failure(j, AbortReason::kBadShareCommitment);
      const auto gamma = gamma_value<G>(g, commitments.Q, alpha_i);
      if (!verify_eh_commitment(g, shares, gamma))
        return record_failure(j, AbortReason::kBadShareCommitment);
      const auto phi = phi_value<G>(g, commitments.R, alpha_i);
      if (!verify_fh_commitment(g, shares, phi))
        return record_failure(j, AbortReason::kBadShareCommitment);
    }
    finish_verified_task(j);
  }

  /// Shared III.1 epilogue: quorum check, then the Qhat/Rhat aggregates for
  /// Eqs. (11) and (13) over the participating agents only.
  void finish_verified_task(std::size_t j) {
    const G& g = params_.group();
    auto& view = tasks_[j];
    std::size_t alive_count = 0;
    for (std::size_t k = 0; k < params_.n(); ++k)
      if (view.alive[k]) ++alive_count;
    if (alive_count < params_.quorum() || alive_count < 2)
      return record_failure(j, AbortReason::kQuorumLost);
    const std::size_t sigma = params_.sigma();
    view.qhat.assign(sigma, g.identity());
    view.rhat.assign(sigma, g.identity());
    for (std::size_t k = 0; k < params_.n(); ++k) {
      if (!view.alive[k]) continue;
      const auto& commitments = *view.commitments[k];
      for (std::size_t l = 0; l < sigma; ++l) {
        view.qhat[l] = g.mul(view.qhat[l], commitments.Q[l]);
        view.rhat[l] = g.mul(view.rhat[l], commitments.R[l]);
      }
    }
  }

  /// The historical per-publisher Eq. (11) scan (one full commitment
  /// evaluation per publisher), kept as the batch_verify=false ablation and
  /// as the attribution fallback for a failed first-price batch.
  void phase3_first_price_checks_sequential(std::size_t j) {
    const G& g = params_.group();
    auto& view = tasks_[j];
    // One windowed-multiexp cache over Qhat, reused for all n pseudonyms.
    const CommitmentEvalCache<G> qhat_eval(g, view.qhat);
    for (std::size_t k = 0; k < params_.n(); ++k) {
      if (!view.alive[k]) continue;  // crashed agents publish nothing
      if (!view.lambda[k] || !view.psi[k]) {
        if (params_.crash_tolerant()) continue;
        return record_failure(j, AbortReason::kMissingLambdaPsi);
      }
      // Eq. (11): prod_l Gamma_{k,l} == Lambda_k * Psi_k, via the Qhat
      // aggregate evaluated at alpha_k.
      const auto expected = qhat_eval.eval(params_.pseudonym(k));
      if (g.mul(*view.lambda[k], *view.psi[k]) != expected)
        return record_failure(j, AbortReason::kBadLambdaPsi);
    }
  }

  /// The historical winner-excluded Eq. (11) scan: ablation and attribution
  /// fallback for III.4, mirroring phase3_first_price_checks_sequential.
  void phase3_second_price_checks_sequential(std::size_t j) {
    const G& g = params_.group();
    auto& view = tasks_[j];
    const auto& winner_commits = *view.commitments[*view.winner];
    const CommitmentEvalCache<G> qhat_eval(g, view.qhat);
    const CommitmentEvalCache<G> winner_q_eval(g, winner_commits.Q);
    for (std::size_t k = 0; k < params_.n(); ++k) {
      if (!view.alive[k]) continue;
      if (!view.lambda_red[k] || !view.psi_red[k]) {
        if (params_.crash_tolerant()) continue;  // lost point, not fatal
        return record_failure(j, AbortReason::kBadReducedLambdaPsi);
      }
      // Eq. (11) excluding the winner: divide the winner's Q out of the
      // aggregate before evaluating at alpha_k. (The batched path clears
      // this denominator instead of inverting it.)
      const auto& alpha_k = params_.pseudonym(k);
      const auto full = qhat_eval.eval(alpha_k);
      const auto winner_part = winner_q_eval.eval(alpha_k);
      // dmwlint:allow(loop-inverse) ablation kept verbatim; batching avoids it
      const auto expected = g.mul(full, g.inv(winner_part));
      if (g.mul(*view.lambda_red[k], *view.psi_red[k]) != expected)
        return record_failure(j, AbortReason::kBadReducedLambdaPsi);
    }
  }

  /// Independent ChaCha stream for one task's polynomial sampling. Streams
  /// (task+1)<<32 | id never collide with the DH stream (= id < 2^32), and
  /// depend only on (master seed, agent, task) — never on which worker runs
  /// the task or in which order. Returns a copy of the cached pristine
  /// stream state (built once in the constructor), so the per-task steps
  /// skip the SHA-256 key derivation and touch the cache read-only.
  crypto::ChaChaRng task_rng(std::size_t task) const {
    DMW_REQUIRE(task < task_rngs_.size());
    return task_rngs_[task];
  }

  /// Stage tags for the RLC batch-verification streams (dmw/batchverify.hpp).
  static constexpr std::uint64_t kRlcStageVerify = 1;
  static constexpr std::uint64_t kRlcStageFirstPrice = 2;
  static constexpr std::uint64_t kRlcStageSecondPrice = 3;
  static constexpr std::uint64_t kRlcStages = 3;

  /// Dedicated ChaCha stream for one task's RLC coefficients at one Phase
  /// III stage. The stage tag lives in the top byte, so these streams never
  /// collide with task_rng (stage bits zero there) or the DH stream; the
  /// batch folds checks in ascending peer order, so coefficients — and
  /// every byte derived from them — are independent of worker count and
  /// scheduling (the determinism contract of the parallel driver). Copies
  /// the cached pristine state, like task_rng.
  crypto::ChaChaRng rlc_rng(std::size_t task, std::uint64_t stage) const {
    DMW_REQUIRE(stage >= 1 && stage <= kRlcStages);
    DMW_REQUIRE(task < params_.m());
    return rlc_rngs_[(stage - 1) * params_.m() + task];
  }

  /// Build the per-(agent, task) stream caches once, before any fan-out:
  /// 1 polynomial stream + kRlcStages RLC streams per task. Hoisting the
  /// SHA-256 key derivations out of the per-task steps amortizes the setup
  /// across the m auctions and makes the hot-path accessors pure reads of
  /// immutable state (the cache-sharing contract; workers only ever copy).
  void build_stream_caches() {
    const std::size_t m = params_.m();
    task_rngs_.reserve(m);
    for (std::size_t j = 0; j < m; ++j) {
      const std::uint64_t stream =
          ((static_cast<std::uint64_t>(j) + 1) << 32) |
          static_cast<std::uint64_t>(id_);
      task_rngs_.push_back(crypto::ChaChaRng::from_seed(secret_seed_, stream));
    }
    rlc_rngs_.reserve(kRlcStages * m);
    for (std::uint64_t stage = 1; stage <= kRlcStages; ++stage) {
      for (std::size_t j = 0; j < m; ++j) {
        const std::uint64_t stream =
            (stage << 56) | ((static_cast<std::uint64_t>(j) + 1) << 32) |
            static_cast<std::uint64_t>(id_);
        rlc_rngs_.push_back(
            crypto::ChaChaRng::from_seed(secret_seed_, stream));
      }
    }
  }

  void abort(net::SimNetwork& net, std::size_t task, AbortReason reason) {
    if (aborted() || halted_) return;
    if (strategy_.fail_silent()) {
      // A crashed node cannot broadcast complaints: halt quietly.
      halted_ = true;
      return;
    }
    abort_ = AbortMsg{static_cast<std::uint32_t>(task), reason};
    if (trace::on()) {
      trace::counter("aborts/total").add(1);
      trace::counter(std::string("aborts/") + to_string(reason)).add(1);
    }
    DMW_DEBUG() << "agent " << id_ << " aborts on task " << task << ": "
                << to_string(reason);
    net.publish(static_cast<net::AgentId>(id_),
                static_cast<std::uint32_t>(MsgKind::kAbort), abort_->encode());
  }

  void drain_unicasts(net::SimNetwork& net) {
    const G& g = params_.group();
    for (auto& env : net.receive(static_cast<net::AgentId>(id_))) {
      if (env.kind != static_cast<std::uint32_t>(MsgKind::kShares)) continue;
      try {
        std::vector<std::uint8_t> plaintext = std::move(env.payload);
        if (encrypt_) {
          if (!peer_keys_[env.from])
            throw net::DecodeError("sealed message from key-less sender");
          net::Reader wrapper(plaintext);
          const std::uint32_t nonce = wrapper.u32();
          const auto sealed = std::span(plaintext).subspan(4);
          auto opened = channel(env.from, /*outbound=*/false)
                            .open(nonce, sealed, channel_aad(env.from, id_));
          if (!opened) throw net::DecodeError("AEAD authentication failed");
          plaintext = std::move(*opened);
        }
        auto msg = SharesMsg<G>::decode(g, plaintext);
        if (msg.task >= params_.m()) throw net::DecodeError("bad task id");
        if (!g.valid_scalar(msg.shares.e) || !g.valid_scalar(msg.shares.f) ||
            !g.valid_scalar(msg.shares.g) || !g.valid_scalar(msg.shares.h))
          throw net::DecodeError("share out of range");
        tasks_[msg.task].shares_in[env.from] =
            Secret<ShareBundle<G>>(msg.shares);
        zeroize(msg.shares);
      } catch (const net::DecodeError&) {
        return abort(net, 0, AbortReason::kMalformedMessage);
      }
    }
  }

  void absorb_bulletin(net::SimNetwork& net) {
    const G& g = params_.group();
    for (const auto& posting : net.read_bulletin(bulletin_cursor_)) {
      transcript_.append_u64("from", posting.from);
      transcript_.append_u64("kind", posting.kind);
      transcript_.append_bytes("payload", posting.payload);
      try {
        switch (static_cast<MsgKind>(posting.kind)) {
          case MsgKind::kKeyExchange: {
            auto msg = KeyExchangeMsg<G>::decode(g, posting.payload);
            if (!g.valid_elem(msg.public_key))
              throw net::DecodeError("DH key out of range");
            if (posting.from != id_) peer_keys_[posting.from] = msg.public_key;
            break;
          }
          case MsgKind::kCommitments: {
            auto msg = CommitmentsMsg<G>::decode(g, posting.payload);
            if (msg.task >= params_.m()) throw net::DecodeError("task");
            for (const auto* vec : {&msg.commitments.O, &msg.commitments.Q,
                                    &msg.commitments.R})
              for (const auto& e : *vec)
                if (!g.valid_elem(e))
                  throw net::DecodeError("commitment out of range");
            tasks_[msg.task].commitments[posting.from] =
                std::move(msg.commitments);
            break;
          }
          case MsgKind::kLambdaPsi: {
            auto msg = LambdaPsiMsg<G>::decode(g, posting.payload);
            if (msg.task >= params_.m()) throw net::DecodeError("task");
            if (!g.valid_elem(msg.lambda) || !g.valid_elem(msg.psi))
              throw net::DecodeError("lambda/psi out of range");
            tasks_[msg.task].lambda[posting.from] = msg.lambda;
            tasks_[msg.task].psi[posting.from] = msg.psi;
            break;
          }
          case MsgKind::kWinnerShares: {
            auto msg = WinnerSharesMsg<G>::decode(g, posting.payload);
            if (msg.task >= params_.m()) throw net::DecodeError("task");
            for (const auto& s : msg.f_shares)
              if (!g.valid_scalar(s))
                throw net::DecodeError("f-share out of range");
            tasks_[msg.task].disclosures[posting.from] =
                std::move(msg.f_shares);
            break;
          }
          case MsgKind::kReducedLambdaPsi: {
            auto msg = LambdaPsiMsg<G>::decode(g, posting.payload);
            if (msg.task >= params_.m()) throw net::DecodeError("task");
            if (!g.valid_elem(msg.lambda) || !g.valid_elem(msg.psi))
              throw net::DecodeError("lambda/psi out of range");
            tasks_[msg.task].lambda_red[posting.from] = msg.lambda;
            tasks_[msg.task].psi_red[posting.from] = msg.psi;
            break;
          }
          default:
            break;  // abort / payment messages are handled by the runner
        }
      } catch (const net::DecodeError&) {
        return abort(net, 0, AbortReason::kMalformedMessage);
      }
    }
  }

  /// Build both directional AEAD channels for every peer whose DH key is
  /// known: each derives its subkeys and HMAC midstates here, once, and the
  /// raw channel key dies with the temporary. Eager (phase2_prepare) rather
  /// than memoized-on-first-use so the per-task send/open steps touch the
  /// caches read-only — lazy fills from concurrent workers would race.
  void derive_channel_keys() {
    if (!encrypt_) return;
    if (send_keys_.empty()) send_keys_.resize(params_.n());
    if (recv_keys_.empty()) recv_keys_.resize(params_.n());
    for (std::size_t k = 0; k < params_.n(); ++k) {
      if (k == id_ || !peer_keys_[k] || send_keys_[k]) continue;
      const auto shared = crypto::dh_shared_element(
          params_.group(), dh_.secret, *peer_keys_[k]);
      send_keys_[k].emplace(
          crypto::derive_channel_key(params_.group(), shared, id_, k));
      recv_keys_[k].emplace(
          crypto::derive_channel_key(params_.group(), shared, k, id_));
    }
  }

  /// Directional AEAD channel with peer k (outbound: id_ -> k).
  /// Read-only: derive_channel_keys() must have run for this peer.
  const crypto::AeadChannel& channel(std::size_t k, bool outbound) const {
    const auto& cache = outbound ? send_keys_ : recv_keys_;
    DMW_REQUIRE(k < cache.size() && cache[k].has_value());
    return *cache[k];
  }

  /// AAD binding (sender, receiver, kind) into the seal: three u32le words.
  static std::array<std::uint8_t, 12> channel_aad(std::size_t sender,
                                                  std::size_t receiver) {
    const std::array<std::uint32_t, 3> words = {
        static_cast<std::uint32_t>(sender),
        static_cast<std::uint32_t>(receiver),
        static_cast<std::uint32_t>(MsgKind::kShares)};
    std::array<std::uint8_t, 12> aad;
    for (std::size_t w = 0; w < words.size(); ++w)
      for (std::size_t b = 0; b < 4; ++b)
        aad[4 * w + b] = static_cast<std::uint8_t>(words[w] >> (8 * b));
    return aad;
  }

  const PublicParams<G>& params_;
  std::size_t id_;
  std::vector<mech::Cost> true_costs_;
  Strategy<G>& strategy_;
  std::uint64_t secret_seed_;
  crypto::ChaChaRng rng_;  ///< DH keypair stream; tasks use task_rng()
  /// Pristine per-task stream states (built once in the constructor,
  /// immutable afterwards; accessors hand out copies).
  std::vector<crypto::ChaChaRng> task_rngs_;
  std::vector<crypto::ChaChaRng> rlc_rngs_;  // [(stage-1)*m + task]
  crypto::Transcript transcript_;
  std::vector<TaskView<G>> tasks_;
  /// Deferred per-task failures (see record_failure/commit_task_failures).
  std::vector<std::optional<AbortReason>> task_failures_;
  std::vector<mech::Cost> bids_;
  std::size_t bulletin_cursor_ = 0;
  std::optional<AbortMsg> abort_;
  bool halted_ = false;

  // Private-channel state.
  bool encrypt_;
  crypto::DhKeyPair<G> dh_;
  std::vector<std::optional<typename G::Elem>> peer_keys_;
  std::vector<std::optional<crypto::AeadChannel>> send_keys_, recv_keys_;
};

}  // namespace dmw::proto
