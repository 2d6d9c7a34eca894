// Loopy-BP backend tests (label: bp).
//
// Covers the checklist for the approximate backend: flooding BP is
// exact on tree-structured networks (matches VariableElimination to
// tolerance::kProbSum), damping / convergence / iteration-cap behavior,
// the deterministic message schedule (byte-identical posteriors across
// runs and engine thread counts), impossible-evidence parity with the
// unified domain_error message, the kAuto checked-table-size guard
// that escalates to BP — or throws a clear ContractViolation when the
// escalation is disabled — and the stride-walk blanket enumeration,
// pinned bit for bit against the Factor::at loop it replaced.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "bayesnet/builders.hpp"
#include "bayesnet/engine.hpp"
#include "bayesnet/inference.hpp"
#include "bayesnet/kernels.hpp"
#include "bayesnet/loopy_bp.hpp"
#include "core/contracts.hpp"
#include "core/tolerance.hpp"
#include "prob/rng.hpp"

namespace bn = sysuq::bayesnet;
namespace pr = sysuq::prob;

namespace {

// Random tree-structured network: variable i > 0 picks one earlier
// parent. All CPT entries strictly positive.
bn::BayesianNetwork random_tree(pr::Rng& rng, std::size_t n) {
  bn::BayesianNetwork net;
  std::vector<std::size_t> cards;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t card = 2 + rng.uniform_index(4);  // 2..5 states
    cards.push_back(card);
    std::vector<std::string> states;
    for (std::size_t s = 0; s < card; ++s)
      states.push_back(std::string("s").append(std::to_string(s)));
    net.add_variable(std::string("v").append(std::to_string(i)),
                     std::move(states));
  }
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<bn::VariableId> parents;
    if (i > 0) parents.push_back(rng.uniform_index(i));
    std::size_t rows = 1;
    for (const auto p : parents) rows *= cards[p];
    std::vector<pr::Categorical> cpt;
    for (std::size_t r = 0; r < rows; ++r) {
      std::vector<double> w(cards[i]);
      for (double& x : w) x = rng.uniform() + 0.05;
      cpt.push_back(pr::Categorical::normalized(std::move(w)));
    }
    net.set_cpt(i, std::move(parents), std::move(cpt));
  }
  return net;
}

// Small loopy network: diamond a -> {b, c} -> d plus a tail. The
// moralized/factor graph has a cycle through a, b, c, d.
bn::BayesianNetwork diamond_network() {
  bn::BayesianNetwork net;
  const auto a = net.add_variable("a", {"0", "1"});
  const auto b = net.add_variable("b", {"0", "1"});
  const auto c = net.add_variable("c", {"0", "1"});
  const auto d = net.add_variable("d", {"0", "1"});
  const auto e = net.add_variable("e", {"0", "1"});
  net.set_cpt(a, {}, {pr::Categorical({0.6, 0.4})});
  net.set_cpt(b, {a},
              {pr::Categorical({0.7, 0.3}), pr::Categorical({0.2, 0.8})});
  net.set_cpt(c, {a},
              {pr::Categorical({0.4, 0.6}), pr::Categorical({0.8, 0.2})});
  net.set_cpt(d, {b, c},
              {pr::Categorical({0.9, 0.1}), pr::Categorical({0.35, 0.65}),
               pr::Categorical({0.5, 0.5}), pr::Categorical({0.15, 0.85})});
  net.set_cpt(e, {d},
              {pr::Categorical({0.55, 0.45}), pr::Categorical({0.3, 0.7})});
  return net;
}

// w x h binary grid, parents = left and up neighbors; weakly coupled,
// strictly positive CPTs. Treewidth grows with min(w, h), so large
// grids are exactly the regime where simulate_elimination predicts the
// exact backends would explode.
bn::BayesianNetwork grid_network(std::size_t w, std::size_t h) {
  bn::BayesianNetwork net;
  for (std::size_t r = 0; r < h; ++r)
    for (std::size_t c = 0; c < w; ++c)
      net.add_variable(std::string("g")
                           .append(std::to_string(r))
                           .append("_")
                           .append(std::to_string(c)),
                       {"0", "1"});
  for (std::size_t r = 0; r < h; ++r) {
    for (std::size_t c = 0; c < w; ++c) {
      const bn::VariableId v = r * w + c;
      std::vector<bn::VariableId> parents;
      if (c > 0) parents.push_back(v - 1);      // left
      if (r > 0) parents.push_back(v - w);      // up
      std::vector<pr::Categorical> cpt;
      const std::size_t rows = std::size_t{1} << parents.size();
      for (std::size_t row = 0; row < rows; ++row) {
        // Weak coupling: each active parent nudges state 1 by 0.1.
        double p1 = 0.35;
        for (std::size_t k = 0; k < parents.size(); ++k)
          if ((row >> k) & 1u) p1 += 0.1;
        cpt.push_back(pr::Categorical({1.0 - p1, p1}));
      }
      net.set_cpt(v, std::move(parents), std::move(cpt));
    }
  }
  return net;
}

// Chain a -> b where b = 1 is unreachable.
bn::BayesianNetwork unreachable_state_network() {
  bn::BayesianNetwork net;
  const auto a = net.add_variable("a", {"0", "1"});
  const auto b = net.add_variable("b", {"0", "1"});
  net.set_cpt(a, {}, {pr::Categorical({0.5, 0.5})});
  net.set_cpt(b, {a},
              {pr::Categorical({1.0, 0.0}), pr::Categorical({1.0, 0.0})});
  return net;
}

// Noisy-OR diagnosis network: `causes` binary causes with priors, then
// `findings` binary findings, each a noisy-OR of 1..max_fan_in distinct
// causes with a positive leak (so every finding state stays possible).
bn::BayesianNetwork noisy_or_network(pr::Rng& rng, std::size_t causes,
                                     std::size_t findings,
                                     std::size_t max_fan_in) {
  bn::BayesianNetwork net;
  for (std::size_t c = 0; c < causes; ++c) {
    const auto id =
        net.add_variable(std::string("c").append(std::to_string(c)), {"0", "1"});
    const double prior = 0.05 + 0.3 * rng.uniform();
    net.set_cpt(id, {}, {pr::Categorical({1.0 - prior, prior})});
  }
  for (std::size_t f = 0; f < findings; ++f) {
    const auto id =
        net.add_variable(std::string("f").append(std::to_string(f)), {"0", "1"});
    std::vector<bn::VariableId> parents(causes);
    for (std::size_t c = 0; c < causes; ++c) parents[c] = c;
    const std::size_t fan_in = 1 + rng.uniform_index(max_fan_in);
    for (std::size_t k = 0; k < fan_in; ++k) {
      std::swap(parents[k], parents[k + rng.uniform_index(causes - k)]);
    }
    parents.resize(fan_in);
    std::vector<double> links;
    for (std::size_t k = 0; k < fan_in; ++k) {
      links.push_back(0.2 + 0.7 * rng.uniform());
    }
    net.set_cpt(id, std::move(parents), bn::noisy_or_cpt(links, 0.02));
  }
  return net;
}

// The blanket enumeration LoopyBP's certify_bounds ran before the
// stride walk, kept verbatim as the reference: every blanket assignment
// in mixed-radix order (last variable fastest), each touching factor
// read through Factor::at. Returns false when no configuration has mass.
bool ref_blanket_box(const std::vector<const bn::Factor*>& touching,
                     bn::VariableId v, std::size_t card,
                     const std::vector<bn::VariableId>& blanket,
                     const std::vector<std::size_t>& blanket_cards,
                     std::vector<double>& lo, std::vector<double>& hi) {
  std::size_t configs = 1;
  for (const std::size_t c : blanket_cards) configs *= c;
  lo.assign(card, 1.0);
  hi.assign(card, 0.0);
  std::vector<std::size_t> states(blanket.size(), 0);
  std::vector<std::vector<std::size_t>> slot(touching.size());
  std::vector<std::vector<std::size_t>> fstates(touching.size());
  for (std::size_t t = 0; t < touching.size(); ++t) {
    const auto& scope = touching[t]->scope();
    fstates[t].assign(scope.size(), 0);
    slot[t].assign(scope.size(), blanket.size());  // sentinel = v itself
    for (std::size_t pos = 0; pos < scope.size(); ++pos) {
      if (scope[pos] == v) continue;
      slot[t][pos] = static_cast<std::size_t>(
          std::lower_bound(blanket.begin(), blanket.end(), scope[pos]) -
          blanket.begin());
    }
  }
  bool any_feasible = false;
  std::vector<double> w(card);
  for (std::size_t c = 0; c < configs; ++c) {
    double wsum = 0.0;
    for (std::size_t i = 0; i < card; ++i) {
      double prod = 1.0;
      for (std::size_t t = 0; t < touching.size(); ++t) {
        const auto& scope = touching[t]->scope();
        for (std::size_t pos = 0; pos < scope.size(); ++pos) {
          fstates[t][pos] =
              slot[t][pos] == blanket.size() ? i : states[slot[t][pos]];
        }
        prod *= touching[t]->at(fstates[t]);
      }
      w[i] = prod;
      wsum += prod;
    }
    if (wsum > 0.0) {
      any_feasible = true;
      for (std::size_t i = 0; i < card; ++i) {
        lo[i] = std::min(lo[i], w[i] / wsum);
        hi[i] = std::max(hi[i], w[i] / wsum);
      }
    }
    for (std::size_t k = blanket.size(); k-- > 0;) {
      if (++states[k] < blanket_cards[k]) break;
      states[k] = 0;
    }
  }
  return any_feasible;
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

// For every unobserved variable whose blanket fits the default
// enumeration cap: the stride-walk kernel's box must equal the
// Factor::at reference bit for bit; on a loopy graph (no contraction
// box) LoopyBP's reported interval must be exactly that box hulled with
// the point. Returns the number of variables compared.
std::size_t expect_blanket_boxes_identical(const bn::BayesianNetwork& net,
                                           const bn::Evidence& ev) {
  // The evidence-reduced factors, in network order, scalars dropped —
  // LoopyBP's factor graph.
  std::vector<bn::Factor> factors;
  for (bn::VariableId child = 0; child < net.size(); ++child) {
    bn::Factor f = net.cpt_factor(child);
    for (const auto& [v, state] : ev) {
      if (f.contains(v)) f = f.reduce(v, state);
    }
    if (!f.scope().empty()) factors.push_back(std::move(f));
  }
  const bn::LoopyBP bp(net, ev);
  const std::size_t cap = bn::LoopyBP::Options{}.max_blanket_configs;
  std::size_t compared = 0;
  for (bn::VariableId v = 0; v < net.size(); ++v) {
    if (ev.contains(v)) continue;
    std::vector<const bn::Factor*> touching;
    std::vector<bn::kernels::View> views;
    std::vector<bn::VariableId> blanket;
    for (const auto& f : factors) {
      if (!f.contains(v)) continue;
      touching.push_back(&f);
      views.push_back(bn::kernels::view_of(f));
      for (const bn::VariableId u : f.scope()) {
        if (u != v) blanket.push_back(u);
      }
    }
    std::sort(blanket.begin(), blanket.end());
    blanket.erase(std::unique(blanket.begin(), blanket.end()), blanket.end());
    std::vector<std::size_t> blanket_cards;
    std::size_t configs = 1;
    for (const bn::VariableId u : blanket) {
      blanket_cards.push_back(net.variable(u).cardinality());
      configs *= blanket_cards.back();
    }
    if (configs > cap) continue;  // relaxation, not enumeration

    const std::size_t card = net.variable(v).cardinality();
    std::vector<double> want_lo, want_hi;
    const bool want_ok = ref_blanket_box(touching, v, card, blanket,
                                         blanket_cards, want_lo, want_hi);
    std::vector<double> lo(card), hi(card);
    const bool ok = bn::kernels::blanket_box(
        views.data(), views.size(), v, blanket.data(), blanket_cards.data(),
        blanket.size(), lo.data(), hi.data());
    EXPECT_EQ(ok, want_ok) << "var " << v;
    for (std::size_t i = 0; i < card; ++i) {
      EXPECT_TRUE(same_bits(lo[i], want_lo[i]))
          << "var " << v << " state " << i << ": " << lo[i] << " vs "
          << want_lo[i];
      EXPECT_TRUE(same_bits(hi[i], want_hi[i]))
          << "var " << v << " state " << i << ": " << hi[i] << " vs "
          << want_hi[i];
    }
    if (!bp.acyclic()) {
      const auto& b = bp.query(v);
      for (std::size_t i = 0; i < card; ++i) {
        const double p = b.point.p(i);
        EXPECT_TRUE(same_bits(b.lo[i], std::clamp(std::min(want_lo[i], p),
                                                  0.0, 1.0)))
            << "var " << v << " state " << i;
        EXPECT_TRUE(same_bits(b.hi[i], std::clamp(std::max(want_hi[i], p),
                                                  0.0, 1.0)))
            << "var " << v << " state " << i;
      }
    }
    ++compared;
  }
  return compared;
}

}  // namespace

// ---- exactness on trees ----

TEST(LoopyBP, ExactOnTreesAndIntervalsContainTruth) {
  pr::Rng rng(20260808ULL);
  for (int t = 0; t < 8; ++t) {
    const auto net = random_tree(rng, 6 + rng.uniform_index(5));
    bn::VariableElimination ve(net);
    for (std::size_t ec : {std::size_t{0}, std::size_t{2}}) {
      bn::Evidence ev;
      for (std::size_t k = 0; k < ec; ++k) {
        const bn::VariableId v = rng.uniform_index(net.size());
        ev[v] = rng.uniform_index(net.variable(v).cardinality());
      }
      const bn::LoopyBP bp(net, ev);
      EXPECT_TRUE(bp.acyclic()) << "tree " << t;
      EXPECT_TRUE(bp.converged()) << "tree " << t;
      for (bn::VariableId q = 0; q < net.size(); ++q) {
        const auto& bounded = bp.query(q);
        if (ev.contains(q)) {
          EXPECT_EQ(bounded.point.p(ev.at(q)), 1.0);
          EXPECT_EQ(bounded.width(), 0.0);
          continue;
        }
        const auto exact = ve.query(q, ev);
        ASSERT_EQ(bounded.point.size(), exact.size());
        for (std::size_t s = 0; s < exact.size(); ++s) {
          ASSERT_NEAR(bounded.point.p(s), exact.p(s),
                      sysuq::tolerance::kProbSum)
              << "tree " << t << " var " << q << " state " << s;
        }
        // On an acyclic graph the certified interval is tight and must
        // contain both the BP point and the exact posterior.
        EXPECT_TRUE(bounded.contains(bounded.point.probs()));
        EXPECT_TRUE(bounded.contains(exact.probs()))
            << "tree " << t << " var " << q;
        EXPECT_LT(bounded.width(), 1e-4);
      }
    }
  }
}

TEST(LoopyBP, ScheduleIsNamedFlooding) {
  EXPECT_STREQ(bn::LoopyBP::schedule(), "flooding");
}

// ---- damping, convergence, iteration cap ----

TEST(LoopyBP, DampingReachesTheSameFixpoint) {
  const auto net = diamond_network();
  const bn::Evidence ev{{4, 1}};
  const bn::LoopyBP plain(net, ev);
  bn::LoopyBP::Options damped_opts;
  damped_opts.damping = 0.4;
  const bn::LoopyBP damped(net, ev, damped_opts);
  ASSERT_TRUE(plain.converged());
  ASSERT_TRUE(damped.converged());
  EXPECT_FALSE(plain.acyclic());
  for (bn::VariableId q = 0; q < net.size(); ++q) {
    for (std::size_t s = 0; s < plain.query(q).point.size(); ++s) {
      EXPECT_NEAR(plain.query(q).point.p(s), damped.query(q).point.p(s),
                  1e-6)
          << q << "/" << s;
    }
  }
  // Damping slows per-iteration progress; it must not be free.
  EXPECT_GE(damped.iterations(), plain.iterations());
}

TEST(LoopyBP, IterationCapReportsNonConvergenceButStaysSound) {
  const auto net = diamond_network();
  bn::LoopyBP::Options opts;
  opts.max_iterations = 1;
  const bn::LoopyBP bp(net, {}, opts);
  EXPECT_FALSE(bp.converged());
  EXPECT_EQ(bp.iterations(), 1u);
  EXPECT_GT(bp.final_residual(), opts.tolerance);
  // The Markov-blanket convexity box is sound regardless of
  // convergence: the exact posterior must still lie inside it.
  bn::VariableElimination ve(net);
  for (bn::VariableId q = 0; q < net.size(); ++q) {
    const auto& bounded = bp.query(q);
    EXPECT_FALSE(bounded.converged);
    EXPECT_TRUE(bounded.contains(ve.query(q, {}).probs())) << q;
    EXPECT_TRUE(bounded.contains(bounded.point.probs())) << q;
  }
}

TEST(LoopyBP, ConvergedRunBeatsItsTolerance) {
  const auto net = diamond_network();
  const bn::LoopyBP bp(net, {{3, 1}});
  EXPECT_TRUE(bp.converged());
  EXPECT_GE(bp.iterations(), 2u);
  EXPECT_LT(bp.final_residual(), bn::LoopyBP::Options{}.tolerance);
  // Loopy point estimates stay close to exact on this weakly coupled
  // diamond, and the certified interval always contains exact.
  bn::VariableElimination ve(net);
  for (bn::VariableId q = 0; q < net.size(); ++q) {
    const auto& bounded = bp.query(q);
    EXPECT_TRUE(bounded.contains(ve.query(q, {{3, 1}}).probs())) << q;
  }
}

TEST(LoopyBP, OptionContractsAreEnforced) {
  const auto net = diamond_network();
  bn::LoopyBP::Options bad;
  bad.max_iterations = 0;
  EXPECT_THROW(bn::LoopyBP(net, {}, bad),
               sysuq::contracts::ContractViolation);
  bad = {};
  bad.damping = 1.0;
  EXPECT_THROW(bn::LoopyBP(net, {}, bad),
               sysuq::contracts::ContractViolation);
  bad = {};
  bad.damping = -0.1;
  EXPECT_THROW(bn::LoopyBP(net, {}, bad),
               sysuq::contracts::ContractViolation);
  bad = {};
  bad.tolerance = 0.0;
  EXPECT_THROW(bn::LoopyBP(net, {}, bad),
               sysuq::contracts::ContractViolation);
  bad = {};
  bad.max_blanket_configs = 0;
  EXPECT_THROW(bn::LoopyBP(net, {}, bad),
               sysuq::contracts::ContractViolation);
  EXPECT_THROW(bn::LoopyBP(net, {{99, 0}}), std::out_of_range);
  EXPECT_THROW(bn::LoopyBP(net, {{0, 7}}), std::out_of_range);
  const bn::LoopyBP ok(net, {});
  EXPECT_THROW((void)ok.query(99), std::out_of_range);
}

// ---- deterministic schedule ----

TEST(LoopyBP, ByteIdenticalAcrossRepeatedRuns) {
  pr::Rng rng(4242ULL);
  const auto tree = random_tree(rng, 9);
  const auto loopy = diamond_network();
  for (const auto* net : {&tree, &loopy}) {
    const bn::Evidence ev{{1, 0}};
    const bn::LoopyBP first(*net, ev);
    const bn::LoopyBP second(*net, ev);
    ASSERT_EQ(first.iterations(), second.iterations());
    for (bn::VariableId q = 0; q < net->size(); ++q) {
      const auto& a = first.query(q);
      const auto& b = second.query(q);
      for (std::size_t s = 0; s < a.point.size(); ++s) {
        EXPECT_EQ(a.point.p(s), b.point.p(s)) << q << "/" << s;
        EXPECT_EQ(a.lo[s], b.lo[s]) << q << "/" << s;
        EXPECT_EQ(a.hi[s], b.hi[s]) << q << "/" << s;
      }
    }
  }
}

TEST(LoopyBP, ByteIdenticalAcrossEngineThreadCounts) {
  pr::Rng rng(99ULL);
  const auto net = random_tree(rng, 10);
  std::vector<bn::QuerySpec> batch;
  for (bn::VariableId q = 0; q < net.size(); ++q) {
    batch.push_back({q, {}});
    batch.push_back({q, {{0, 1}}});
  }
  bn::InferenceEngine one(net,
                          {.threads = 1, .backend = bn::Backend::kLoopyBP});
  bn::InferenceEngine many(net,
                           {.threads = 4, .backend = bn::Backend::kLoopyBP});
  const auto a = one.query_batch(batch);
  const auto b = many.query_batch(batch);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i)
    for (std::size_t s = 0; s < a[i].size(); ++s)
      EXPECT_EQ(a[i].p(s), b[i].p(s)) << i << "/" << s;
}

// ---- impossible-evidence parity ----

TEST(LoopyBP, ImpossibleEvidenceThrowsTheUnifiedMessage) {
  const auto net = unreachable_state_network();
  const bn::Evidence impossible{{1, 1}};
  const std::string expected =
      bn::impossible_evidence_message(net, impossible);

  const bn::LoopyBP bp(net, impossible);
  try {
    (void)bp.query(0);
    FAIL() << "expected std::domain_error";
  } catch (const std::domain_error& e) {
    EXPECT_EQ(std::string(e.what()), expected);
  }
  EXPECT_THROW((void)bp.all_marginals(), std::domain_error);

  bn::InferenceEngine engine(
      net, {.threads = 1, .backend = bn::Backend::kLoopyBP});
  const auto expect_throws = [&](auto&& fn, const char* tag) {
    try {
      fn();
      FAIL() << tag << ": expected std::domain_error";
    } catch (const std::domain_error& e) {
      EXPECT_EQ(std::string(e.what()), expected) << tag;
    }
  };
  expect_throws([&] { (void)engine.query(0, impossible); }, "query");
  expect_throws([&] { (void)engine.all_marginals(impossible); },
                "all_marginals");
  expect_throws([&] { (void)engine.query_batch({{0, impossible}}); },
                "query_batch");
  expect_throws([&] { (void)engine.query_bounded(0, impossible); },
                "query_bounded");
  expect_throws([&] { (void)engine.all_marginals_bounded(impossible); },
                "all_marginals_bounded");
}

// ---- engine integration: kLoopyBP backend and bounded queries ----

TEST(LoopyBP, EngineBackendMatchesDirectConstruction) {
  const auto net = diamond_network();
  const bn::Evidence ev{{4, 0}};
  bn::InferenceEngine engine(
      net, {.threads = 2, .backend = bn::Backend::kLoopyBP});
  const bn::LoopyBP direct(net, ev);
  for (bn::VariableId q = 0; q < net.size(); ++q) {
    const auto p = engine.query(q, ev);
    for (std::size_t s = 0; s < p.size(); ++s)
      EXPECT_EQ(p.p(s), direct.query(q).point.p(s)) << q << "/" << s;
  }
  // One BP run serves every unobserved query through the assignment
  // cache (the observed variable short-circuits to its delta).
  EXPECT_EQ(engine.bp_cache_stats().entries, 1u);
  EXPECT_GE(engine.bp_cache_stats().hits, 3u);

  const auto all = engine.all_marginals_bounded(ev);
  ASSERT_EQ(all.size(), net.size());
  EXPECT_TRUE(all[4].converged);
  EXPECT_EQ(all[4].width(), 0.0);  // observed variable holds a delta
}

TEST(LoopyBP, EngineCptFactorsGiveBitIdenticalPointsAndBounds) {
  // The engine hands BP its prebuilt CPT factors instead of letting each
  // run rebuild them; points, bounds and iteration counts must not move.
  pr::Rng rng(1404ULL);
  for (int t = 0; t < 6; ++t) {
    const auto net = noisy_or_network(rng, 8, 6, 4);
    bn::Evidence ev;
    for (bn::VariableId f = 8; f < net.size(); ++f) {
      if (rng.bernoulli(0.6)) ev[f] = rng.bernoulli(0.3) ? 1 : 0;
    }
    const bn::LoopyBP direct(net, ev);
    const bn::LoopyBP prebuilt(net, ev, {}, net.cpt_factors());
    bn::InferenceEngine engine(
        net, {.threads = 1, .backend = bn::Backend::kLoopyBP});
    const auto all = engine.all_marginals_bounded(ev);
    ASSERT_EQ(direct.iterations(), prebuilt.iterations()) << t;
    for (bn::VariableId q = 0; q < net.size(); ++q) {
      const auto& a = direct.query(q);
      for (const auto* b : {&prebuilt.query(q), &all[q]}) {
        for (std::size_t s = 0; s < a.point.size(); ++s) {
          EXPECT_EQ(a.point.p(s), b->point.p(s)) << t << "/" << q;
          EXPECT_EQ(a.lo[s], b->lo[s]) << t << "/" << q;
          EXPECT_EQ(a.hi[s], b->hi[s]) << t << "/" << q;
        }
      }
    }
  }
}

TEST(LoopyBP, QueryBoundedWorksUnderExactBackends) {
  // query_bounded routes through BP no matter which backend answers
  // plain queries, so exact users can ask for certified intervals.
  pr::Rng rng(7ULL);
  const auto net = random_tree(rng, 8);
  bn::InferenceEngine engine(
      net, {.threads = 1, .backend = bn::Backend::kVariableElimination});
  const auto exact = engine.query(2, {{5, 0}});
  const auto bounded = engine.query_bounded(2, {{5, 0}});
  EXPECT_TRUE(bounded.converged);
  EXPECT_TRUE(bounded.contains(exact.probs()));
}

TEST(LoopyBP, EngineExplainReportsTheBpPlan) {
  const auto net = diamond_network();
  bn::InferenceEngine engine(
      net, {.threads = 1, .backend = bn::Backend::kLoopyBP});
  const auto p = engine.explain(0, {{4, 1}});
  EXPECT_EQ(p.backend, "loopy_bp");
  EXPECT_EQ(p.schedule, "flooding");
  EXPECT_FALSE(p.bp_cache_hit);
  EXPECT_TRUE(p.bp_converged);
  EXPECT_GE(p.bp_iterations, 1u);
  EXPECT_LT(p.final_residual, bn::LoopyBP::Options{}.tolerance);
  EXPECT_GT(p.bound_width, 0.0);
  const auto again = engine.explain(0, {{4, 1}});
  EXPECT_TRUE(again.bp_cache_hit);
  // The rendered plan and JSON name the schedule.
  EXPECT_NE(p.to_plan().find("flooding"), std::string::npos);
  EXPECT_NE(p.to_json().find("\"schedule\""), std::string::npos);
  // Both BP stages are attributed; BP uses no scratch arena.
  EXPECT_GT(p.propagation_seconds, 0.0);
  EXPECT_GE(p.certification_seconds, 0.0);
  EXPECT_NE(p.to_json().find("\"certification_seconds\""), std::string::npos);
  EXPECT_EQ(p.arena_high_water_bytes, 0u);
}

TEST(LoopyBP, StageTimesSumToTheBuildTime) {
  const auto net = diamond_network();
  const bn::LoopyBP bp(net, {{4, 1}});
  EXPECT_GT(bp.propagation_seconds(), 0.0);
  EXPECT_GE(bp.certification_seconds(), 0.0);
  EXPECT_EQ(bp.build_seconds(),
            bp.propagation_seconds() + bp.certification_seconds());
}

// ---- blanket-box enumeration: stride walk vs the Factor::at loop ----

TEST(LoopyBP, BlanketBoxesAreBitIdenticalOnTheDiamond) {
  const auto net = diamond_network();
  std::size_t compared = 0;
  for (const bn::Evidence& ev :
       {bn::Evidence{}, bn::Evidence{{4, 1}}, bn::Evidence{{3, 0}},
        bn::Evidence{{0, 1}, {4, 0}}}) {
    compared += expect_blanket_boxes_identical(net, ev);
  }
  EXPECT_GT(compared, 0u);
}

TEST(LoopyBP, BlanketBoxesAreBitIdenticalOnRandomTreesWithEvidence) {
  pr::Rng rng(20260901ULL);
  std::size_t compared = 0;
  for (int t = 0; t < 12; ++t) {
    const auto net = random_tree(rng, 6 + rng.uniform_index(6));
    bn::Evidence ev;
    for (std::size_t k = 0; k < 1 + rng.uniform_index(3); ++k) {
      const bn::VariableId v = rng.uniform_index(net.size());
      ev[v] = rng.uniform_index(net.variable(v).cardinality());
    }
    compared += expect_blanket_boxes_identical(net, ev);
  }
  EXPECT_GT(compared, 0u);
}

TEST(LoopyBP, BlanketBoxesAreBitIdenticalOnNoisyOrNets) {
  pr::Rng rng(20260902ULL);
  std::size_t compared = 0;
  for (int t = 0; t < 10; ++t) {
    const auto net = noisy_or_network(rng, 8, 6, 4);
    bn::Evidence ev;
    for (bn::VariableId f = 8; f < net.size(); ++f) {
      if (rng.bernoulli(0.6)) ev[f] = rng.bernoulli(0.3) ? 1 : 0;
    }
    compared += expect_blanket_boxes_identical(net, ev);
  }
  EXPECT_GT(compared, 0u);
}

// ---- kAuto checked-table-size guard (regression for the escalation) ----

TEST(LoopyBP, AutoEscalatesToBpWhenExactPlanExceedsCeiling) {
  const auto net = diamond_network();
  // Ceiling of one cell: every exact plan is "infeasible", so kAuto
  // must route the query to BP instead of materializing the tables.
  bn::InferenceEngine engine(net, {.threads = 1,
                                   .backend = bn::Backend::kAuto,
                                   .max_exact_table_cells = 1});
  const bn::LoopyBP direct(net, {});
  const auto p = engine.query(0);
  for (std::size_t s = 0; s < p.size(); ++s)
    EXPECT_EQ(p.p(s), direct.query(0).point.p(s)) << s;
  EXPECT_EQ(engine.bp_cache_stats().entries, 1u);

  const auto profile = engine.explain(0);
  EXPECT_EQ(profile.backend, "loopy_bp");
  EXPECT_NE(profile.backend_reason.find("escalated"), std::string::npos);
  EXPECT_NE(profile.backend_reason.find("max_exact_table_cells"),
            std::string::npos);
}

TEST(LoopyBP, AutoWithBpDisabledFailsFastWithAClearContract) {
  const auto net = diamond_network();
  bn::InferenceEngine engine(net, {.threads = 1,
                                   .backend = bn::Backend::kAuto,
                                   .max_exact_table_cells = 1,
                                   .enable_bp = false});
  try {
    (void)engine.query(0);
    FAIL() << "expected ContractViolation";
  } catch (const sysuq::contracts::ContractViolation& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("infeasible"), std::string::npos) << what;
    EXPECT_NE(what.find("enable_bp"), std::string::npos) << what;
    EXPECT_NE(what.find("max_exact_table_cells"), std::string::npos) << what;
  }
}

TEST(LoopyBP, AutoStaysExactUnderTheDefaultCeiling) {
  const auto net = diamond_network();
  bn::InferenceEngine auto_engine(net,
                                  {.threads = 1, .backend = bn::Backend::kAuto});
  bn::InferenceEngine ve_engine(
      net, {.threads = 1, .backend = bn::Backend::kVariableElimination});
  for (bn::VariableId q = 0; q < net.size(); ++q) {
    const auto a = auto_engine.query(q, {{4, 1}});
    const auto b = ve_engine.query(q, {{4, 1}});
    for (std::size_t s = 0; s < a.size(); ++s)
      EXPECT_EQ(a.p(s), b.p(s)) << q << "/" << s;
  }
  // No BP run was ever built: the exact plan fits the default ceiling.
  EXPECT_EQ(auto_engine.bp_cache_stats().entries, 0u);
  EXPECT_EQ(auto_engine.bp_cache_stats().misses, 0u);
}

// ---- treewidth-hostile grid through kAuto ----

TEST(LoopyBP, AutoAnswersAGridThatBreaksTheExactCeiling) {
  // 12x12 binary grid: treewidth ~12, largest elimination table around
  // 2^13 cells. With the ceiling pinned below that, kAuto must escalate
  // to BP and still answer — converged, with finite certified bounds.
  const auto net = grid_network(12, 12);
  bn::InferenceEngine engine(net, {.threads = 2,
                                   .backend = bn::Backend::kAuto,
                                   .max_exact_table_cells = 1024});
  const auto p = engine.query(net.size() / 2);
  EXPECT_NEAR(p.p(0) + p.p(1), 1.0, sysuq::tolerance::kProbSum);
  const auto bounded = engine.query_bounded(net.size() / 2);
  EXPECT_TRUE(bounded.converged);
  EXPECT_GT(bounded.width(), 0.0);
  EXPECT_LT(bounded.width(), 1.0);
  EXPECT_TRUE(bounded.contains(bounded.point.probs()));
  EXPECT_EQ(engine.bp_cache_stats().entries, 1u);
}
