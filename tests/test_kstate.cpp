// Tests for Dijkstra's K-state token ring (paper Algorithm 1 / §2.3):
// guards, commands, token counting, legitimacy, and self-stabilization
// under every daemon family.
#include "dijkstra/kstate.hpp"

#include <gtest/gtest.h>

#include <set>

#include "stabilizing/daemon.hpp"
#include "stabilizing/engine.hpp"

namespace ssr::dijkstra {
namespace {

KStateConfig make_config(std::initializer_list<std::uint32_t> xs) {
  KStateConfig c;
  for (auto x : xs) c.push_back(KStateLocal{x});
  return c;
}

TEST(KStateGuard, BottomIsEqualityOthersInequality) {
  EXPECT_TRUE(kstate_guard(0, 3, 3));
  EXPECT_FALSE(kstate_guard(0, 3, 4));
  EXPECT_TRUE(kstate_guard(1, 3, 4));
  EXPECT_FALSE(kstate_guard(1, 3, 3));
  EXPECT_TRUE(kstate_guard(7, 0, 1));
}

TEST(KStateCommand, BottomIncrementsOthersCopy) {
  EXPECT_EQ(kstate_command(0, 3, 5), 4u);
  EXPECT_EQ(kstate_command(0, 4, 5), 0u);  // wraps mod K
  EXPECT_EQ(kstate_command(3, 2, 5), 2u);
}

TEST(KStateRing, RequiresKAtLeastN) {
  // Dijkstra's proof assumes K > n, but Hoepman showed the K = n boundary
  // still stabilizes on a ring, so the constructor admits it (and the
  // exhaustive checker verifies it for small n).
  EXPECT_THROW(KStateRing(5, 4), std::invalid_argument);
  EXPECT_NO_THROW(KStateRing(5, 5));
  EXPECT_NO_THROW(KStateRing(5, 6));
}

TEST(KStateRing, RequiresAtLeastTwoProcesses) {
  EXPECT_THROW(KStateRing(1, 5), std::invalid_argument);
}

TEST(KStateRing, ApplyRejectsDisabledRule) {
  KStateRing ring(3, 4);
  const KStateLocal self{1};
  const KStateLocal pred{2};
  const KStateLocal succ{0};
  // P0 with self != pred is disabled.
  EXPECT_THROW(ring.apply(0, KStateRing::kRule, self, pred, succ),
               std::invalid_argument);
}

TEST(TokenCount, AtLeastOneTokenInEveryConfiguration) {
  // Paper Lemma 3 rests on this classical property; check exhaustively for
  // n = 3, K = 4 (64 configurations).
  KStateRing ring(3, 4);
  for (std::uint32_t a = 0; a < 4; ++a) {
    for (std::uint32_t b = 0; b < 4; ++b) {
      for (std::uint32_t c = 0; c < 4; ++c) {
        const KStateConfig config = make_config({a, b, c});
        EXPECT_GE(token_count(ring, config), 1u)
            << a << "," << b << "," << c;
      }
    }
  }
}

TEST(TokenCount, AllEqualHasExactlyOneTokenAtBottom) {
  KStateRing ring(5, 6);
  const KStateConfig config = make_config({2, 2, 2, 2, 2});
  EXPECT_EQ(token_count(ring, config), 1u);
  EXPECT_TRUE(ring.holds_token(0, config[0], config[4], config[1]));
}

TEST(Legitimacy, AcceptsAllEnumeratedForms) {
  for (std::size_t n : {3u, 4u, 5u, 7u}) {
    const KStateRing ring(n, static_cast<std::uint32_t>(n + 1));
    const auto all = enumerate_legitimate(ring);
    EXPECT_EQ(all.size(), n * (n + 1));
    std::set<KStateConfig> unique(all.begin(), all.end());
    EXPECT_EQ(unique.size(), all.size()) << "enumeration has duplicates";
    for (const auto& c : all) {
      EXPECT_TRUE(is_legitimate(ring, c));
      EXPECT_EQ(token_count(ring, c), 1u);
    }
  }
}

TEST(Legitimacy, RejectsStepOfHeightTwo) {
  KStateRing ring(3, 5);
  // One token (at P1) but the descent is 2, not 1: not of Definition form.
  const KStateConfig config = make_config({4, 2, 2});
  EXPECT_EQ(token_count(ring, config), 1u);
  EXPECT_FALSE(is_legitimate(ring, config));
}

TEST(Legitimacy, RejectsMultiTokenConfigs) {
  KStateRing ring(4, 5);
  EXPECT_FALSE(is_legitimate(ring, make_config({0, 1, 2, 3})));
  EXPECT_FALSE(is_legitimate(ring, make_config({1, 0, 1, 0})));
}

TEST(Legitimacy, WrapAroundModulus) {
  KStateRing ring(3, 4);
  // x = 3, x+1 = 0: (0, 3, 3) is the legitimate form with the token at P1.
  EXPECT_TRUE(is_legitimate(ring, make_config({0, 3, 3})));
}

TEST(ConvergenceBound, Formula) {
  EXPECT_EQ(convergence_step_bound(2), 3u);
  EXPECT_EQ(convergence_step_bound(5), 30u);
  EXPECT_EQ(convergence_step_bound(10), 135u);
}

struct ConvergenceCase {
  std::size_t n;
  std::string daemon;
  std::uint64_t seed;
};

class KStateConvergence : public ::testing::TestWithParam<ConvergenceCase> {};

TEST_P(KStateConvergence, ReachesLegitimacyWithinBound) {
  const auto& param = GetParam();
  const auto K = static_cast<std::uint32_t>(param.n + 1);
  KStateRing ring(param.n, K);
  Rng rng(param.seed);
  stab::Engine<KStateRing> engine(ring, random_config(ring, rng));
  auto daemon = stab::make_daemon(param.daemon, Rng(param.seed * 7919 + 1));
  auto legit = [&ring](const KStateConfig& c) {
    return is_legitimate(ring, c);
  };
  // The 3n(n-1)/2 bound applies to *moves* of the Dijkstra machine; add the
  // extra circulation legitimacy-strictness costs and a safety factor.
  const std::uint64_t budget = 4 * convergence_step_bound(param.n) + 8 * param.n;
  const auto result = stab::run_until(engine, *daemon, legit, budget);
  EXPECT_TRUE(result.reached)
      << "n=" << param.n << " daemon=" << param.daemon
      << " seed=" << param.seed << " steps=" << result.steps;
  // Closure: stays legitimate for another full circulation.
  for (std::size_t t = 0; t < 3 * param.n; ++t) {
    ASSERT_TRUE(engine.step_with(*daemon));
    ASSERT_TRUE(is_legitimate(ring, engine.config()));
  }
}

std::vector<ConvergenceCase> convergence_cases() {
  std::vector<ConvergenceCase> cases;
  for (std::size_t n : {3u, 5u, 8u, 13u}) {
    for (const auto& d :
         {"central-round-robin", "central-random", "distributed-synchronous",
          "distributed-random-subset", "adversary-max-index"}) {
      for (std::uint64_t seed : {1u, 2u, 3u}) {
        cases.push_back({n, d, seed});
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, KStateConvergence, ::testing::ValuesIn(convergence_cases()),
    [](const ::testing::TestParamInfo<ConvergenceCase>& param_info) {
      std::string name = "n" + std::to_string(param_info.param.n) + "_" +
                         param_info.param.daemon + "_s" +
                         std::to_string(param_info.param.seed);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

TEST(KStateToken, TokenCirculatesInOrder) {
  // In legitimate configurations the (unique) token visits processes in
  // ring order — each process eventually holds it (no starvation).
  const std::size_t n = 6;
  KStateRing ring(n, 7);
  stab::Engine<KStateRing> engine(ring, KStateConfig(n));
  stab::CentralRoundRobinDaemon daemon;
  std::vector<std::size_t> holders;
  for (int t = 0; t < 12; ++t) {
    const auto enabled = engine.enabled_indices();
    ASSERT_EQ(enabled.size(), 1u);
    holders.push_back(enabled[0]);
    ASSERT_TRUE(engine.step_with(daemon));
  }
  EXPECT_EQ(holders, (std::vector<std::size_t>{0, 1, 2, 3, 4, 5, 0, 1, 2, 3,
                                               4, 5}));
}

TEST(KStateTraceStyle, MarksTokenHolder) {
  KStateRing ring(3, 4);
  auto style = trace_style(ring);
  const KStateConfig config = make_config({1, 0, 0});
  EXPECT_EQ(style.format_state(config[0]), "1");
  EXPECT_EQ(style.annotate(config, 1), "T");
  EXPECT_EQ(style.annotate(config, 0), "");
  EXPECT_EQ(style.annotate(config, 2), "");
}

TEST(RandomConfig, StaysInDomain) {
  KStateRing ring(6, 9);
  Rng rng(17);
  for (int i = 0; i < 100; ++i) {
    const auto c = random_config(ring, rng);
    ASSERT_EQ(c.size(), 6u);
    for (const auto& s : c) EXPECT_LT(s.x, 9u);
  }
}

}  // namespace
}  // namespace ssr::dijkstra
