// EMVC-specific behavior: message accounting, bounded-k sweeps,
// prioritized propagation, dependency re-seeding, and TC sweeps.

#include "core/matcher.h"

#include <gtest/gtest.h>

#include "core/chase.h"
#include "gen/datasets.h"
#include "gen/synthetic.h"
#include "test_util.h"

namespace gkeys {
namespace {

using testing::MakeG1;
using testing::MakeSigma1;
using testing::Pairs;

/// Compiles a plan with its product graph and runs the vertex-centric
/// engine over it, expecting OK.
MatchResult RunVc(const Graph& g, const KeySet& keys, const EmOptions& opts) {
  auto r = testing::CompileAndRun(g, keys, Algorithm::kEmVc, opts);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return r.ok() ? *std::move(r) : MatchResult{};
}

TEST(EmVertexCentric, MatchesOracleOnG1) {
  auto m = MakeG1();
  KeySet sigma1 = MakeSigma1();
  MatchResult r = RunVc(m.g, sigma1, EmOptions::For(Algorithm::kEmVc, 2));
  EXPECT_EQ(r.pairs, Pairs({{m.alb1, m.alb2}, {m.art1, m.art2}}));
  EXPECT_GT(r.stats.messages, 0u);
  EXPECT_GT(r.stats.product_graph_nodes, 0u);
}

TEST(EmVertexCentric, EveryBudgetKIsCorrect) {
  // Lemma 11 correctness must hold for any k, including k = 1 (fully
  // sequential per check, maximal backtracking).
  SyntheticConfig cfg;
  cfg.num_groups = 2;
  cfg.chain_length = 3;
  cfg.entities_per_type = 12;
  cfg.chained_fraction = 1.0;
  SyntheticDataset ds = GenerateSynthetic(cfg);
  for (int k : {1, 2, 4, 16, 0 /* unbounded */}) {
    EmOptions opts = EmOptions::For(Algorithm::kEmVc, 4);
    opts.bounded_messages = k;
    MatchResult r = RunVc(ds.graph, ds.keys, opts);
    EXPECT_EQ(r.pairs, ds.planted) << "k=" << k;
  }
}

TEST(EmVertexCentric, SmallerBudgetFewerMessages) {
  SyntheticConfig cfg;
  cfg.num_groups = 2;
  cfg.chain_length = 2;
  cfg.entities_per_type = 20;
  SyntheticDataset ds = GenerateSynthetic(cfg);
  // Message volume grows with the budget: k=1 (sequential, maximal
  // backtracking) ≤ k=4 ≤ unbounded forking.
  auto messages_for = [&](int k) {
    EmOptions opts = EmOptions::For(Algorithm::kEmVc, 4);
    opts.bounded_messages = k;
    MatchResult r = RunVc(ds.graph, ds.keys, opts);
    EXPECT_EQ(r.pairs, ds.planted) << "k=" << k;
    return r.stats.messages;
  };
  uint64_t m1 = messages_for(1);
  uint64_t m4 = messages_for(4);
  uint64_t unbounded = messages_for(0);
  EXPECT_LE(m1, m4);
  EXPECT_LE(m4, unbounded);
}

TEST(EmVertexCentric, PrioritizedPropagationPreservesResult) {
  SyntheticConfig cfg;
  cfg.num_groups = 3;
  cfg.chain_length = 2;
  cfg.entities_per_type = 16;
  SyntheticDataset ds = GenerateSynthetic(cfg);
  EmOptions plain = EmOptions::For(Algorithm::kEmVc, 4);
  EmOptions prio = plain;
  prio.prioritized = true;
  EXPECT_EQ(RunVc(ds.graph, ds.keys, plain).pairs,
            RunVc(ds.graph, ds.keys, prio).pairs);
}

TEST(EmVertexCentric, DependencyReSeedingResolvesChains) {
  // Fully chained c = 4 clusters: every higher-level pair can only fire
  // after a dep notification from the level below — exercises the
  // increment-message path rather than the initial seeds.
  SyntheticConfig cfg;
  cfg.num_groups = 1;
  cfg.chain_length = 4;
  cfg.entities_per_type = 8;
  cfg.chained_fraction = 1.0;
  cfg.seed = 31;
  SyntheticDataset ds = GenerateSynthetic(cfg);
  MatchResult r = RunVc(ds.graph, ds.keys,
                        EmOptions::For(Algorithm::kEmOptVc, 4));
  EXPECT_EQ(r.pairs, ds.planted);
}

TEST(EmVertexCentric, TransitiveClosureViaSweep) {
  // a~b and b~c identified directly; (a,c) must appear via TC, and any
  // pair depending on (a,c) must then fire (the quiescence sweep).
  Graph g;
  NodeId a = g.AddEntity("album");
  NodeId b = g.AddEntity("album");
  NodeId c = g.AddEntity("album");
  NodeId n = g.AddValue("N");
  for (NodeId e : {a, b, c}) g.AddTriple(e, "name_of", n).IgnoreError();
  NodeId y1 = g.AddValue("Y");
  g.AddTriple(a, "release_year", y1).IgnoreError();
  g.AddTriple(b, "release_year", y1).IgnoreError();
  NodeId l = g.AddValue("L");
  g.AddTriple(b, "label", l).IgnoreError();
  g.AddTriple(c, "label", l).IgnoreError();
  // Artists recording a and c: identifiable only once (a, c) ∈ Eq.
  NodeId r1 = g.AddEntity("artist");
  NodeId r2 = g.AddEntity("artist");
  NodeId an = g.AddValue("AN");
  g.AddTriple(r1, "name_of", an).IgnoreError();
  g.AddTriple(r2, "name_of", an).IgnoreError();
  g.AddTriple(a, "recorded_by", r1).IgnoreError();
  g.AddTriple(c, "recorded_by", r2).IgnoreError();
  g.Finalize();
  KeySet keys;
  ASSERT_TRUE(keys.AddFromDsl(R"(
    key ByYear for album {
      x -[name_of]-> n*
      x -[release_year]-> yr*
    }
    key ByLabel for album {
      x -[name_of]-> n*
      x -[label]-> l*
    }
    key Q3 for artist {
      x -[name_of]-> n*
      y:album -[recorded_by]-> x
    }
  )").ok());
  MatchResult oracle = Chase(g, keys);
  for (int p : {1, 4}) {
    MatchResult r = RunVc(g, keys, EmOptions::For(Algorithm::kEmVc, p));
    EXPECT_EQ(r.pairs, oracle.pairs) << "p=" << p;
  }
  // The artist pair is in the result (depends on the TC-derived (a, c)).
  bool artist_pair = false;
  for (auto [x, y] : oracle.pairs) {
    artist_pair |= (x == std::min(r1, r2) && y == std::max(r1, r2));
  }
  EXPECT_TRUE(artist_pair);
}

TEST(EmVertexCentric, ResultIndependentOfProcessorCount) {
  GoogleSimConfig cfg;
  cfg.scale = 0.6;
  SyntheticDataset ds = GenerateGoogleSim(cfg);
  for (int p : {1, 3, 8}) {
    MatchResult r = RunVc(ds.graph, ds.keys,
                          EmOptions::For(Algorithm::kEmVc, p));
    EXPECT_EQ(r.pairs, ds.planted) << "p=" << p;
  }
}

TEST(EmVertexCentric, RepeatedRunsAreDeterministicInResult) {
  SyntheticConfig cfg;
  cfg.num_groups = 2;
  cfg.chain_length = 2;
  cfg.entities_per_type = 16;
  SyntheticDataset ds = GenerateSynthetic(cfg);
  EmOptions opts = EmOptions::For(Algorithm::kEmOptVc, 8);
  MatchResult first = RunVc(ds.graph, ds.keys, opts);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(RunVc(ds.graph, ds.keys, opts).pairs, first.pairs);
  }
}

}  // namespace
}  // namespace gkeys
