#include "core/product_graph.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/matcher.h"
#include "gen/datasets.h"
#include "gen/hostile.h"
#include "gen/synthetic.h"
#include "isomorph/pairing.h"
#include "test_util.h"

namespace gkeys {
namespace {

using testing::MakeG1;
using testing::MakeSigma1;

/// A plan compiled for EMVC: Gp is read from it (plan.product_graph()).
MatchPlan CompileForVc(const Graph& g, const KeySet& keys) {
  auto plan = Matcher::Compile(g, keys, PlanOptions::For(Algorithm::kEmVc, 1));
  EXPECT_TRUE(plan.ok()) << plan.status().ToString();
  return plan.ok() ? *std::move(plan) : MatchPlan{};
}

TEST(ProductGraph, ContainsCandidateAndValueNodes) {
  auto m = MakeG1();
  KeySet sigma1 = MakeSigma1();
  MatchPlan plan = CompileForVc(m.g, sigma1);
  ASSERT_TRUE(plan.has_product_graph());
  const ProductGraph& pg = plan.product_graph();
  // The identifiable candidate (alb1, alb2) is a node...
  EXPECT_NE(pg.Find(m.alb1, m.alb2), kNoPNode);
  // ...and its shared name value appears as a diagonal value pair.
  NodeId anthology = m.g.FindValue("Anthology 2");
  ASSERT_NE(anthology, kNoNode);
  EXPECT_NE(pg.Find(anthology, anthology), kNoPNode);
}

TEST(ProductGraph, EdgesMirrorSharedTriples) {
  auto m = MakeG1();
  KeySet sigma1 = MakeSigma1();
  MatchPlan plan = CompileForVc(m.g, sigma1);
  ASSERT_TRUE(plan.has_product_graph());
  const ProductGraph& pg = plan.product_graph();
  uint32_t v = pg.Find(m.alb1, m.alb2);
  ASSERT_NE(v, kNoPNode);
  // (alb1, name_of, "Anthology 2") and (alb2, name_of, "Anthology 2")
  // => an out edge labeled name_of to the value pair.
  NodeId anthology = m.g.FindValue("Anthology 2");
  uint32_t val_node = pg.Find(anthology, anthology);
  ASSERT_NE(val_node, kNoPNode);
  Symbol name_of = m.g.interner().Lookup("name_of");
  bool found = false;
  for (const auto& e : pg.Out(v)) {
    if (e.pred == name_of && e.dst == val_node) found = true;
  }
  EXPECT_TRUE(found);
  // Edge counts feed prioritized propagation.
  EXPECT_GE(pg.OutCount(v, name_of), 1u);
  // The reverse direction is indexed as an in-edge.
  found = false;
  for (const auto& e : pg.In(val_node)) {
    if (e.pred == name_of && e.dst == v) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(ProductGraph, CandidateNodeLookup) {
  auto m = MakeG1();
  KeySet sigma1 = MakeSigma1();
  MatchPlan plan = CompileForVc(m.g, sigma1);
  ASSERT_TRUE(plan.has_product_graph());
  const ProductGraph& pg = plan.product_graph();
  for (uint32_t i = 0; i < plan.context().candidates().size(); ++i) {
    const Candidate& c = plan.context().candidates()[i];
    uint32_t v = pg.CandidateNode(i);
    if (v != kNoPNode) {
      EXPECT_EQ(pg.pair(v).first, c.e1);
      EXPECT_EQ(pg.pair(v).second, c.e2);
    }
  }
}

TEST(ProductGraph, FindMissingPair) {
  auto m = MakeG1();
  KeySet sigma1 = MakeSigma1();
  MatchPlan plan = CompileForVc(m.g, sigma1);
  ASSERT_TRUE(plan.has_product_graph());
  const ProductGraph& pg = plan.product_graph();
  // art1 and a value never pair.
  NodeId anthology = m.g.FindValue("Anthology 2");
  EXPECT_EQ(pg.Find(m.art1, anthology), kNoPNode);
}

TEST(ProductGraph, SizeScalesLinearlyWithGraph) {
  // The paper reports |Gp| ≈ 2.7·|G| on average — i.e., linear, not
  // quadratic. Verify the ratio stays bounded as the graph grows.
  double prev_ratio = 0;
  for (double scale : {1.0, 2.0, 4.0}) {
    SyntheticConfig cfg;
    cfg.num_groups = 2;
    cfg.chain_length = 2;
    cfg.entities_per_type = 20;
    cfg.scale = scale;
    SyntheticDataset ds = GenerateSynthetic(cfg);
    MatchPlan plan = CompileForVc(ds.graph, ds.keys);
    ASSERT_TRUE(plan.has_product_graph());
    const ProductGraph& pg = plan.product_graph();
    double ratio = static_cast<double>(pg.NumNodes() + pg.NumEdges()) /
                   static_cast<double>(ds.graph.NumTriples());
    EXPECT_LT(ratio, 10.0) << "scale " << scale;
    if (prev_ratio > 0) {
      EXPECT_LT(ratio, prev_ratio * 2.0)
          << "|Gp|/|G| must not blow up with graph size";
    }
    prev_ratio = ratio;
  }
}

/// The relation the plan build no longer computes a second time: per key,
/// the maximum pairing relation on the candidate's own (pairing-reduced)
/// balls, unioned over the keys, plus the candidate pair itself.
PairRelation SecondPassRelation(const EmContext& ctx, const Candidate& c) {
  PairRelation rel;
  for (int ki : *c.keys) {
    PairingResult pr = ComputeMaxPairing(ctx.graph(),
                                         ctx.compiled_keys()[ki].cp, c.e1,
                                         c.e2, *c.nbr1, *c.nbr2,
                                         /*collect_pairs=*/true);
    if (!pr.paired) continue;
    rel.insert(rel.end(), pr.pairs.begin(), pr.pairs.end());
    rel.push_back(PackPair(c.e1, c.e2));
  }
  std::sort(rel.begin(), rel.end());
  rel.erase(std::unique(rel.begin(), rel.end()), rel.end());
  return rel;
}

/// Pair once: every candidate's Gp relation, taken from the one pairing
/// pass over the full d-balls, equals the relation a second pass over the
/// reduced balls derives.
void ExpectPairedOnce(const MatchPlan& plan, const std::string& where) {
  ASSERT_TRUE(plan.has_product_graph()) << where;
  const EmContext& ctx = plan.context();
  for (uint32_t i = 0; i < ctx.candidates().size(); ++i) {
    const Candidate& c = ctx.candidates()[i];
    ASSERT_EQ(plan.product_graph().CandidateRelation(i),
              SecondPassRelation(ctx, c))
        << where << ": candidate " << i << " (" << c.e1 << ", " << c.e2
        << ")";
  }
}

TEST(ProductGraph, PairingRunsOncePerCandidateAndKey) {
  struct Case {
    std::string name;
    SyntheticDataset ds;
  };
  std::vector<Case> cases;
  {
    auto m = MakeG1();
    cases.push_back({"G1", {std::move(m.g), MakeSigma1(), {}}});
    auto c = testing::MakeG2();
    cases.push_back({"G2", {std::move(c.g), testing::MakeSigma2(), {}}});
  }
  for (uint64_t seed : {1u, 2u, 3u}) {
    DBpediaSimConfig dbp;
    dbp.seed = seed;
    cases.push_back({"dbpedia/" + std::to_string(seed),
                     GenerateDBpediaSim(dbp)});
    GoogleSimConfig google;
    google.seed = seed;
    cases.push_back({"google/" + std::to_string(seed),
                     GenerateGoogleSim(google)});
    PowerLawConfig power;
    power.seed = seed;
    cases.push_back({"powerlaw/" + std::to_string(seed),
                     GeneratePowerLaw(power)});
  }
  const char* kinds[] = {"uniform", "hub", "churn"};
  int run = 0;
  for (Case& tc : cases) {
    for (bool use_pairing : {true, false}) {
      const char* kind = kinds[run++ % 3];
      // Each run mutates the graph, so it gets a fresh copy.
      Graph g = tc.ds.graph;
      PlanOptions popts = PlanOptions::For(Algorithm::kEmOptVc, 2);
      popts.use_pairing = use_pairing;
      auto plan = Matcher::Compile(g, tc.ds.keys, popts);
      ASSERT_TRUE(plan.ok()) << plan.status().ToString();
      const std::string where = tc.name +
                                (use_pairing ? "/pairing/" : "/no-pairing/") +
                                kind;
      ExpectPairedOnce(*plan, where + "/compile");
      DeltaGenConfig dcfg;
      dcfg.seed = 100 + run;
      auto gen = MakeDeltaGenerator(kind, dcfg);
      ASSERT_TRUE(gen.ok());
      for (int batch = 0; batch < 4; ++batch) {
        GraphDelta delta = (*gen)->Next(g);
        ASSERT_TRUE(g.Apply(delta).ok());
        auto patched = plan->Patch(delta);
        ASSERT_TRUE(patched.ok()) << patched.status().ToString();
        plan = std::move(patched);
        ExpectPairedOnce(*plan, where + "/batch" + std::to_string(batch));
      }
    }
  }
}

}  // namespace
}  // namespace gkeys
