#include "core/em_mapreduce.h"

#include <mutex>
#include <numeric>

#include "common/timer.h"
#include "mapreduce/mapreduce.h"

namespace gkeys {

namespace {

// Status codes flowing through the MapReduce rounds.
constexpr uint8_t kUnidentified = 0;  // keep for next round
constexpr uint8_t kNewlyIdentified = 1;  // merge into Eq
constexpr uint8_t kTcIdentified = 2;  // became Same transitively

}  // namespace

StatusOr<MatchResult> RunEmMapReduce(const EmContext& ctx,
                                     const EmOptions& opts, MatchSink* sink,
                                     const RematchSeed* seed) {
  const Graph& g = ctx.graph();
  const auto& candidates = ctx.candidates();
  const int p = std::max(1, opts.processors);

  MatchResult result;
  result.stats.candidates_initial = ctx.candidates_initial();
  result.stats.candidates_blocked = ctx.candidates_blocked();
  result.stats.candidates = candidates.size();
  result.stats.neighbor_nodes = ctx.neighbor_nodes();
  result.stats.neighbor_nodes_reduced = ctx.neighbor_nodes_reduced();

  Timer run;
  ConcurrentEquivalence eq(g.NumNodes());
  EqView view(&eq);
  internal::MergeLog merge_log(internal::LogShardCount(opts));
  internal::DerivationLog deriv_log(internal::LogShardCount(opts));

  // Search stats aggregated lock-free (mappers run concurrently; a mutex
  // here would serialize the map phase and destroy parallel scalability).
  std::atomic<uint64_t> iso_checks{0};
  std::atomic<uint64_t> stat_expansions{0};
  std::atomic<uint64_t> stat_feasibility{0};
  std::atomic<uint64_t> stat_full{0};

  // MapEM (paper Fig. 4). V1: 1 = run the isomorphism check, 0 = carry
  // forward unchecked (incremental optimization skips quiet pairs).
  using V2 = std::pair<uint32_t, uint8_t>;
  mapreduce::Job<uint32_t, uint8_t, NodeId, V2, uint32_t, uint8_t> job(
      /*map=*/
      [&](const uint32_t& idx, const uint8_t& check,
          mapreduce::Emitter<NodeId, V2>& out) {
        const Candidate& c = candidates[idx];
        if (eq.Same(c.e1, c.e2)) {
          // Identified transitively since last round: drop from the
          // pipeline, but tell the reducer so dependents get re-checked.
          out.Emit(c.e1, {idx, kTcIdentified});
          return;
        }
        if (check != 0) {
          SearchStats local;
          iso_checks.fetch_add(1, std::memory_order_relaxed);
          bool found;
          if (opts.record_provenance) {
            // Recorded in map order: premises were Same under the
            // previous rounds' Eq, whose derivations are already logged.
            thread_local Witness witness;
            int fired = -1;
            found = ctx.IdentifiesWitness(c, view, &fired, &witness, &local,
                                          /*unrestricted=*/false,
                                          opts.use_vf2);
            if (found) deriv_log.Record(ctx.MakeDerivation(c, fired, witness));
          } else {
            found = ctx.Identifies(c, view, &local,
                                   /*unrestricted=*/false, opts.use_vf2);
          }
          stat_expansions.fetch_add(local.expansions,
                                    std::memory_order_relaxed);
          stat_feasibility.fetch_add(local.feasibility_checks,
                                     std::memory_order_relaxed);
          stat_full.fetch_add(local.full_instantiations,
                              std::memory_order_relaxed);
          if (found) {
            out.Emit(c.e1, {idx, kNewlyIdentified});
            out.Emit(c.e2, {idx, kNewlyIdentified});
            return;
          }
        }
        out.Emit(c.e1, {idx, kUnidentified});
      },
      /*reduce=*/
      [&](const NodeId&, const std::vector<V2>& values,
          mapreduce::Emitter<uint32_t, uint8_t>& out) {
        for (const auto& [idx, code] : values) {
          if (code == kNewlyIdentified) {
            const Candidate& c = candidates[idx];
            // TC is implicit in union-find.
            if (eq.Union(c.e1, c.e2) && sink != nullptr) {
              merge_log.Record(c.e1, c.e2);
            }
            out.Emit(idx, kNewlyIdentified);
          } else if (code == kTcIdentified) {
            out.Emit(idx, kTcIdentified);
          } else {
            out.Emit(idx, kUnidentified);
          }
        }
      });

  // Seeded rematch: Eq starts at the previous fixpoint. Pairs already
  // equal under the seed had every consequence drawn in the previous run:
  // mark them (and seed-equal ghosts) done up front so only NEW merges
  // wake dependents.
  std::vector<uint8_t> ghost_done(ctx.ghosts().size(), 0);
  std::vector<uint8_t> tc_done(candidates.size(), 0);
  if (seed != nullptr) {
    for (const auto& [a, b] : seed->prev_pairs) eq.Union(a, b);
    for (uint32_t i = 0; i < candidates.size(); ++i) {
      if (eq.Same(candidates[i].e1, candidates[i].e2)) tc_done[i] = 1;
    }
    for (uint32_t gi = 0; gi < ctx.ghosts().size(); ++gi) {
      const auto& ghost = ctx.ghosts()[gi];
      if (eq.Same(ghost.e1, ghost.e2)) ghost_done[gi] = 1;
    }
  }

  // DriverMR: choose the first round's inputs. With the dependency
  // optimization, start from L0 (pairs carrying a value-based key);
  // everything else enters in round 2, after its dependencies had a
  // chance to fire. A seeded rematch instead admits exactly the dirty
  // candidates; clean ones are pulled in by the wake-ups below.
  std::vector<std::pair<uint32_t, uint8_t>> inputs;
  std::vector<uint8_t> entered(candidates.size(), 0);
  bool deferred_pending = false;
  if (seed != nullptr) {
    for (uint32_t i : seed->active) {
      inputs.emplace_back(i, 1);
      entered[i] = 1;
    }
  } else {
    for (uint32_t i = 0; i < candidates.size(); ++i) {
      if (opts.use_dependency && !candidates[i].has_value_based_key) {
        deferred_pending = true;
        continue;
      }
      inputs.emplace_back(i, 1);
      entered[i] = 1;
    }
  }

  internal::PairStreamer streamer(sink, g.NumNodes());
  if (seed != nullptr) streamer.SeedClasses(seed->prev_pairs);
  auto end_of_round = [&]() -> Status {
    if (sink == nullptr) return Status::OK();
    result.stats.confirmed = streamer.EmitMerges(merge_log.Drain());
    result.stats.iso_checks = iso_checks.load();
    sink->OnProgress(result.stats);
    if (sink->cancelled()) {
      return Status::Cancelled("entity matching cancelled after round " +
                               std::to_string(result.stats.rounds));
    }
    return Status::OK();
  };

  while (!inputs.empty() || deferred_pending) {
    GKEYS_RETURN_IF_ERROR(CheckTimeBudget(run.Seconds(),
                                          opts.time_budget_seconds,
                                          result.stats.rounds));
    ++result.stats.rounds;
    size_t merges_before = eq.num_merges();
    auto outputs = job.Run(inputs, p);

    // Collect per-pair outcomes (a pair may appear twice when identified).
    std::vector<uint32_t> identified;
    std::vector<uint32_t> carried;
    {
      std::vector<uint8_t> seen(candidates.size(), 0);
      for (const auto& [idx, code] : outputs) {
        if (seen[idx]) continue;
        seen[idx] = 1;
        if (code == kUnidentified) {
          carried.push_back(idx);
        } else {
          identified.push_back(idx);
        }
      }
    }

    bool changed = eq.num_merges() != merges_before;

    // Mark dependents of everything identified this round dirty.
    std::vector<uint8_t> dirty(candidates.size(), 0);
    for (uint32_t idx : identified) {
      for (uint32_t dep : ctx.dependents()[idx]) dirty[dep] = 1;
    }
    // Seeded rematch: candidates outside the pipeline never emit
    // kTcIdentified, so scan them for transitive equality here and wake
    // their dependents the same way.
    if (seed != nullptr && changed) {
      for (uint32_t i = 0; i < candidates.size(); ++i) {
        if (tc_done[i] != 0 || entered[i] != 0) continue;
        if (!eq.Same(candidates[i].e1, candidates[i].e2)) continue;
        tc_done[i] = 1;
        for (uint32_t dep : ctx.dependents()[i]) dirty[dep] = 1;
      }
    }
    // Ghost pairs: dropped from L by pairing but depended upon. When one
    // becomes equal transitively, its dependents must be re-checked.
    for (uint32_t gi = 0; gi < ctx.ghosts().size(); ++gi) {
      if (ghost_done[gi]) continue;
      const auto& ghost = ctx.ghosts()[gi];
      if (!eq.Same(ghost.e1, ghost.e2)) continue;
      ghost_done[gi] = 1;
      for (uint32_t dep : ghost.dependents) dirty[dep] = 1;
    }

    GKEYS_RETURN_IF_ERROR(end_of_round());

    inputs.clear();
    if (deferred_pending) {
      // Round 2 of the dependency optimization: admit the deferred pairs.
      for (uint32_t i = 0; i < candidates.size(); ++i) {
        if (!entered[i]) {
          inputs.emplace_back(i, 1);
          entered[i] = 1;
        }
      }
      deferred_pending = false;
      // Carried pairs continue (checked again only if dirty when the
      // incremental optimization is on).
      for (uint32_t idx : carried) {
        inputs.emplace_back(idx,
                            (!opts.use_incremental || dirty[idx]) ? 1 : 0);
      }
      continue;
    }
    if (!changed) break;  // Eq is a fixpoint (paper Fig. 4 line 5)
    for (uint32_t idx : carried) {
      inputs.emplace_back(idx,
                          (!opts.use_incremental || dirty[idx]) ? 1 : 0);
    }
    // Seeded rematch: clean candidates woken by this round's merges join
    // the pipeline (in the full run everything entered in rounds 1–2).
    if (seed != nullptr) {
      for (uint32_t i = 0; i < candidates.size(); ++i) {
        if (dirty[i] != 0 && entered[i] == 0) {
          inputs.emplace_back(i, 1);
          entered[i] = 1;
        }
      }
    }
  }

  result.stats.run_seconds = run.Seconds();
  result.stats.iso_checks = iso_checks.load();
  result.stats.search.expansions = stat_expansions.load();
  result.stats.search.feasibility_checks = stat_feasibility.load();
  result.stats.search.full_instantiations = stat_full.load();
  internal::AssembleDerivations(result, seed, opts.record_provenance,
                                deriv_log.Take());
  result.pairs = eq.Snapshot().IdentifiedPairs();
  result.stats.confirmed = result.pairs.size();
  GKEYS_RETURN_IF_ERROR(streamer.Finish(result.pairs));
  return result;
}

}  // namespace gkeys
