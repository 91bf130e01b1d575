// Copyright 2026 The AmnesiaDB Authors
//
// Tests for the amnesia policies, the registry and the controller with all
// five forgetting backends.

#include <algorithm>
#include <set>
#include <unordered_set>

#include <gtest/gtest.h>

#include "amnesia/anterograde.h"
#include "amnesia/area.h"
#include "amnesia/controller.h"
#include "amnesia/distribution_aligned.h"
#include "amnesia/fifo.h"
#include "amnesia/inverse_rot.h"
#include "amnesia/pair_preserving.h"
#include "amnesia/registry.h"
#include "amnesia/rot.h"
#include "amnesia/uniform.h"
#include "common/histogram.h"
#include "query/scan.h"

namespace amnesia {
namespace {

Table MakeTableWithValues(const std::vector<Value>& values) {
  Table t = Table::Make(Schema::SingleColumn("a", 0, 1000)).value();
  for (Value v : values) {
    EXPECT_TRUE(t.AppendRow({v}).ok());
  }
  return t;
}

Table MakeSequentialTable(size_t n) {
  std::vector<Value> values(n);
  for (size_t i = 0; i < n; ++i) values[i] = static_cast<Value>(i);
  return MakeTableWithValues(values);
}

// Checks the contract every policy must satisfy.
void CheckVictimContract(AmnesiaPolicy* policy, const Table& table, size_t k,
                         Rng* rng) {
  const auto victims = policy->SelectVictims(table, k, rng).value();
  const size_t expect =
      std::min<size_t>(k, static_cast<size_t>(table.num_active()));
  ASSERT_EQ(victims.size(), expect);
  std::set<RowId> unique(victims.begin(), victims.end());
  EXPECT_EQ(unique.size(), victims.size()) << "duplicate victims";
  for (RowId r : victims) {
    EXPECT_TRUE(table.IsActive(r)) << "victim " << r << " not active";
  }
}

// ------------------------------------------------------------ Policy kinds

TEST(PolicyKindTest, NamesRoundTrip) {
  for (PolicyKind k : AllPolicyKinds()) {
    EXPECT_EQ(PolicyKindFromString(PolicyKindToString(k)).value(), k);
  }
  EXPECT_EQ(PolicyKindFromString("anterograde").value(),
            PolicyKind::kAnterograde);
  EXPECT_FALSE(PolicyKindFromString("lru").ok());
}

TEST(PolicyKindTest, PaperSubset) {
  const auto paper = PaperPolicyKinds();
  ASSERT_EQ(paper.size(), 5u);
  EXPECT_EQ(paper[0], PolicyKind::kFifo);
  EXPECT_EQ(paper[4], PolicyKind::kArea);
}

// All policies honor the basic victim contract across k values.
class VictimContractTest : public ::testing::TestWithParam<PolicyKind> {};

TEST_P(VictimContractTest, DistinctActiveExactCount) {
  Table t = MakeSequentialTable(200);
  GroundTruthOracle oracle;
  for (RowId r = 0; r < t.num_rows(); ++r) oracle.Append(t.value(0, r));
  oracle.Seal();
  PolicyOptions opts;
  opts.kind = GetParam();
  auto policy = CreatePolicy(opts, &oracle).value();
  Rng rng(77);
  for (size_t k : {size_t{0}, size_t{1}, size_t{17}, size_t{200}, size_t{500}}) {
    CheckVictimContract(policy.get(), t, k, &rng);
  }
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, VictimContractTest,
                         ::testing::ValuesIn(AllPolicyKinds()),
                         [](const auto& info) {
                           std::string name(PolicyKindToString(info.param));
                           std::replace(name.begin(), name.end(), '-', '_');
                           return name;
                         });

// ------------------------------------------------------------------ FIFO

TEST(FifoPolicyTest, SelectsOldestByTick) {
  Table t = MakeSequentialTable(10);
  FifoPolicy fifo;
  Rng rng(1);
  const auto victims = fifo.SelectVictims(t, 3, &rng).value();
  ASSERT_EQ(victims.size(), 3u);
  EXPECT_EQ(victims[0], 0u);
  EXPECT_EQ(victims[1], 1u);
  EXPECT_EQ(victims[2], 2u);
}

TEST(FifoPolicyTest, SkipsAlreadyForgotten) {
  Table t = MakeSequentialTable(10);
  ASSERT_TRUE(t.Forget(0).ok());
  ASSERT_TRUE(t.Forget(2).ok());
  FifoPolicy fifo;
  Rng rng(1);
  const auto victims = fifo.SelectVictims(t, 2, &rng).value();
  EXPECT_EQ(victims[0], 1u);
  EXPECT_EQ(victims[1], 3u);
}

TEST(FifoPolicyTest, SlidingWindowInvariant) {
  // After repeated insert+forget rounds, the active set is exactly the
  // most recent DBSIZE insertions.
  Table t = MakeSequentialTable(100);
  FifoPolicy fifo;
  Rng rng(1);
  for (int round = 0; round < 5; ++round) {
    t.BeginBatch();
    for (int i = 0; i < 20; ++i) {
      ASSERT_TRUE(t.AppendRow({round * 100 + i}).ok());
    }
    const auto victims = fifo.SelectVictims(t, 20, &rng).value();
    for (RowId r : victims) ASSERT_TRUE(t.Forget(r).ok());
  }
  EXPECT_EQ(t.num_active(), 100u);
  const auto active = t.ActiveRows();
  // Active rows must be the 100 highest ticks.
  const Tick cutoff = t.insert_tick(active.front());
  for (RowId r = 0; r < t.num_rows(); ++r) {
    if (t.insert_tick(r) > cutoff) {
      EXPECT_TRUE(t.IsActive(r));
    }
    if (t.insert_tick(r) < cutoff) {
      EXPECT_FALSE(t.IsActive(r));
    }
  }
}

// --------------------------------------------------------------- Uniform

TEST(UniformPolicyTest, EveryActiveTupleEquallyAtRisk) {
  Table t = MakeSequentialTable(50);
  UniformPolicy uniform;
  std::vector<int> hits(50, 0);
  const int rounds = 10000;
  Rng rng(2);
  for (int i = 0; i < rounds; ++i) {
    const auto victims_uniform = uniform.SelectVictims(t, 5, &rng).value();
    for (RowId r : victims_uniform) {
      ++hits[r];
    }
  }
  for (int h : hits) {
    EXPECT_NEAR(static_cast<double>(h) / rounds, 0.1, 0.02);
  }
}

// Victims resolved in one bitmap pass must equal a per-pick NthActiveRow
// over the same draws, in pick order, on tables with holes of every shape.
TEST(UniformPolicyTest, OnePassSelectionMatchesPerPickLookup) {
  UniformPolicy uniform;
  auto check = [&](const Table& t, size_t k, uint64_t seed) {
    Rng rng(seed);
    Rng twin(seed);
    const std::vector<RowId> got = uniform.SelectVictims(t, k, &rng).value();
    std::vector<RowId> want;
    for (size_t p : twin.SampleWithoutReplacement(
             static_cast<size_t>(t.num_active()), k)) {
      want.push_back(t.NthActiveRow(p));
    }
    ASSERT_EQ(got, want) << "k " << k << " seed " << seed;
    EXPECT_EQ(rng.NextU64(), twin.NextU64());  // same draws consumed
  };
  auto forget_if = [](Table* t, auto&& pred) {
    for (RowId r = 0; r < t->num_rows(); ++r) {
      if (pred(r)) {
        ASSERT_TRUE(t->Forget(r).ok());
      }
    }
  };

  std::vector<Table> tables;
  tables.push_back(MakeSequentialTable(1000));  // scattered forgotten rows
  forget_if(&tables.back(),
            [](RowId r) { return r % 7 == 3 || r % 11 == 0; });
  tables.push_back(MakeSequentialTable(1000));  // whole empty words
  forget_if(&tables.back(), [](RowId r) { return r >= 64 && r < 448; });
  tables.push_back(MakeSequentialTable(1000));  // a forgotten half
  forget_if(&tables.back(), [](RowId r) { return r < 500; });
  tables.push_back(MakeSequentialTable(1000));  // nearly empty
  forget_if(&tables.back(), [](RowId r) { return r != 5 && r != 999; });
  for (const Table& t : tables) {
    const size_t active = static_cast<size_t>(t.num_active());
    for (size_t k : {size_t{0}, size_t{1}, active / 2, active, active + 5}) {
      check(t, k, 7 + k);
    }
  }

  // Randomized tables: random size, random forgotten rows (sometimes in
  // runs that empty whole words), random k up to past the population.
  Rng shape(20261017);
  for (int round = 0; round < 200; ++round) {
    Table t = MakeSequentialTable(
        static_cast<size_t>(shape.UniformInt(1, 700)));
    const double drop = shape.NextDouble();
    const RowId run_begin = static_cast<RowId>(
        shape.UniformInt(0, static_cast<int64_t>(t.num_rows())));
    const RowId run_end =
        run_begin + static_cast<RowId>(shape.UniformInt(0, 200));
    forget_if(&t, [&](RowId r) {
      return (r >= run_begin && r < run_end) || shape.NextDouble() < drop;
    });
    const int64_t active = static_cast<int64_t>(t.num_active());
    check(t, static_cast<size_t>(shape.UniformInt(0, active + 5)),
          shape.NextU64());
    check(t, static_cast<size_t>(active), shape.NextU64());
  }
}

// ------------------------------------------------------------ Anterograde

TEST(AnterogradePolicyTest, PrefersRecentTuples) {
  Table t = MakeSequentialTable(100);
  AnterogradePolicy ante(4.0);
  Rng rng(3);
  int old_half_hits = 0, new_half_hits = 0;
  for (int i = 0; i < 2000; ++i) {
    const auto victims_ante = ante.SelectVictims(t, 1, &rng).value();
    for (RowId r : victims_ante) {
      (r < 50 ? old_half_hits : new_half_hits)++;
    }
  }
  EXPECT_GT(new_half_hits, old_half_hits * 5);
}

TEST(AnterogradePolicyTest, BetaZeroDegeneratesToUniform) {
  Table t = MakeSequentialTable(100);
  AnterogradePolicy ante(0.0);
  Rng rng(3);
  int old_half_hits = 0, total = 0;
  for (int i = 0; i < 4000; ++i) {
    const auto victims_ante = ante.SelectVictims(t, 1, &rng).value();
    for (RowId r : victims_ante) {
      if (r < 50) ++old_half_hits;
      ++total;
    }
  }
  EXPECT_NEAR(static_cast<double>(old_half_hits) / total, 0.5, 0.05);
}

TEST(AnterogradePolicyTest, NegativeBetaRejected) {
  Table t = MakeSequentialTable(10);
  AnterogradePolicy ante(-1.0);
  Rng rng(3);
  EXPECT_FALSE(ante.SelectVictims(t, 1, &rng).ok());
}

// ------------------------------------------------------------------- Rot

TEST(RotPolicyTest, ProtectsLatestBatches) {
  Table t = MakeSequentialTable(50);
  t.BeginBatch();
  std::vector<RowId> fresh;
  for (int i = 0; i < 10; ++i) {
    fresh.push_back(t.AppendRow({100 + i}).value());
  }
  RotOptions opts;
  opts.protect_latest_batches = 1;
  RotPolicy rot(opts);
  Rng rng(4);
  // Demand small enough to be satisfiable from old tuples only.
  for (int round = 0; round < 50; ++round) {
    const auto victims_rot = rot.SelectVictims(t, 10, &rng).value();
    for (RowId r : victims_rot) {
      EXPECT_LT(r, 50u) << "rotted a protected fresh tuple";
    }
  }
}

TEST(RotPolicyTest, FrequentlyAccessedSurvive) {
  Table t = MakeSequentialTable(100);
  // Tuples 0..49 are hot: large access counts.
  for (RowId r = 0; r < 50; ++r) {
    for (int i = 0; i < 50; ++i) t.BumpAccess(r);
  }
  t.BeginBatch();  // age everything past the high-water mark
  RotPolicy rot;
  Rng rng(5);
  int hot_hits = 0, cold_hits = 0;
  for (int i = 0; i < 1000; ++i) {
    const auto victims_rot = rot.SelectVictims(t, 5, &rng).value();
    for (RowId r : victims_rot) {
      (r < 50 ? hot_hits : cold_hits)++;
    }
  }
  EXPECT_GT(cold_hits, hot_hits * 5);
}

TEST(RotPolicyTest, FallsBackToYoungWhenDemandExceedsEligible) {
  Table t = MakeSequentialTable(10);
  t.BeginBatch();
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(t.AppendRow({100 + i}).ok());
  RotPolicy rot;
  Rng rng(6);
  // Demand 15 > 10 eligible old tuples: must dip into the protected young.
  const auto victims = rot.SelectVictims(t, 15, &rng).value();
  EXPECT_EQ(victims.size(), 15u);
}

TEST(RotPolicyTest, InvalidSmoothingRejected) {
  Table t = MakeSequentialTable(10);
  RotOptions opts;
  opts.smoothing = 0.0;
  RotPolicy rot(opts);
  Rng rng(6);
  EXPECT_FALSE(rot.SelectVictims(t, 1, &rng).ok());
}

// ------------------------------------------------------------ InverseRot

TEST(InverseRotPolicyTest, ForgetsTheHotData) {
  Table t = MakeSequentialTable(100);
  for (RowId r = 0; r < 10; ++r) {
    for (int i = 0; i < 100; ++i) t.BumpAccess(r);
  }
  InverseRotPolicy policy;
  Rng rng(7);
  int hot_hits = 0;
  for (int i = 0; i < 500; ++i) {
    const auto victims_policy = policy.SelectVictims(t, 1, &rng).value();
    for (RowId r : victims_policy) {
      if (r < 10) ++hot_hits;
    }
  }
  // Hot tuples carry all the weight: essentially every pick is hot.
  EXPECT_GT(hot_hits, 450);
}

TEST(InverseRotPolicyTest, NoAccessesFallsBackToAny) {
  Table t = MakeSequentialTable(10);
  InverseRotPolicy policy;
  Rng rng(7);
  const auto victims = policy.SelectVictims(t, 4, &rng).value();
  EXPECT_EQ(victims.size(), 4u);
}

// ------------------------------------------------------------------ Area

TEST(AreaPolicyTest, GrowsContiguousHoles) {
  Table t = MakeSequentialTable(500);
  AreaOptions opts;
  opts.max_areas = 3;
  AreaPolicy area(opts);
  Rng rng(8);
  for (int round = 0; round < 10; ++round) {
    const auto victims_area = area.SelectVictims(t, 20, &rng).value();
    for (RowId r : victims_area) {
      ASSERT_TRUE(t.Forget(r).ok());
    }
  }
  EXPECT_LE(area.num_areas(), 3u);
  // Forgotten rows must form few contiguous runs, not dust: count the runs.
  int runs = 0;
  bool in_run = false;
  for (RowId r = 0; r < t.num_rows(); ++r) {
    const bool forgotten = !t.IsActive(r);
    if (forgotten && !in_run) ++runs;
    in_run = forgotten;
  }
  EXPECT_LE(runs, 12);  // 200 forgotten tuples in a handful of runs
  EXPECT_EQ(t.num_forgotten(), 200u);
}

TEST(AreaPolicyTest, UnboundedAreasStillContract) {
  Table t = MakeSequentialTable(100);
  AreaPolicy area;
  Rng rng(9);
  CheckVictimContract(&area, t, 30, &rng);
}

TEST(AreaPolicyTest, CompactionResetsAreas) {
  Table t = MakeSequentialTable(100);
  AreaPolicy area;
  Rng rng(10);
  const auto victims_area = area.SelectVictims(t, 10, &rng).value();
  for (RowId r : victims_area) {
    ASSERT_TRUE(t.Forget(r).ok());
  }
  EXPECT_GT(area.num_areas(), 0u);
  const RowMapping mapping = t.CompactForgotten();
  area.OnCompaction(mapping);
  EXPECT_EQ(area.num_areas(), 0u);
  CheckVictimContract(&area, t, 10, &rng);
}

TEST(AreaPolicyTest, ExhaustsWholeTable) {
  Table t = MakeSequentialTable(50);
  AreaPolicy area;
  Rng rng(11);
  const auto victims = area.SelectVictims(t, 50, &rng).value();
  EXPECT_EQ(victims.size(), 50u);
  std::set<RowId> unique(victims.begin(), victims.end());
  EXPECT_EQ(unique.size(), 50u);
}

// --------------------------------------------------------- PairPreserving

TEST(PairPreservingPolicyTest, PreservesMeanOnSymmetricData) {
  std::vector<Value> values;
  for (int i = 0; i < 100; ++i) values.push_back(i);  // mean 49.5
  Table t = MakeTableWithValues(values);
  PairPreservingPolicy policy;
  Rng rng(12);
  const double mean_before = 49.5;

  const auto victims = policy.SelectVictims(t, 20, &rng).value();
  ASSERT_EQ(victims.size(), 20u);
  for (RowId r : victims) ASSERT_TRUE(t.Forget(r).ok());

  const AggregateResult after =
      AggregateRange(t, RangePredicate::All(0), Visibility::kActiveOnly)
          .value();
  EXPECT_NEAR(after.avg, mean_before, 0.5);
}

TEST(PairPreservingPolicyTest, OddDemandFillsWithNearMeanSingle) {
  Table t = MakeTableWithValues({0, 50, 100});
  PairPreservingPolicy policy;
  Rng rng(13);
  const auto victims = policy.SelectVictims(t, 3, &rng).value();
  EXPECT_EQ(victims.size(), 3u);
}

TEST(PairPreservingPolicyTest, SkewedDataStaysClose) {
  std::vector<Value> values;
  Rng data_rng(14);
  for (int i = 0; i < 400; ++i) {
    values.push_back(data_rng.UniformInt(0, 9) == 0 ? 900
                                                    : data_rng.UniformInt(0, 99));
  }
  Table t = MakeTableWithValues(values);
  const double mean_before =
      AggregateRange(t, RangePredicate::All(0), Visibility::kActiveOnly)
          .value()
          .avg;
  PairPreservingPolicy policy;
  Rng rng(15);
  const auto victims_policy = policy.SelectVictims(t, 100, &rng).value();
  for (RowId r : victims_policy) {
    ASSERT_TRUE(t.Forget(r).ok());
  }
  const double mean_after =
      AggregateRange(t, RangePredicate::All(0), Visibility::kActiveOnly)
          .value()
          .avg;
  EXPECT_NEAR(mean_after, mean_before, mean_before * 0.05);
}

TEST(PairPreservingPolicyTest, BadOptionsRejected) {
  Table t = MakeSequentialTable(10);
  PairPreservingOptions opts;
  opts.col = 9;
  PairPreservingPolicy policy(opts);
  Rng rng(16);
  EXPECT_FALSE(policy.SelectVictims(t, 1, &rng).ok());
  opts.col = 0;
  opts.tolerance = -0.5;
  PairPreservingPolicy p2(opts);
  EXPECT_FALSE(p2.SelectVictims(t, 1, &rng).ok());
}

// --------------------------------------------------- DistributionAligned

TEST(DistributionAlignedPolicyTest, KeepsActiveShapeCloseToHistory) {
  // History: uniform over [0, 1000). Active set: artificially skewed by
  // inserting extra mass at the low end, which the policy must prune.
  Table t = Table::Make(Schema::SingleColumn("a", 0, 1000)).value();
  GroundTruthOracle oracle;
  Rng data_rng(17);
  for (int i = 0; i < 1000; ++i) {
    const Value v = data_rng.UniformInt(0, 999);
    ASSERT_TRUE(t.AppendRow({v}).ok());
    oracle.Append(v);
  }
  // Extra low-end mass (also in the oracle, so the target shape shifts
  // only mildly; the active surplus is what must go).
  for (int i = 0; i < 500; ++i) {
    const Value v = data_rng.UniformInt(0, 99);
    ASSERT_TRUE(t.AppendRow({v}).ok());
    oracle.Append(v);
  }
  oracle.Seal();

  DistributionAlignedPolicy policy(&oracle);
  Rng rng(18);
  const auto victims_policy = policy.SelectVictims(t, 500, &rng).value();
  for (RowId r : victims_policy) {
    ASSERT_TRUE(t.Forget(r).ok());
  }

  // Compare active shape vs. history shape on a 10-bucket histogram.
  Histogram active_h = Histogram::Make(0, 1000, 10).value();
  t.active_bitmap().ForEachSet(
      [&](size_t r) { active_h.Add(t.value(0, r)); });
  Histogram truth_h = Histogram::Make(0, 1000, 10).value();
  for (uint64_t i = 0; i < oracle.size(); ++i) {
    truth_h.Add(oracle.ValueAt(i).value());
  }
  const double dist = Histogram::L1Distance(active_h, truth_h).value();
  EXPECT_LT(dist, 0.12);
}

TEST(DistributionAlignedPolicyTest, RequiresOracle) {
  Table t = MakeSequentialTable(10);
  DistributionAlignedPolicy policy(nullptr);
  Rng rng(19);
  EXPECT_FALSE(policy.SelectVictims(t, 1, &rng).ok());
}

TEST(DistributionAlignedPolicyTest, EmptyOracleFails) {
  Table t = MakeSequentialTable(10);
  GroundTruthOracle oracle;
  DistributionAlignedPolicy policy(&oracle);
  Rng rng(19);
  EXPECT_EQ(policy.SelectVictims(t, 1, &rng).status().code(),
            StatusCode::kFailedPrecondition);
}

// --------------------------------------------------------------- Registry

TEST(RegistryTest, CreatesEveryKind) {
  GroundTruthOracle oracle;
  oracle.Append(1);
  oracle.Seal();
  for (PolicyKind k : AllPolicyKinds()) {
    PolicyOptions opts;
    opts.kind = k;
    auto policy = CreatePolicy(opts, &oracle).value();
    EXPECT_EQ(policy->kind(), k);
  }
}

TEST(RegistryTest, AlignedWithoutOracleRejected) {
  PolicyOptions opts;
  opts.kind = PolicyKind::kDistributionAligned;
  EXPECT_EQ(CreatePolicy(opts, nullptr).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(RegistryTest, BadAnteBetaRejected) {
  PolicyOptions opts;
  opts.kind = PolicyKind::kAnterograde;
  opts.ante_beta = -3.0;
  EXPECT_FALSE(CreatePolicy(opts).ok());
}

// ------------------------------------------------------------- Controller

TEST(ControllerTest, BackendNames) {
  EXPECT_EQ(BackendKindToString(BackendKind::kMarkOnly), "mark-only");
  EXPECT_EQ(BackendKindToString(BackendKind::kDelete), "delete");
  EXPECT_EQ(BackendKindToString(BackendKind::kColdStorage), "cold-storage");
  EXPECT_EQ(BackendKindToString(BackendKind::kSummary), "summary");
  EXPECT_EQ(BackendKindToString(BackendKind::kIndexSkip), "index-skip");
}

TEST(ControllerTest, MakeValidatesWiring) {
  Table t = MakeSequentialTable(10);
  UniformPolicy policy;
  ControllerOptions opts;
  opts.backend = BackendKind::kColdStorage;
  EXPECT_FALSE(AmnesiaController::Make(opts, &policy, &t).ok());
  opts.backend = BackendKind::kSummary;
  EXPECT_FALSE(AmnesiaController::Make(opts, &policy, &t).ok());
  opts.backend = BackendKind::kIndexSkip;
  EXPECT_FALSE(AmnesiaController::Make(opts, &policy, &t).ok());
  opts.backend = BackendKind::kMarkOnly;
  opts.payload_col = 7;
  EXPECT_FALSE(AmnesiaController::Make(opts, &policy, &t).ok());
  EXPECT_FALSE(AmnesiaController::Make(ControllerOptions{}, nullptr, &t).ok());
}

TEST(ControllerTest, MarkOnlyEnforcesFixedBudget) {
  Table t = MakeSequentialTable(150);
  UniformPolicy policy;
  ControllerOptions opts;
  opts.dbsize_budget = 100;
  auto ctrl = AmnesiaController::Make(opts, &policy, &t).value();
  Rng rng(20);
  EXPECT_EQ(ctrl.Overflow(), 50u);
  ASSERT_TRUE(ctrl.EnforceBudget(&rng).ok());
  EXPECT_EQ(t.num_active(), 100u);
  EXPECT_EQ(t.num_rows(), 150u);  // mark-only keeps the rows
  EXPECT_EQ(ctrl.stats().tuples_forgotten, 50u);
  // Within budget: second call is a no-op.
  ASSERT_TRUE(ctrl.EnforceBudget(&rng).ok());
  EXPECT_EQ(t.num_active(), 100u);
  EXPECT_EQ(ctrl.stats().rounds, 2u);
}

TEST(ControllerTest, DeleteBackendScrubsAndCompacts) {
  Table t = MakeSequentialTable(150);
  FifoPolicy policy;
  ControllerOptions opts;
  opts.dbsize_budget = 100;
  opts.backend = BackendKind::kDelete;
  opts.compact_every_n_rounds = 1;
  auto ctrl = AmnesiaController::Make(opts, &policy, &t).value();
  Rng rng(21);
  ASSERT_TRUE(ctrl.EnforceBudget(&rng).ok());
  EXPECT_EQ(t.num_active(), 100u);
  EXPECT_EQ(t.num_rows(), 100u);  // physically gone
  EXPECT_EQ(ctrl.stats().compactions, 1u);
  EXPECT_EQ(ctrl.stats().rows_compacted, 50u);
  // FIFO removed the oldest: the survivors start at value 50.
  EXPECT_EQ(t.value(0, 0), 50);
}

TEST(ControllerTest, DeleteBackendWithoutCompaction) {
  Table t = MakeSequentialTable(120);
  FifoPolicy policy;
  ControllerOptions opts;
  opts.dbsize_budget = 100;
  opts.backend = BackendKind::kDelete;
  opts.compact_every_n_rounds = 0;  // scrub only
  auto ctrl = AmnesiaController::Make(opts, &policy, &t).value();
  Rng rng(22);
  ASSERT_TRUE(ctrl.EnforceBudget(&rng).ok());
  EXPECT_EQ(t.num_rows(), 120u);
  EXPECT_EQ(t.value(0, 0), 0);  // scrubbed payload
  EXPECT_FALSE(t.IsActive(0));
  EXPECT_EQ(ctrl.stats().compactions, 0u);
}

TEST(ControllerTest, ColdStorageBackendParksTuples) {
  Table t = MakeSequentialTable(120);
  FifoPolicy policy;
  ColdStore cold;
  ControllerOptions opts;
  opts.dbsize_budget = 100;
  opts.backend = BackendKind::kColdStorage;
  auto ctrl =
      AmnesiaController::Make(opts, &policy, &t, nullptr, &cold).value();
  Rng rng(23);
  ASSERT_TRUE(ctrl.EnforceBudget(&rng).ok());
  EXPECT_EQ(cold.size(), 20u);
  EXPECT_EQ(ctrl.stats().cold_evictions, 20u);
  // The evicted tuples are the 20 oldest values 0..19; recall finds them.
  const auto recalled = cold.RecallValueRange(0, 20);
  EXPECT_EQ(recalled.size(), 20u);
}

TEST(ControllerTest, SummaryBackendFoldsValues) {
  Table t = MakeSequentialTable(120);
  FifoPolicy policy;
  SummaryStore summaries;
  ControllerOptions opts;
  opts.dbsize_budget = 100;
  opts.backend = BackendKind::kSummary;
  auto ctrl = AmnesiaController::Make(opts, &policy, &t, nullptr, nullptr,
                                      &summaries)
                  .value();
  Rng rng(24);
  ASSERT_TRUE(ctrl.EnforceBudget(&rng).ok());
  const Summary total = summaries.Total(0);
  EXPECT_EQ(total.count, 20u);
  EXPECT_EQ(total.min, 0);
  EXPECT_EQ(total.max, 19);
  EXPECT_DOUBLE_EQ(total.Mean(), 9.5);
  EXPECT_EQ(ctrl.stats().summary_folds, 20u);
}

TEST(ControllerTest, IndexSkipBackendUnhooksRows) {
  Table t = MakeSequentialTable(120);
  FifoPolicy policy;
  IndexManager indexes;
  // Build the index first so it can be maintained incrementally.
  Index* idx = indexes.GetOrBuild(t, 0, IndexKind::kBTree).value();
  ControllerOptions opts;
  opts.dbsize_budget = 100;
  opts.backend = BackendKind::kIndexSkip;
  auto ctrl =
      AmnesiaController::Make(opts, &policy, &t, &indexes).value();
  Rng rng(25);
  ASSERT_TRUE(ctrl.EnforceBudget(&rng).ok());
  EXPECT_EQ(idx->num_entries(), 100u);
  EXPECT_EQ(ctrl.stats().index_erases, 20u);
  // Index stayed in sync: a lookup serves without rebuild.
  EXPECT_NE(indexes.Peek(t, 0, IndexKind::kBTree), nullptr);
  // Scans still see the physically-present forgotten rows.
  EXPECT_EQ(
      CountRange(t, RangePredicate::All(0), Visibility::kAll).value(), 120u);
}

TEST(ControllerTest, ByteHighWaterModeShrinksFootprint) {
  Table t = MakeSequentialTable(1);
  UniformPolicy policy;
  ControllerOptions opts;
  opts.mode = BudgetMode::kByteHighWater;
  opts.backend = BackendKind::kDelete;
  opts.compact_every_n_rounds = 1;
  // Fill until well above a small byte budget.
  for (int i = 1; i < 5000; ++i) ASSERT_TRUE(t.AppendRow({i}).ok());
  opts.byte_high_water = t.ApproxBytes() / 2;
  opts.byte_low_water_fraction = 0.9;
  auto ctrl = AmnesiaController::Make(opts, &policy, &t).value();
  Rng rng(26);
  EXPECT_GT(ctrl.Overflow(), 0u);
  ASSERT_TRUE(ctrl.EnforceBudget(&rng).ok());
  EXPECT_LT(t.num_active(), 5000u);
  EXPECT_GT(ctrl.stats().tuples_forgotten, 0u);
}

TEST(ControllerTest, ByteModeValidatesFraction) {
  Table t = MakeSequentialTable(10);
  UniformPolicy policy;
  ControllerOptions opts;
  opts.mode = BudgetMode::kByteHighWater;
  opts.byte_low_water_fraction = 0.0;
  EXPECT_FALSE(AmnesiaController::Make(opts, &policy, &t).ok());
  opts.byte_low_water_fraction = 1.5;
  EXPECT_FALSE(AmnesiaController::Make(opts, &policy, &t).ok());
}

TEST(ControllerTest, RepeatedRoundsKeepExactBudget) {
  Table t = MakeSequentialTable(1000);
  UniformPolicy policy;
  ControllerOptions opts;
  opts.dbsize_budget = 1000;
  auto ctrl = AmnesiaController::Make(opts, &policy, &t).value();
  Rng rng(27);
  for (int round = 0; round < 10; ++round) {
    t.BeginBatch();
    for (int i = 0; i < 200; ++i) {
      ASSERT_TRUE(t.AppendRow({round * 1000 + i}).ok());
    }
    ASSERT_TRUE(ctrl.EnforceBudget(&rng).ok());
    ASSERT_EQ(t.num_active(), 1000u);
  }
  EXPECT_EQ(ctrl.stats().tuples_forgotten, 2000u);
}

}  // namespace
}  // namespace amnesia
