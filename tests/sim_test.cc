// Copyright 2026 The AmnesiaDB Authors
//
// Tests for the simulator: config validation, invariants of the
// query-dominant loop, determinism, the canned experiment configs.

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "sim/experiments.h"
#include "sim/simulator.h"
#include "storage/checkpoint.h"

namespace amnesia {
namespace {

SimulationConfig SmallConfig() {
  SimulationConfig config;
  config.seed = 7;
  config.dbsize = 200;
  config.upd_perc = 0.2;
  config.num_batches = 5;
  config.queries_per_batch = 50;
  config.distribution.kind = DistributionKind::kUniform;
  config.distribution.domain_hi = 10'000;
  config.policy.kind = PolicyKind::kUniform;
  return config;
}

// ---------------------------------------------------------------- Config

TEST(ConfigTest, ValidateAcceptsDefaults) {
  EXPECT_TRUE(SmallConfig().Validate().ok());
}

TEST(ConfigTest, ValidateRejectsBadFields) {
  SimulationConfig c = SmallConfig();
  c.dbsize = 0;
  EXPECT_FALSE(c.Validate().ok());

  c = SmallConfig();
  c.upd_perc = -0.1;
  EXPECT_FALSE(c.Validate().ok());

  c = SmallConfig();
  c.queries_per_batch = 0;
  c.aggregate_queries_per_batch = 0;
  EXPECT_FALSE(c.Validate().ok());

  c = SmallConfig();
  c.query.selectivity = 0.0;
  EXPECT_FALSE(c.Validate().ok());

  c = SmallConfig();
  c.distribution.domain_hi = c.distribution.domain_lo;
  EXPECT_FALSE(c.Validate().ok());
}

TEST(ConfigTest, BatchInsertCountRoundsAndFloorsAtOne) {
  SimulationConfig c = SmallConfig();
  c.dbsize = 1000;
  c.upd_perc = 0.2;
  EXPECT_EQ(c.BatchInsertCount(), 200u);
  c.upd_perc = 0.0001;
  EXPECT_EQ(c.BatchInsertCount(), 1u);  // floor
  c.upd_perc = 0.8;
  EXPECT_EQ(c.BatchInsertCount(), 800u);
}

// -------------------------------------------------------------- Simulator

TEST(SimulatorTest, MakeRejectsInvalidConfig) {
  SimulationConfig c = SmallConfig();
  c.dbsize = 0;
  EXPECT_FALSE(Simulator::Make(c).ok());
}

TEST(SimulatorTest, StepBeforeInitializeFails) {
  auto sim = Simulator::Make(SmallConfig()).value();
  EXPECT_EQ(sim->StepBatch().status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(SimulatorTest, DoubleInitializeFails) {
  auto sim = Simulator::Make(SmallConfig()).value();
  ASSERT_TRUE(sim->Initialize().ok());
  EXPECT_EQ(sim->Initialize().code(), StatusCode::kFailedPrecondition);
}

TEST(SimulatorTest, BudgetHoldsEveryRound) {
  auto sim = Simulator::Make(SmallConfig()).value();
  ASSERT_TRUE(sim->Initialize().ok());
  EXPECT_EQ(sim->table().num_active(), 200u);
  for (int b = 1; b <= 5; ++b) {
    const BatchMetrics m = sim->StepBatch().value();
    EXPECT_EQ(m.batch, static_cast<uint32_t>(b));
    EXPECT_EQ(m.active, 200u);
    EXPECT_EQ(m.inserted, 40u);
    EXPECT_EQ(sim->table().num_active(), 200u);
  }
  // Oracle saw everything: 200 + 5 * 40.
  EXPECT_EQ(sim->oracle().size(), 400u);
}

TEST(SimulatorTest, PrecisionIsInUnitIntervalAndDecays) {
  SimulationConfig c = SmallConfig();
  c.upd_perc = 0.8;
  c.num_batches = 8;
  auto result = Simulator::Make(c).value()->Run();
  ASSERT_TRUE(result.ok());
  const auto& batches = result->batches;
  ASSERT_EQ(batches.size(), 8u);
  for (const auto& m : batches) {
    EXPECT_GE(m.mean_pf, 0.0);
    EXPECT_LE(m.mean_pf, 1.0);
    EXPECT_GE(m.error_margin, 0.0);
    EXPECT_LE(m.error_margin, 1.0);
  }
  // More history forgotten -> lower precision at the end than the start.
  EXPECT_LT(batches.back().mean_pf, batches.front().mean_pf);
}

TEST(SimulatorTest, DeterministicAcrossRuns) {
  const SimulationConfig c = SmallConfig();
  auto r1 = Simulator::Make(c).value()->Run().value();
  auto r2 = Simulator::Make(c).value()->Run().value();
  ASSERT_EQ(r1.batches.size(), r2.batches.size());
  for (size_t i = 0; i < r1.batches.size(); ++i) {
    EXPECT_DOUBLE_EQ(r1.batches[i].mean_pf, r2.batches[i].mean_pf);
    EXPECT_DOUBLE_EQ(r1.batches[i].avg_rf, r2.batches[i].avg_rf);
    EXPECT_EQ(r1.batches[i].forgotten_total, r2.batches[i].forgotten_total);
  }
  ASSERT_EQ(r1.batch_retention.size(), r2.batch_retention.size());
  for (size_t i = 0; i < r1.batch_retention.size(); ++i) {
    EXPECT_DOUBLE_EQ(r1.batch_retention[i], r2.batch_retention[i]);
  }
}

TEST(SimulatorTest, ParallelBatchLoopMatchesSerial) {
  // ExecOptions-routed parallelism: the batch loop's range and aggregate
  // queries run on the morsel engine, and every reported metric must be
  // identical to the serial run (range precision is count-based;
  // aggregates here are AVG over identical result sets). The table must
  // span more than one default-size morsel (> 65536 rows), or PoolFor
  // stays serial and the parallel dispatch is never exercised.
  SimulationConfig serial = SmallConfig();
  serial.dbsize = 70'000;
  serial.num_batches = 3;
  serial.queries_per_batch = 20;
  serial.aggregate_queries_per_batch = 5;
  SimulationConfig parallel = serial;
  parallel.parallelism = 4;

  auto rs = Simulator::Make(serial).value()->Run().value();
  auto rp = Simulator::Make(parallel).value()->Run().value();
  ASSERT_EQ(rp.batches.size(), rs.batches.size());
  for (size_t i = 0; i < rs.batches.size(); ++i) {
    EXPECT_DOUBLE_EQ(rp.batches[i].mean_pf, rs.batches[i].mean_pf);
    EXPECT_DOUBLE_EQ(rp.batches[i].avg_rf, rs.batches[i].avg_rf);
    EXPECT_DOUBLE_EQ(rp.batches[i].avg_mf, rs.batches[i].avg_mf);
    EXPECT_EQ(rp.batches[i].forgotten_total, rs.batches[i].forgotten_total);
    EXPECT_NEAR(rp.batches[i].aggregate_precision,
                rs.batches[i].aggregate_precision, 1e-9);
  }
}

// One simulator run, stepped batch by batch, with what the engine
// comparison needs from it.
struct EngineRun {
  std::vector<BatchMetrics> batches;
  std::vector<uint8_t> table_image;  ///< CheckpointTable of the final table.
  ExecutorStats executor;
};

// Runs `config` with its durable files under a fresh temp directory
// `dir_name`. With a vacuum deadline, every batch must record a passing
// attestation.
void RunBatches(SimulationConfig config, const std::string& dir_name,
                EngineRun* run) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / dir_name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  if (config.checkpoint_every_n_batches > 0) {
    config.checkpoint_dir = (dir / "ckpt").string();
  }
  if (config.storage_backend == StorageBackend::kMapped) {
    config.storage_dir = (dir / "storage").string();
  }
  {
    auto made = Simulator::Make(config);
    ASSERT_TRUE(made.ok()) << made.status().ToString();
    Simulator& sim = *made.value();
    ASSERT_TRUE(sim.Initialize().ok());
    for (uint32_t b = 1; b <= config.num_batches; ++b) {
      StatusOr<BatchMetrics> step = sim.StepBatch();
      ASSERT_TRUE(step.ok()) << step.status().ToString();
      run->batches.push_back(step.value());
      if (config.vacuum_max_age_batches == 0) continue;
      const std::vector<obs::SlaPolicySnapshot> sla = sim.sla().Snapshot();
      ASSERT_EQ(sla.size(), 1u);
      EXPECT_EQ(sla[0].attestation.batch, sim.table().current_batch());
      EXPECT_TRUE(sla[0].attestation.passed) << "batch " << b;
    }
    ASSERT_TRUE(sim.FlushCheckpoints().ok());
    run->table_image = CheckpointTable(sim.table());
    run->executor = sim.executor().stats();
  }
  std::filesystem::remove_all(dir);
}

// The default engine against the scalar oracle: every batch metric is
// bit-identical except the two aggregate fields, where the vectorized
// fold's plain sum/n AVG differs from the scalar Welford mean in the last
// bits; the final table (access counts and scrubbed rows included) and
// the executor's counters are identical.
void ExpectDefaultMatchesScalar(const SimulationConfig& config,
                                const std::string& dir_name) {
  SimulationConfig scalar = config;
  scalar.engine = Engine::kScalar;
  EngineRun oracle;
  EngineRun fast;
  RunBatches(scalar, dir_name + "_scalar", &oracle);
  RunBatches(config, dir_name + "_default", &fast);

  ASSERT_EQ(fast.batches.size(), oracle.batches.size());
  for (size_t i = 0; i < oracle.batches.size(); ++i) {
    const BatchMetrics& o = oracle.batches[i];
    const BatchMetrics& f = fast.batches[i];
    SCOPED_TRACE("batch " + std::to_string(o.batch));
    EXPECT_EQ(f.batch, o.batch);
    EXPECT_EQ(f.inserted, o.inserted);
    EXPECT_EQ(f.forgotten_total, o.forgotten_total);
    EXPECT_EQ(f.active, o.active);
    EXPECT_EQ(f.avg_rf, o.avg_rf);
    EXPECT_EQ(f.avg_mf, o.avg_mf);
    EXPECT_EQ(f.mean_pf, o.mean_pf);
    EXPECT_EQ(f.error_margin, o.error_margin);
    EXPECT_NEAR(f.aggregate_precision, o.aggregate_precision, 1e-9);
    EXPECT_NEAR(f.aggregate_rel_error, o.aggregate_rel_error, 1e-9);
  }
  EXPECT_EQ(fast.table_image, oracle.table_image);
  EXPECT_EQ(fast.executor.queries, oracle.executor.queries);
  EXPECT_EQ(fast.executor.full_scans, oracle.executor.full_scans);
  EXPECT_EQ(fast.executor.brin_scans, oracle.executor.brin_scans);
  EXPECT_EQ(fast.executor.btree_probes, oracle.executor.btree_probes);
  EXPECT_EQ(fast.executor.rows_examined, oracle.executor.rows_examined);
  EXPECT_EQ(fast.executor.rows_returned, oracle.executor.rows_returned);
}

TEST(SimulatorTest, VectorizedDefaultMatchesScalarOracle) {
  EXPECT_EQ(SimulationConfig{}.engine, Engine::kVectorized);
  EXPECT_EQ(ExecOptions{}.engine, Engine::kVectorized);

  // Query-dominant rot loop: forgotten rows stay in storage, queries feed
  // access counts back to the policy, and aggregates run over ranges.
  SimulationConfig rot = SmallConfig();
  rot.dbsize = 3000;
  rot.upd_perc = 0.1;
  rot.num_batches = 8;
  rot.queries_per_batch = 30;
  rot.aggregate_queries_per_batch = 5;
  rot.aggregate_over_range = true;
  rot.record_access = true;
  rot.policy.kind = PolicyKind::kRot;
  rot.backend = BackendKind::kMarkOnly;
  ExpectDefaultMatchesScalar(rot, "amnesia_sim_engine_rot");

  // Privacy path: FIFO deletes on mapped partitions under a vacuum
  // deadline, journaled, checkpointed and attested in the audit ledger.
  SimulationConfig vacuum = SmallConfig();
  vacuum.dbsize = 1500;
  vacuum.upd_perc = 0.3;
  vacuum.num_batches = 8;
  vacuum.queries_per_batch = 20;
  vacuum.record_access = false;
  vacuum.policy.kind = PolicyKind::kFifo;
  vacuum.backend = BackendKind::kDelete;
  vacuum.storage_backend = StorageBackend::kMapped;
  vacuum.partition_rows = 256;
  vacuum.log_format = LogFormat::kSegmented;
  vacuum.checkpoint_every_n_batches = 3;
  vacuum.checkpoint_retention = 2;
  vacuum.audit_ledger = true;
  vacuum.vacuum_max_age_batches = 4;
  ExpectDefaultMatchesScalar(vacuum, "amnesia_sim_engine_vacuum");

  // Write path: uniform deletes turn the table over every batch and every
  // round compacts, so each batch's queries read a live list rebuilt from
  // renumbered rows; journaled on a segmented log, checkpointed every 3
  // batches with retention 2.
  SimulationConfig churn = SmallConfig();
  churn.dbsize = 1000;
  churn.upd_perc = 1.0;
  churn.num_batches = 8;
  churn.queries_per_batch = 20;
  churn.record_access = false;
  churn.policy.kind = PolicyKind::kUniform;
  churn.backend = BackendKind::kDelete;
  churn.compact_every_n_rounds = 1;
  churn.log_format = LogFormat::kSegmented;
  churn.checkpoint_every_n_batches = 3;
  churn.checkpoint_retention = 2;
  ExpectDefaultMatchesScalar(churn, "amnesia_sim_engine_churn");
}

TEST(ConfigTest, ValidateRejectsNonPositiveParallelism) {
  SimulationConfig c = SmallConfig();
  c.parallelism = 0;
  EXPECT_FALSE(c.Validate().ok());
  c.parallelism = 4;
  EXPECT_TRUE(c.Validate().ok());
}

TEST(SimulatorTest, DifferentSeedsDiverge) {
  SimulationConfig c1 = SmallConfig();
  SimulationConfig c2 = SmallConfig();
  c2.seed = 8888;
  auto r1 = Simulator::Make(c1).value()->Run().value();
  auto r2 = Simulator::Make(c2).value()->Run().value();
  bool any_diff = false;
  for (size_t i = 0; i < r1.batches.size(); ++i) {
    if (r1.batches[i].avg_rf != r2.batches[i].avg_rf) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST(SimulatorTest, RetentionMapsShapeAndBounds) {
  auto result = Simulator::Make(SmallConfig()).value()->Run().value();
  ASSERT_EQ(result.batch_retention.size(), 6u);  // batch 0 + 5 updates
  for (double v : result.batch_retention) {
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 1.0);
  }
  EXPECT_EQ(result.timeline_retention.size(), 100u);
}

TEST(SimulatorTest, AggregateMetricsPopulated) {
  SimulationConfig c = SmallConfig();
  c.aggregate_queries_per_batch = 20;
  c.aggregate_over_range = false;
  auto result = Simulator::Make(c).value()->Run().value();
  for (const auto& m : result.batches) {
    EXPECT_GE(m.aggregate_precision, 0.0);
    EXPECT_LE(m.aggregate_precision, 1.0);
    EXPECT_GE(m.aggregate_rel_error, 0.0);
  }
}

TEST(SimulatorTest, ExecutorStatsAccumulate) {
  auto sim = Simulator::Make(SmallConfig()).value();
  auto result = sim->Run().value();
  EXPECT_EQ(result.executor.queries, 5u * 50u);
  EXPECT_EQ(result.controller.rounds, 5u);
}

TEST(SimulatorTest, IndexPlanProducesSamePrecisionAsScan) {
  SimulationConfig scan_cfg = SmallConfig();
  SimulationConfig btree_cfg = SmallConfig();
  btree_cfg.plan = PlanKind::kBTreeProbe;
  auto r_scan = Simulator::Make(scan_cfg).value()->Run().value();
  auto r_btree = Simulator::Make(btree_cfg).value()->Run().value();
  for (size_t i = 0; i < r_scan.batches.size(); ++i) {
    EXPECT_DOUBLE_EQ(r_scan.batches[i].mean_pf, r_btree.batches[i].mean_pf);
  }
  EXPECT_GT(r_btree.executor.btree_probes, 0u);
}

TEST(SimulatorTest, SummaryBackendRunsAndFolds) {
  SimulationConfig c = SmallConfig();
  c.backend = BackendKind::kSummary;
  c.aggregate_queries_per_batch = 10;
  auto sim = Simulator::Make(c).value();
  auto result = sim->Run().value();
  EXPECT_GT(sim->summary_store().Total(0).count, 0u);
  EXPECT_EQ(sim->summary_store().Total(0).count,
            result.controller.summary_folds);
}

TEST(SimulatorTest, ColdBackendParksEvictions) {
  SimulationConfig c = SmallConfig();
  c.backend = BackendKind::kColdStorage;
  auto sim = Simulator::Make(c).value();
  auto result = sim->Run().value();
  EXPECT_EQ(sim->cold_store().size(), result.controller.cold_evictions);
  EXPECT_GT(sim->cold_store().size(), 0u);
}

TEST(SimulatorTest, DeleteBackendCompactsPhysically) {
  SimulationConfig c = SmallConfig();
  c.backend = BackendKind::kDelete;
  auto sim = Simulator::Make(c).value();
  auto result = sim->Run().value();
  EXPECT_GT(result.controller.compactions, 0u);
  EXPECT_EQ(sim->table().num_rows(), sim->table().num_active());
  // Precision is still measurable because the oracle never forgets.
  EXPECT_LT(result.batches.back().mean_pf, 1.0);
}

TEST(SimulatorTest, EveryPolicyRunsEndToEnd) {
  for (PolicyKind kind : AllPolicyKinds()) {
    SimulationConfig c = SmallConfig();
    c.policy.kind = kind;
    c.num_batches = 3;
    auto result = Simulator::Make(c).value()->Run();
    ASSERT_TRUE(result.ok()) << PolicyKindToString(kind) << ": "
                             << result.status().ToString();
    EXPECT_EQ(result->batches.back().active, c.dbsize);
  }
}


TEST(SimulatorTest, SteppingContinuesAfterRun) {
  // Run() is not terminal: the stepwise API can extend a finished run,
  // and the budget keeps holding.
  auto sim = Simulator::Make(SmallConfig()).value();
  ASSERT_TRUE(sim->Run().ok());
  const BatchMetrics extra = sim->StepBatch().value();
  EXPECT_EQ(extra.batch, 6u);  // continues the 5-batch run
  EXPECT_EQ(extra.active, 200u);
}

TEST(SimulatorTest, MutableAccessorsExposeLiveComponents) {
  auto sim = Simulator::Make(SmallConfig()).value();
  ASSERT_TRUE(sim->Initialize().ok());
  // Externally forgetting a tuple is visible through the same table the
  // simulator queries.
  Table& t = sim->mutable_table();
  ASSERT_TRUE(t.Forget(0).ok());
  EXPECT_EQ(sim->table().num_active(), 199u);
  // The next round's amnesia only needs to forget 39 more to re-balance:
  // insert 40 -> 239 active -> budget 200.
  const BatchMetrics m = sim->StepBatch().value();
  EXPECT_EQ(m.active, 200u);
}

TEST(SimulatorTest, PolicyAccessorReflectsConfiguredKind) {
  SimulationConfig c = SmallConfig();
  c.policy.kind = PolicyKind::kArea;
  auto sim = Simulator::Make(c).value();
  EXPECT_EQ(sim->policy().kind(), PolicyKind::kArea);
}

// ------------------------------------------------------------ Experiments

TEST(ExperimentsTest, Figure1MatchesPaperParameters) {
  const SimulationConfig c = Figure1Config(PolicyKind::kFifo);
  EXPECT_EQ(c.dbsize, 1000u);
  EXPECT_DOUBLE_EQ(c.upd_perc, 0.20);
  EXPECT_EQ(c.num_batches, 10u);
  EXPECT_EQ(c.policy.kind, PolicyKind::kFifo);
  EXPECT_TRUE(c.Validate().ok());
}

TEST(ExperimentsTest, Figure2UsesRotAndDistribution) {
  const SimulationConfig c = Figure2Config(DistributionKind::kZipf);
  EXPECT_EQ(c.policy.kind, PolicyKind::kRot);
  EXPECT_EQ(c.distribution.kind, DistributionKind::kZipf);
  EXPECT_EQ(c.queries_per_batch, 1000u);
  EXPECT_TRUE(c.Validate().ok());
}

TEST(ExperimentsTest, Figure3HasHighVolatilityAndPaperSelectivity) {
  const SimulationConfig c =
      Figure3Config(DistributionKind::kNormal, PolicyKind::kArea);
  EXPECT_DOUBLE_EQ(c.upd_perc, 0.80);
  EXPECT_DOUBLE_EQ(c.query.selectivity, 0.02);
  EXPECT_EQ(c.queries_per_batch, 1000u);
  EXPECT_TRUE(c.Validate().ok());
}

TEST(ExperimentsTest, Section43ExtendsRunAndEnablesAggregates) {
  const SimulationConfig c =
      Section43Config(DistributionKind::kUniform, PolicyKind::kRot, true);
  EXPECT_EQ(c.num_batches, 20u);
  EXPECT_GT(c.aggregate_queries_per_batch, 0u);
  EXPECT_TRUE(c.aggregate_over_range);
  EXPECT_TRUE(c.Validate().ok());
}

}  // namespace
}  // namespace amnesia
