#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "serve/admission.h"

namespace pinsql::serve {
namespace {

StagedBatch Batch(const std::string& tenant, uint32_t instance,
                  size_t records, size_t wire_bytes) {
  StagedBatch batch;
  batch.tenant = tenant;
  batch.instance_id = instance;
  batch.records.resize(records);
  batch.wire_bytes = wire_bytes;
  return batch;
}

AdmissionOptions TwoTenantOptions() {
  AdmissionOptions options;
  TenantQuota acme;
  acme.records_per_sec = 100.0;
  acme.record_burst = 200.0;
  acme.bytes_per_sec = 10'000.0;
  acme.byte_burst = 20'000.0;
  acme.instances = {1, 2};
  options.tenants["acme"] = acme;
  TenantQuota umbrella = acme;
  umbrella.instances = {7};
  options.tenants["umbrella"] = umbrella;
  return options;
}

TEST(AdmissionTest, UnknownTenantAndForbiddenInstance) {
  AdmissionController controller(TwoTenantOptions());
  EXPECT_FALSE(controller.KnownTenant("mallory"));
  EXPECT_TRUE(controller.KnownTenant("acme"));
  EXPECT_EQ(controller.PreAdmit("mallory", 10, 0).outcome,
            AdmitOutcome::kUnknownTenant);
  // acme may not write into umbrella's instance.
  EXPECT_EQ(controller.Enqueue(Batch("acme", 7, 1, 10), 0).outcome,
            AdmitOutcome::kForbiddenInstance);
  EXPECT_TRUE(controller.Authorized("acme", 1));
  EXPECT_FALSE(controller.Authorized("acme", 7));
}

TEST(AdmissionTest, RecordBucketRefillsContinuously) {
  AdmissionController controller(TwoTenantOptions());
  int64_t now = 0;
  // Burst capacity: 200 records admitted at t=0.
  EXPECT_EQ(controller.Enqueue(Batch("acme", 1, 200, 10), now).outcome,
            AdmitOutcome::kAdmitted);
  // Bucket empty: the next record is rejected with a sane Retry-After.
  const AdmitDecision denied =
      controller.Enqueue(Batch("acme", 1, 50, 10), now);
  EXPECT_EQ(denied.outcome, AdmitOutcome::kRateLimited);
  EXPECT_GE(denied.retry_after_ms, 1);
  EXPECT_LE(denied.retry_after_ms, 1000);  // 50 records at 100/s ≤ 500ms
  // After 500ms, 50 tokens have accrued.
  now += 500;
  EXPECT_EQ(controller.Enqueue(Batch("acme", 1, 50, 10), now).outcome,
            AdmitOutcome::kAdmitted);
  // Idle time banks at most the burst cap, never unbounded credit.
  now += 60'000;
  size_t admitted = 0;
  while (controller.Enqueue(Batch("acme", 1, 100, 10), now).outcome ==
         AdmitOutcome::kAdmitted) {
    admitted += 100;
  }
  EXPECT_EQ(admitted, 200u);  // = record_burst
  // Long-run rate: hammering for 10 simulated seconds admits ≈ rate * 10,
  // no matter how the traffic is shaped.
  size_t sustained = 0;
  for (int step = 0; step < 100; ++step) {
    now += 100;
    while (controller.Enqueue(Batch("acme", 1, 10, 10), now).outcome ==
           AdmitOutcome::kAdmitted) {
      sustained += 10;
    }
  }
  EXPECT_GE(sustained, 900u);
  EXPECT_LE(sustained, 1100u);
}

TEST(AdmissionTest, PreAdmitChargesBytesAndSheds) {
  AdmissionOptions options = TwoTenantOptions();
  options.max_pending_bytes = 50'000;
  AdmissionController controller(options);
  // Byte burst is 20'000: a single oversized declaration is rate-limited.
  EXPECT_EQ(controller.PreAdmit("acme", 20'001, 0).outcome,
            AdmitOutcome::kRateLimited);
  EXPECT_EQ(controller.PreAdmit("acme", 15'000, 0).outcome,
            AdmitOutcome::kAdmitted);
  // Global shed: stage past max_pending_bytes and PreAdmit refuses
  // *before* charging the tenant's bucket.
  ASSERT_EQ(controller.Enqueue(Batch("acme", 1, 10, 30'000), 0).outcome,
            AdmitOutcome::kAdmitted);
  ASSERT_EQ(controller.Enqueue(Batch("umbrella", 7, 10, 19'000), 0).outcome,
            AdmitOutcome::kAdmitted);
  const AdmitDecision shed = controller.PreAdmit("umbrella", 5'000, 0);
  EXPECT_EQ(shed.outcome, AdmitOutcome::kShed);
  EXPECT_GE(shed.retry_after_ms, 1);
  const auto stats = controller.TenantStats();
  EXPECT_EQ(stats.at("umbrella").dropped_shed, 1u);
  // The shed did not burn umbrella's byte tokens: after the backlog
  // drains, the same declaration is admitted.
  controller.DequeueFair(16, 0);
  EXPECT_EQ(controller.PreAdmit("umbrella", 1'000, 0).outcome,
            AdmitOutcome::kAdmitted);
}

TEST(AdmissionTest, EnqueueReappliesGlobalShedCeiling) {
  AdmissionOptions options = TwoTenantOptions();
  options.max_pending_bytes = 50'000;
  for (auto& [name, quota] : options.tenants) {
    quota.bytes_per_sec = 1e12;
    quota.byte_burst = 1e12;
    quota.records_per_sec = 1e9;
    quota.record_burst = 1e9;
  }
  AdmissionController controller(options);
  // Two in-flight requests both pass the header-time ceiling check (no
  // bytes are reserved at PreAdmit)...
  EXPECT_EQ(controller.PreAdmit("acme", 30'000, 0).outcome,
            AdmitOutcome::kAdmitted);
  EXPECT_EQ(controller.PreAdmit("umbrella", 30'000, 0).outcome,
            AdmitOutcome::kAdmitted);
  // ...but Enqueue re-applies it against actually staged bytes, so the
  // second body cannot push the pool past max_pending_bytes.
  EXPECT_EQ(controller.Enqueue(Batch("acme", 1, 10, 30'000), 0).outcome,
            AdmitOutcome::kAdmitted);
  const AdmitDecision shed =
      controller.Enqueue(Batch("umbrella", 7, 10, 30'000), 0);
  EXPECT_EQ(shed.outcome, AdmitOutcome::kShed);
  EXPECT_GE(shed.retry_after_ms, 1);
  EXPECT_EQ(controller.TenantStats().at("umbrella").dropped_shed, 1u);
  EXPECT_LE(controller.pending_bytes(), 50'000u);
  // The shed burned no record tokens: once the pool drains, the same
  // batch is admitted.
  controller.DequeueFair(16, 0);
  EXPECT_EQ(controller.Enqueue(Batch("umbrella", 7, 10, 30'000), 0).outcome,
            AdmitOutcome::kAdmitted);
}

TEST(AdmissionTest, QueueCapacityIsPerTenant) {
  AdmissionOptions options = TwoTenantOptions();
  for (auto& [name, quota] : options.tenants) {
    quota.queue_capacity_batches = 3;
    quota.records_per_sec = 1e9;
    quota.record_burst = 1e9;
  }
  AdmissionController controller(options);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(controller.Enqueue(Batch("acme", 1, 1, 10), 0).outcome,
              AdmitOutcome::kAdmitted);
  }
  EXPECT_EQ(controller.Enqueue(Batch("acme", 1, 1, 10), 0).outcome,
            AdmitOutcome::kOverQuota);
  // umbrella's queue is unaffected by acme's backlog.
  EXPECT_EQ(controller.Enqueue(Batch("umbrella", 7, 1, 10), 0).outcome,
            AdmitOutcome::kAdmitted);
  EXPECT_EQ(controller.TenantStats().at("acme").dropped_over_quota, 1u);
}

TEST(AdmissionTest, DeficitRoundRobinIsWeightedAndFair) {
  AdmissionOptions options;
  TenantQuota base;
  base.records_per_sec = 1e9;
  base.record_burst = 1e9;
  base.bytes_per_sec = 1e12;
  base.byte_burst = 1e12;
  base.queue_capacity_batches = 10'000;
  options.drr_quantum_bytes = 1000;
  TenantQuota heavy = base;
  heavy.weight = 3;
  heavy.instances = {1};
  TenantQuota light = base;
  light.weight = 1;
  light.instances = {2};
  options.tenants["heavy"] = heavy;
  options.tenants["light"] = light;
  AdmissionController controller(options);

  // Both tenants stage 200 batches of 1000 bytes each.
  for (int i = 0; i < 200; ++i) {
    ASSERT_EQ(controller.Enqueue(Batch("heavy", 1, 1, 1000), 0).outcome,
              AdmitOutcome::kAdmitted);
    ASSERT_EQ(controller.Enqueue(Batch("light", 2, 1, 1000), 0).outcome,
              AdmitOutcome::kAdmitted);
  }
  // Drain 100 batches: weight 3 vs 1 should split ~75/25.
  const auto drained = controller.DequeueFair(100, 0);
  ASSERT_EQ(drained.size(), 100u);
  size_t heavy_count = 0;
  for (const auto& batch : drained) {
    if (batch.tenant == "heavy") ++heavy_count;
  }
  EXPECT_GE(heavy_count, 70u);
  EXPECT_LE(heavy_count, 80u);
  // Nothing is lost: the rest drains eventually.
  size_t total = drained.size();
  while (true) {
    const auto more = controller.DequeueFair(64, 0);
    if (more.empty()) break;
    total += more.size();
  }
  EXPECT_EQ(total, 400u);
  EXPECT_EQ(controller.pending_bytes(), 0u);
  EXPECT_EQ(controller.pending_batches(), 0u);
}

TEST(AdmissionTest, DrainOrderIsDeterministic) {
  // Same admitted sequence → same single-threaded drain order, twice.
  const auto run = [] {
    AdmissionOptions options;
    TenantQuota quota;
    quota.records_per_sec = 1e9;
    quota.record_burst = 1e9;
    quota.bytes_per_sec = 1e12;
    quota.byte_burst = 1e12;
    quota.queue_capacity_batches = 1000;
    for (const char* name : {"a", "b", "c"}) {
      TenantQuota q = quota;
      q.instances = {static_cast<uint32_t>(name[0] - 'a' + 1)};
      options.tenants[name] = q;
    }
    AdmissionController controller(options);
    for (int i = 0; i < 30; ++i) {
      const char* name = i % 3 == 0 ? "c" : (i % 3 == 1 ? "a" : "b");
      controller.Enqueue(Batch(name, static_cast<uint32_t>(name[0] - 'a' + 1),
                               1, 100 + 10 * (i % 7)),
                         i);
    }
    std::vector<std::string> order;
    while (true) {
      const auto drained = controller.DequeueFair(7, 1000);
      if (drained.empty()) break;
      for (const auto& batch : drained) order.push_back(batch.tenant);
    }
    return order;
  };
  EXPECT_EQ(run(), run());
}

TEST(AdmissionTest, DeliveredAccounting) {
  AdmissionController controller(TwoTenantOptions());
  ASSERT_EQ(controller.Enqueue(Batch("acme", 1, 5, 100), 0).outcome,
            AdmitOutcome::kAdmitted);
  controller.NoteDelivered("acme", 5, 2);
  const auto stats = controller.TenantStats().at("acme");
  EXPECT_EQ(stats.records_admitted, 5u);
  EXPECT_EQ(stats.records_delivered, 5u);
  EXPECT_EQ(stats.samples_delivered, 2u);
}

}  // namespace
}  // namespace pinsql::serve
