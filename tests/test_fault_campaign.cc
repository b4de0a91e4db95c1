// eval/fault_campaign: the fault-injection dual of the mutation campaigns.
// The scenario matrix must be deterministic, results byte-identical across
// thread counts, execution engines and shard/merge round trips, and the
// paper-shape claim must hold: on every corpus device the CDevil driver
// detects strictly more injected hardware faults than its classic-C twin.
// Scenarios the baseline's access census says never fire are classified
// without a boot; the census differential checks that against real boots.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <utility>
#include <vector>

#include "corpus/drivers.h"
#include "corpus/specs.h"
#include "devil/compiler.h"
#include "eval/campaign_spec.h"
#include "eval/device_bindings.h"
#include "eval/fault_campaign.h"
#include "eval/merge.h"
#include "eval/report.h"
#include "eval/shard.h"
#include "fault_boot.h"
#include "hw/fault_injection.h"
#include "minic/program.h"
#include "support/parallel.h"

namespace {

using eval::FaultCampaignConfig;
using eval::FaultCampaignResult;
using eval::FaultOutcome;
using eval::ShardBundle;
using eval::ShardSpec;

/// The C and CDevil fault configs for one corpus device, as the CLI builds
/// them (default trigger offsets, full scenario matrix).
std::pair<FaultCampaignConfig, FaultCampaignConfig> device_fault_configs(
    const corpus::CampaignDrivers& drivers, unsigned threads) {
  eval::DeviceBinding binding = eval::binding_for(drivers.device);

  FaultCampaignConfig c;
  c.base.driver = drivers.c_driver();
  c.base.device = binding;
  c.base.threads = threads;

  auto spec = devil::compile_spec(drivers.spec_file, drivers.spec(),
                                  devil::CodegenMode::kDebug);
  EXPECT_TRUE(spec.ok()) << spec.diags.render();
  FaultCampaignConfig d;
  d.base.stubs = spec.stubs;
  d.base.driver = drivers.cdevil_driver();
  d.base.device = binding;
  d.base.is_cdevil = true;
  d.base.threads = threads;
  return {std::move(c), std::move(d)};
}

FaultCampaignConfig busmouse_c_fault_config(unsigned threads = 1) {
  FaultCampaignConfig cfg;
  cfg.base.driver = corpus::c_busmouse_driver();
  cfg.base.device = eval::busmouse_binding();
  cfg.base.threads = threads;
  return cfg;
}

void expect_same_result(const FaultCampaignResult& a,
                        const FaultCampaignResult& b,
                        const std::string& label) {
  EXPECT_EQ(a.device, b.device) << label;
  EXPECT_EQ(a.entry, b.entry) << label;
  EXPECT_EQ(a.total_scenarios, b.total_scenarios) << label;
  EXPECT_EQ(a.sampled_scenarios, b.sampled_scenarios) << label;
  EXPECT_EQ(a.triggered_scenarios, b.triggered_scenarios) << label;
  EXPECT_EQ(a.clean_fingerprint, b.clean_fingerprint) << label;
  EXPECT_EQ(a.tally.scenarios, b.tally.scenarios) << label;
  EXPECT_EQ(a.tally.ports, b.tally.ports) << label;
  EXPECT_EQ(a.tally.total, b.tally.total) << label;
  ASSERT_EQ(a.records.size(), b.records.size()) << label;
  for (size_t i = 0; i < a.records.size(); ++i) {
    const std::string at = label + " record #" + std::to_string(i);
    EXPECT_EQ(a.records[i].scenario_index, b.records[i].scenario_index) << at;
    EXPECT_EQ(a.records[i].plan.port, b.records[i].plan.port) << at;
    EXPECT_EQ(a.records[i].plan.kind, b.records[i].plan.kind) << at;
    EXPECT_EQ(a.records[i].plan.after, b.records[i].plan.after) << at;
    EXPECT_EQ(a.records[i].plan.mask, b.records[i].plan.mask) << at;
    EXPECT_EQ(a.records[i].outcome, b.records[i].outcome) << at;
    EXPECT_EQ(a.records[i].detail, b.records[i].detail) << at;
    EXPECT_EQ(a.records[i].triggered, b.records[i].triggered) << at;
  }
}

// ---------------------------------------------------------------------------
// Scenario matrix and sampling.
// ---------------------------------------------------------------------------

TEST(FaultMatrix, EnumeratesEveryPortKindMaskAndTrigger) {
  eval::DeviceBinding binding = eval::busmouse_binding();
  std::vector<uint32_t> triggers = {0, 1, 2, 7};
  auto plans = eval::fault_scenario_matrix(binding, triggers);
  // Per port: 3 bit-kinds x 8 masks x |T| + 3 whole-port kinds x |T|.
  EXPECT_EQ(plans.size(), binding.port_span * (3 * 8 + 3) * triggers.size());
  // Every plan targets a port inside the device window.
  std::set<uint32_t> ports;
  for (const auto& p : plans) {
    EXPECT_GE(p.port, binding.port_base);
    EXPECT_LT(p.port, binding.port_base + binding.port_span);
    ports.insert(p.port);
  }
  EXPECT_EQ(ports.size(), binding.port_span);
  // The enumeration is deterministic (the artifact contract).
  auto again = eval::fault_scenario_matrix(binding, triggers);
  ASSERT_EQ(again.size(), plans.size());
  for (size_t i = 0; i < plans.size(); ++i) {
    EXPECT_EQ(again[i].port, plans[i].port) << i;
    EXPECT_EQ(again[i].kind, plans[i].kind) << i;
    EXPECT_EQ(again[i].after, plans[i].after) << i;
    EXPECT_EQ(again[i].mask, plans[i].mask) << i;
  }
}

TEST(FaultMatrix, ScenarioSeedIgnoresDriverText) {
  // The C and CDevil campaigns of one device must sample identical
  // scenario subsets — the seed folds device shape only, never the driver.
  auto [c, d] = device_fault_configs(corpus::campaign_drivers().front(), 1);
  EXPECT_EQ(eval::fault_scenario_seed(c), eval::fault_scenario_seed(d));
  // But it does react to the device shape and the fault knobs.
  FaultCampaignConfig other = c;
  other.triggers.push_back(31);
  EXPECT_NE(eval::fault_scenario_seed(c), eval::fault_scenario_seed(other));
}

// ---------------------------------------------------------------------------
// Determinism: threads, engines, shards.
// ---------------------------------------------------------------------------

TEST(FaultCampaign, ThreadCountDoesNotChangeResults) {
  auto res1 = eval::run_fault_campaign(busmouse_c_fault_config(1));
  auto res4 = eval::run_fault_campaign(busmouse_c_fault_config(4));
  expect_same_result(res1, res4, "threads 1 vs 4");
  EXPECT_GT(res1.sampled_scenarios, 0u);
  EXPECT_GT(res1.triggered_scenarios, 0u);
}

TEST(FaultCampaign, EnginesAgreeExactly) {
  auto vm_cfg = busmouse_c_fault_config();
  auto walker_cfg = busmouse_c_fault_config();
  walker_cfg.base.engine = minic::ExecEngine::kTreeWalker;
  auto vm = eval::run_fault_campaign(vm_cfg);
  auto walker = eval::run_fault_campaign(walker_cfg);
  expect_same_result(vm, walker, "vm vs walker");
}

TEST(FaultCampaign, ShardsMergeToTheSingleProcessResult) {
  auto cfg = busmouse_c_fault_config();
  auto single = eval::run_fault_campaign(cfg);
  // 3-way shard, JSON round-tripping every artifact, shards at different
  // thread counts (results are thread-invariant by contract).
  std::vector<ShardBundle> bundles;
  for (unsigned i = 1; i <= 3; ++i) {
    auto shard_cfg = cfg;
    shard_cfg.base.threads = i;
    ShardBundle bundle;
    bundle.shard = ShardSpec{i, 3};
    bundle.fault_campaigns.push_back(
        eval::run_fault_campaign_shard(shard_cfg, "C", bundle.shard));
    bundles.push_back(
        eval::parse_shard_bundle(eval::serialize_shard_bundle(bundle)));
  }
  auto merged = eval::merge_fault_bundles(bundles);
  ASSERT_EQ(merged.size(), 1u);
  expect_same_result(merged.front().result, single, "3-shard merge");
  // Rendered tables are byte-identical too.
  EXPECT_EQ(eval::render_fault_table("T", merged.front().result),
            eval::render_fault_table("T", single));
}

TEST(FaultCampaign, SerializationIsByteStable) {
  auto cfg = busmouse_c_fault_config();
  ShardBundle bundle;
  bundle.shard = ShardSpec{1, 2};
  bundle.fault_campaigns.push_back(
      eval::run_fault_campaign_shard(cfg, "C", bundle.shard));
  std::string text = eval::serialize_shard_bundle(bundle);
  // Round trip: parse and re-serialize yields identical bytes.
  EXPECT_EQ(eval::serialize_shard_bundle(eval::parse_shard_bundle(text)),
            text);
}

TEST(FaultCampaign, MergeRejectsMismatchedFingerprints) {
  auto cfg = busmouse_c_fault_config();
  auto other = cfg;
  other.triggers = {0, 3};
  ShardBundle b1;
  b1.shard = ShardSpec{1, 2};
  b1.fault_campaigns.push_back(
      eval::run_fault_campaign_shard(cfg, "C", b1.shard));
  ShardBundle b2;
  b2.shard = ShardSpec{2, 2};
  b2.fault_campaigns.push_back(
      eval::run_fault_campaign_shard(other, "C", b2.shard));
  try {
    (void)eval::merge_fault_bundles({b1, b2});
    FAIL() << "expected fingerprint mismatch rejection";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("fingerprint mismatch"),
              std::string::npos)
        << e.what();
  }
}

TEST(FaultCampaign, FingerprintPinsFaultKnobs) {
  auto cfg = busmouse_c_fault_config();
  auto fp = eval::fault_campaign_fingerprint(cfg);
  auto other = cfg;
  other.sample_percent = 50;
  EXPECT_NE(eval::fault_campaign_fingerprint(other), fp);
  other = cfg;
  other.triggers = {0};
  EXPECT_NE(eval::fault_campaign_fingerprint(other), fp);
  other = cfg;
  other.base.step_budget = 12345;
  EXPECT_NE(eval::fault_campaign_fingerprint(other), fp);
  other = cfg;
  other.base.threads = 8;  // thread count never changes results
  EXPECT_EQ(eval::fault_campaign_fingerprint(other), fp);
}

// ---------------------------------------------------------------------------
// Outcome semantics and the paper shape.
// ---------------------------------------------------------------------------

TEST(FaultCampaign, UntriggeredScenariosBootClean) {
  // The campaign writes untriggered records from the baseline census
  // without booting them; booting each one through a real injector must
  // give the same record: never fired, clean, the baseline's steps.
  const FaultCampaignConfig cfg = busmouse_c_fault_config();
  auto res = eval::run_fault_campaign(cfg);
  const size_t untriggered = fault_boot::expect_records_reboot_identically(
      cfg, res, [](const eval::FaultRecord& rec) { return !rec.triggered; });
  for (const auto& rec : res.records) {
    if (rec.triggered) continue;
    EXPECT_EQ(rec.outcome, FaultOutcome::kCleanBoot) << rec.plan.describe();
    EXPECT_EQ(rec.steps, res.baseline_steps) << rec.plan.describe();
  }
  // The busmouse boot touches only a few accesses per port, so the late
  // trigger offsets must produce genuinely untriggered scenarios.
  EXPECT_GT(untriggered, 0u);
  EXPECT_EQ(res.triggered_scenarios + untriggered, res.sampled_scenarios);
}

// ---------------------------------------------------------------------------
// The access census. The campaign boots only the scenarios whose fault
// fires on the baseline's traffic and writes the others' records from the
// baseline. This differential checks the census's prediction against the
// real injector at every trigger boundary the census saw.
// ---------------------------------------------------------------------------

struct CensusCase {
  std::string label;
  FaultCampaignConfig cfg;
};

/// Every corpus binding and driver on the VM, and the busmouse bindings on
/// the walker too, as the CLI configures them.
std::vector<CensusCase> census_cases() {
  std::vector<CensusCase> cases;
  for (minic::ExecEngine engine :
       {minic::ExecEngine::kBytecodeVm, minic::ExecEngine::kTreeWalker}) {
    eval::CampaignSpec spec;
    spec.kind = eval::CampaignKind::kFault;
    spec.engine = engine;
    spec.threads = 0;
    for (const auto& drivers : eval::campaign_spec_corpus(spec)) {
      const std::string device = drivers.device;
      if (engine == minic::ExecEngine::kTreeWalker &&
          device.rfind("busmouse", 0) != 0) {
        continue;
      }
      const std::string at =
          device + " on " + minic::exec_engine_name(engine) + " ";
      eval::DeviceFaultConfigs cfgs = eval::fault_configs_for(spec, drivers);
      cases.push_back({at + "C", std::move(cfgs.c)});
      cases.push_back({at + "CDevil", std::move(cfgs.cdevil)});
    }
  }
  return cases;
}

struct BoundaryPlan {
  hw::FaultPlan plan;
  bool fires = false;
};

/// For every port of the binding's window, every fault kind and the
/// binding's IRQ line: a plan at `after = count` (must not fire) and, when
/// the census counted any, one at `after = count - 1` (must fire). Plus the
/// same on a port past the window and on a line that never raised, which
/// the census never saw.
std::vector<BoundaryPlan> boundary_plans(const hw::AccessCensus& census,
                                         const eval::DeviceBinding& binding) {
  std::vector<BoundaryPlan> out;
  auto straddle = [&](uint32_t port, hw::FaultKind kind, uint32_t mask,
                      uint32_t value) {
    hw::FaultPlan plan;
    plan.port = port;
    plan.kind = kind;
    plan.mask = mask;
    plan.value = value;
    const uint64_t count = census.trigger_count(plan);
    for (uint64_t after = count == 0 ? 0 : count - 1; after <= count;
         ++after) {
      plan.after = static_cast<uint32_t>(after);
      out.push_back({plan, after < count});
    }
  };
  for (uint32_t port = binding.port_base;
       port <= binding.port_base + binding.port_span; ++port) {
    straddle(port, hw::FaultKind::kStuckZero, 0x01, 0);
    straddle(port, hw::FaultKind::kStuckOne, 0x80, 0);
    straddle(port, hw::FaultKind::kFlipOnce, 0x01, 0);
    straddle(port, hw::FaultKind::kDropWrite, 0, 0);
    straddle(port, hw::FaultKind::kFloatingBus, 0, 0);
    straddle(port, hw::FaultKind::kNeverReady, 0, 0);
  }
  int unseen_line = 0;
  while (census.raises.count(unseen_line) != 0) ++unseen_line;
  for (int line : {binding.irq_line, unseen_line}) {
    if (line < 0) continue;
    const auto l = static_cast<uint32_t>(line);
    straddle(l, hw::FaultKind::kLostIrq, 0, 0);
    straddle(l, hw::FaultKind::kSpuriousIrq, 0, 0);
    straddle(l, hw::FaultKind::kIrqStorm, 0, 8);
    straddle(l, hw::FaultKind::kDelayIrq, 0, 1000);
  }
  return out;
}

TEST(FaultCensus, PredictionMatchesTheInjectorAtEveryTriggerBoundary) {
  struct Boot {
    size_t case_ix;
    BoundaryPlan boundary;
    eval::FaultRecord booted;
  };
  const std::vector<CensusCase> cases = census_cases();
  ASSERT_EQ(cases.size(), 12u);  // 4 bindings x 2 drivers VM, 2 x 2 walker
  std::vector<fault_boot::CleanDriver> drivers;
  std::vector<eval::FaultRecord> census_records;
  std::vector<int64_t> fingerprints;
  std::vector<Boot> boots;
  for (size_t c = 0; c < cases.size(); ++c) {
    SCOPED_TRACE(cases[c].label);
    const FaultCampaignConfig& cfg = cases[c].cfg;
    const FaultCampaignResult res = eval::run_fault_campaign(cfg);
    drivers.emplace_back(cfg.base);
    ASSERT_TRUE(drivers.back().ok());
    const auto census = drivers.back().census();
    ASSERT_EQ(census.run.fault, minic::FaultKind::kNone);
    ASSERT_FALSE(census.damaged);
    EXPECT_EQ(census.run.steps_used, res.baseline_steps);
    EXPECT_EQ(census.run.return_value, res.clean_fingerprint);
    fingerprints.push_back(res.clean_fingerprint);

    // The campaign's own split agrees with the census, and its
    // census-written records are the baseline's.
    const eval::FaultRecord* written = nullptr;
    for (const auto& rec : res.records) {
      EXPECT_EQ(rec.triggered, census.census.fires(rec.plan))
          << rec.plan.describe();
      if (!rec.triggered && written == nullptr) written = &rec;
    }
    ASSERT_NE(written, nullptr);
    EXPECT_EQ(written->outcome, FaultOutcome::kCleanBoot);
    EXPECT_EQ(written->steps, res.baseline_steps);
    EXPECT_TRUE(written->detail.empty());
    EXPECT_TRUE(written->trace.empty());
    census_records.push_back(*written);

    size_t firing = 0;
    size_t firing_events = 0;
    for (const BoundaryPlan& b :
         boundary_plans(census.census, cfg.base.device)) {
      firing += b.fires ? 1 : 0;
      firing_events += b.fires && b.plan.is_event_fault() ? 1 : 0;
      boots.push_back({c, b, {}});
    }
    EXPECT_GT(firing, 0u);
    EXPECT_EQ(firing_events > 0, cfg.base.device.irq_line >= 0);
  }

  support::parallel_for(boots.size(), 0, [&](size_t i) {
    Boot& b = boots[i];
    b.booted = drivers[b.case_ix].boot_plan(b.boundary.plan,
                                            fingerprints[b.case_ix]);
  });

  for (const Boot& b : boots) {
    SCOPED_TRACE(cases[b.case_ix].label);
    EXPECT_EQ(b.booted.triggered, b.boundary.fires)
        << b.boundary.plan.describe();
    if (!b.boundary.fires) {
      fault_boot::expect_same_record(census_records[b.case_ix], b.booted);
    }
  }
}

TEST(FaultCampaign, CDevilDetectsStrictlyMoreFaultsThanC) {
  // The paper-shape acceptance check, per corpus device: Devil's generated
  // checks (plus the driver's own panics) catch strictly more injected
  // hardware faults than the classic C driver notices.
  for (const auto& drivers : corpus::campaign_drivers()) {
    SCOPED_TRACE(drivers.device);
    auto [c_cfg, d_cfg] = device_fault_configs(drivers, 4);
    auto c_res = eval::run_fault_campaign(c_cfg);
    auto d_res = eval::run_fault_campaign(d_cfg);
    EXPECT_GT(c_res.triggered_scenarios, 0u);
    EXPECT_GT(d_res.triggered_scenarios, 0u);
    EXPECT_GT(d_res.tally.detected(), c_res.tally.detected())
        << "CDevil detected " << d_res.tally.detected() << " vs C "
        << c_res.tally.detected();
  }
}

}  // namespace
