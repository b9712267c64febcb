// Multi-tenant scenario engine coverage: `tenant.<name>.*` parsing and
// inheritance, the typo-rejecting validation extended to tenant
// sections, the drift generators' permutation-only contract (a drifted
// tail reorders records, never changes the multiset — so final sealed
// sums stay deterministic), and one end-to-end multi_tenant sweep point
// with a noisy neighbor (lookups = 0).

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/scenario.h"
#include "data/edgap_synthetic.h"

namespace fairidx {
namespace {

Grid MakeGrid(int rows, int cols) {
  return Grid::Create(rows, cols,
                      BoundingBox{0, 0, static_cast<double>(cols),
                                  static_cast<double>(rows)})
      .value();
}

// ----- tenant.<name>.* parsing ---------------------------------------

TEST(MultiTenantParseTest, ParsesTenantSectionsInFirstAppearanceOrder) {
  const auto config = ParseScenarioText(
      "workload = multi_tenant\n"
      "maintain_policy = auto\n"
      "seal_interval = 0.01\n"
      "tenant.la-east.seal_records = 400\n"
      "tenant.firehose.lookups = 0\n"
      "tenant.la-east.height = 6\n"
      "tenant.firehose.drift = flash_crowd\n",
      "");
  ASSERT_TRUE(config.ok()) << config.status();
  ASSERT_EQ(config->tenants.size(), 2u);
  EXPECT_EQ(config->tenants[0].name, "la-east");
  EXPECT_EQ(config->tenants[1].name, "firehose");
  using Overrides = std::vector<std::pair<std::string, std::string>>;
  EXPECT_EQ(config->tenants[0].overrides,
            (Overrides{{"seal_records", "400"}, {"height", "6"}}));
  EXPECT_EQ(config->tenants[1].overrides,
            (Overrides{{"lookups", "0"}, {"drift", "flash_crowd"}}));
  const auto east = TenantEffectiveConfig(*config, config->tenants[0]);
  ASSERT_TRUE(east.ok()) << east.status();
  EXPECT_EQ(east->stream_seal_records, 400);
  EXPECT_EQ(east->heights, std::vector<int>{6});
  const auto firehose = TenantEffectiveConfig(*config, config->tenants[1]);
  ASSERT_TRUE(firehose.ok()) << firehose.status();
  EXPECT_EQ(firehose->serve_lookups, 0);
  EXPECT_EQ(firehose->drift, "flash_crowd");
  // Unset sub-keys stay unset — they inherit at run time, so the config
  // records only what the section overrode.
  EXPECT_EQ(east->serve_zipf, config->serve_zipf);
}

// A tenant override line is its twin's top-level line applied to the
// tenant's copy: for every sub-key, the effective config of
// `tenant.t1.<sub> = v` equals the base config with `<twin> = v` set.
// The twin table is spelled out here, and every value differs from the
// default, so a sub-key that quietly moved to another top-level key
// fails.
TEST(MultiTenantParseTest, EffectiveConfigAppliesTheTwinKey) {
  struct Case {
    const char* sub;
    const char* twin;
    const char* value;
  };
  const std::vector<Case> cases = {
      {"city", "city", "houston"},
      {"algorithm", "algorithms", "median_kd_tree"},
      {"height", "heights", "5"},
      {"seed", "seeds", "9"},
      {"batch", "stream_batch", "7"},
      {"shards", "stream_shards", "3"},
      {"warmup_pct", "stream_warmup_pct", "30"},
      {"seal_records", "stream_seal_records", "11"},
      {"seal_interval", "seal_interval", "0.5"},
      {"drift_bound", "stream_refine_bound", "0.125"},
      {"retain_epochs", "retain_epochs", "4"},
      {"lookups", "serve_lookups", "0"},
      {"read_pct", "serve_read_pct", "55"},
      {"zipf", "serve_zipf", "1.5"},
      {"drift", "drift", "hotspot"},
      {"fsync", "fsync", "always"},
      {"checkpoint_interval", "checkpoint_interval", "3"},
      {"full_snapshot_interval", "full_snapshot_interval", "2"},
  };
  const std::vector<std::string> names = TenantScenarioKeyNames();
  ASSERT_EQ(names.size(), cases.size());
  for (size_t i = 0; i < cases.size(); ++i) {
    const Case& c = cases[i];
    SCOPED_TRACE(c.sub);
    EXPECT_EQ(names[i], std::string("tenant.<name>.") + c.sub);
    ScenarioConfig base;
    base.workload = ScenarioWorkload::kMultiTenant;
    ASSERT_TRUE(
        SetScenarioKey(std::string("tenant.t1.") + c.sub, c.value, &base)
            .ok());
    ASSERT_EQ(base.tenants.size(), 1u);
    const auto effective = TenantEffectiveConfig(base, base.tenants[0]);
    ASSERT_TRUE(effective.ok()) << effective.status();
    ScenarioConfig want = base;
    ASSERT_TRUE(SetScenarioKey(c.twin, c.value, &want).ok());
    EXPECT_EQ(effective->city, want.city);
    EXPECT_EQ(effective->csv, want.csv);
    EXPECT_EQ(effective->algorithms, want.algorithms);
    EXPECT_EQ(effective->heights, want.heights);
    EXPECT_EQ(effective->seeds, want.seeds);
    EXPECT_EQ(effective->stream_batch, want.stream_batch);
    EXPECT_EQ(effective->stream_shards, want.stream_shards);
    EXPECT_EQ(effective->stream_warmup_pct, want.stream_warmup_pct);
    EXPECT_EQ(effective->stream_seal_records, want.stream_seal_records);
    EXPECT_EQ(effective->seal_interval, want.seal_interval);
    EXPECT_EQ(effective->stream_refine_bound, want.stream_refine_bound);
    EXPECT_EQ(effective->retain_epochs, want.retain_epochs);
    EXPECT_EQ(effective->serve_lookups, want.serve_lookups);
    EXPECT_EQ(effective->serve_read_pct, want.serve_read_pct);
    EXPECT_EQ(effective->serve_zipf, want.serve_zipf);
    EXPECT_EQ(effective->drift, want.drift);
    EXPECT_EQ(effective->fsync, want.fsync);
    EXPECT_EQ(effective->checkpoint_interval, want.checkpoint_interval);
    EXPECT_EQ(effective->full_snapshot_interval,
              want.full_snapshot_interval);
  }
  // A city override makes the tenant generate that city, so it drops a
  // top-level csv.
  ScenarioConfig base;
  base.csv = "extract.csv";
  ASSERT_TRUE(SetScenarioKey("tenant.t1.city", "houston", &base).ok());
  const auto effective = TenantEffectiveConfig(base, base.tenants[0]);
  ASSERT_TRUE(effective.ok()) << effective.status();
  EXPECT_EQ(effective->city, "houston");
  EXPECT_TRUE(effective->csv.empty());
}

// The tenant-only rules: algorithm, height and seed name the tenant's
// one point, so each takes exactly one value, and every numeric
// sub-key rejects NaN and infinities like its top-level twin.
TEST(MultiTenantParseTest, RejectsListsAndNonFiniteTenantValues) {
  const std::string base =
      "workload = multi_tenant\nmaintain_policy = auto\n"
      "seal_interval = 0.01\n";
  for (const char* line :
       {"tenant.t1.height = 4..6", "tenant.t1.height = 4, 5",
        "tenant.t1.seed = 1, 2", "tenant.t1.algorithm = all",
        "tenant.t1.zipf = nan", "tenant.t1.drift_bound = nan",
        "tenant.t1.seal_interval = inf", "tenant.t1.zipf = -inf"}) {
    const auto config = ParseScenarioText(base + line + "\n", "");
    ASSERT_FALSE(config.ok()) << line;
    // Parse-time: the error names the offending line.
    EXPECT_NE(config.status().ToString().find("scenario line 4"),
              std::string::npos)
        << config.status().ToString();
  }
  EXPECT_TRUE(ParseScenarioText(base + "tenant.t1.height = 5\n", "").ok());
}

// Every documented tenant sub-key round-trips through the parser; a
// typo'd sub-key or tenant name is rejected with the same "unknown
// scenario key" contract the top-level parser pins.
TEST(MultiTenantParseTest, AcceptsEveryTenantSubKeyRejectsTypos) {
  for (const std::string& name : TenantScenarioKeyNames()) {
    // "tenant.<name>.sub" -> a concrete section name.
    std::string key = name;
    key.replace(key.find("<name>"), 6, "t1");
    const auto probe = ParseScenarioText(key + " = 1\n", "");
    if (!probe.ok()) {
      EXPECT_EQ(probe.status().ToString().find("unknown scenario key"),
                std::string::npos)
          << key << ": " << probe.status().ToString();
    }
    const auto mutated =
        ParseScenarioText("tenant.t1.zz_suffix = 1\n", "");
    ASSERT_FALSE(mutated.ok());
    EXPECT_NE(mutated.status().ToString().find("unknown scenario key"),
              std::string::npos);
  }
  EXPECT_FALSE(ParseScenarioText("tenant.bad/name.height = 4\n", "").ok());
  EXPECT_FALSE(ParseScenarioText("tenant.t1 = 4\n", "").ok());
}

TEST(MultiTenantParseTest, ValidationRequiresCoherentTopLevel) {
  // multi_tenant needs at least one tenant section...
  auto none = ParseScenarioText(
      "workload = multi_tenant\nmaintain_policy = auto\n", "");
  EXPECT_FALSE(none.ok());
  // ...and background maintenance (the registry owns the scheduler).
  auto caller = ParseScenarioText(
      "workload = multi_tenant\ntenant.t1.height = 4\n", "");
  EXPECT_FALSE(caller.ok());
  // Tenant sections outside multi_tenant are dead config, not a no-op.
  auto stray = ParseScenarioText(
      "workload = serve\nmaintain_policy = auto\nseal_interval = 0.01\n"
      "tenant.t1.height = 4\n",
      "");
  EXPECT_FALSE(stray.ok());
  // Per-tenant values are range-checked with the tenant named.
  auto bad = ParseScenarioText(
      "workload = multi_tenant\nmaintain_policy = auto\n"
      "seal_interval = 0.01\ntenant.t1.warmup_pct = 0\n",
      "");
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().ToString().find("tenant.t1."), std::string::npos);
  // Drift kinds are a closed set, top-level and per-tenant.
  EXPECT_FALSE(ParseScenarioText(
                   "workload = multi_tenant\nmaintain_policy = auto\n"
                   "seal_interval = 0.01\ntenant.t1.drift = sideways\n",
                   "")
                   .ok());
  EXPECT_FALSE(
      ParseScenarioText("workload = serve\nmaintain_policy = auto\n"
                        "seal_interval = 0.01\ndrift = sideways\n",
                        "")
          .ok());
  // Top-level drift requires a serving workload (a pipeline sweep has
  // no ingest tail to reorder).
  EXPECT_FALSE(ParseScenarioText("drift = hotspot\n", "").ok());
}

// ----- drift generators ----------------------------------------------

std::vector<int> TailCells(const Grid& grid, size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<int> cells;
  for (size_t i = 0; i < n; ++i) {
    cells.push_back(static_cast<int>(rng.NextBounded(grid.num_cells())));
  }
  return cells;
}

// Whatever the drift kind, the order is a PERMUTATION of the tail
// indices [warmup, n): sorting it yields the identity. This is the
// property that keeps multi-tenant final sums deterministic.
TEST(DriftOrderTest, EveryDriftKindIsAPureTailPermutation) {
  const Grid grid = MakeGrid(8, 10);
  const std::vector<int> cells = TailCells(grid, 500, 42);
  const size_t warmup = 120;
  for (const std::string& drift : {"none", "hotspot", "flash_crowd"}) {
    for (int hot_pct : {1, 20, 100}) {
      for (int window_pct : {0, 50, 100}) {
        std::vector<size_t> order = ScenarioDriftTailOrder(
            drift, hot_pct, window_pct, grid, cells, warmup);
        ASSERT_EQ(order.size(), cells.size() - warmup) << drift;
        std::vector<size_t> sorted = order;
        std::sort(sorted.begin(), sorted.end());
        for (size_t i = 0; i < sorted.size(); ++i) {
          ASSERT_EQ(sorted[i], warmup + i)
              << drift << " hot=" << hot_pct << " win=" << window_pct;
        }
      }
    }
  }
}

TEST(DriftOrderTest, IsDeterministic) {
  const Grid grid = MakeGrid(8, 10);
  const std::vector<int> cells = TailCells(grid, 400, 7);
  const auto a =
      ScenarioDriftTailOrder("hotspot", 20, 50, grid, cells, 100);
  const auto b =
      ScenarioDriftTailOrder("hotspot", 20, 50, grid, cells, 100);
  EXPECT_EQ(a, b);
}

// hotspot: the tail is banded by grid column — the hot window marches
// across the grid, so consecutive records concentrate in one vertical
// band at a time and band indices never decrease.
TEST(DriftOrderTest, HotspotMarchesAcrossColumnBands) {
  const Grid grid = MakeGrid(6, 12);
  const std::vector<int> cells = TailCells(grid, 600, 99);
  const size_t warmup = 100;
  const int hot_pct = 25;  // 4 bands.
  const auto order =
      ScenarioDriftTailOrder("hotspot", hot_pct, 50, grid, cells, warmup);
  const int bands = std::max(1, 100 / hot_pct);
  int last_band = 0;
  for (size_t index : order) {
    const int band = grid.ColOfCell(cells[index]) * bands / grid.cols();
    ASSERT_GE(band, last_band);
    last_band = band;
  }
  EXPECT_EQ(last_band, bands - 1);  // The sweep reached the far edge.
}

// flash_crowd: all hot-column records arrive in one contiguous burst at
// window_pct of the way through the cold tail, original order preserved
// on both sides of the splice.
TEST(DriftOrderTest, FlashCrowdBurstsHotColumnsMidStream) {
  const Grid grid = MakeGrid(6, 10);
  const std::vector<int> cells = TailCells(grid, 500, 1234);
  const size_t warmup = 80;
  const int hot_pct = 30;
  const int window_pct = 50;
  const auto order = ScenarioDriftTailOrder("flash_crowd", hot_pct,
                                            window_pct, grid, cells, warmup);
  const int hot_cols = std::max(1, grid.cols() * hot_pct / 100);
  const int hot_begin = (grid.cols() - hot_cols) / 2;
  const auto is_hot = [&](size_t index) {
    const int col = grid.ColOfCell(cells[index]);
    return col >= hot_begin && col < hot_begin + hot_cols;
  };
  // Hot records form exactly one contiguous run.
  size_t runs = 0;
  bool in_run = false;
  for (size_t index : order) {
    if (is_hot(index)) {
      if (!in_run) ++runs;
      in_run = true;
    } else {
      in_run = false;
    }
  }
  EXPECT_EQ(runs, 1u);
  // Relative order within each class is preserved (stable splice).
  std::vector<size_t> hot, cold;
  for (size_t index : order) (is_hot(index) ? hot : cold).push_back(index);
  EXPECT_TRUE(std::is_sorted(hot.begin(), hot.end()));
  EXPECT_TRUE(std::is_sorted(cold.begin(), cold.end()));
}

// ----- end to end ----------------------------------------------------

// One multi_tenant sweep point: one row per tenant, deterministic
// record/lookup counts, live partitions, and a pure-ingester noisy
// neighbor (lookups = 0) that still seals its whole stream.
TEST(MultiTenantEngineTest, RunsNoisyNeighborPoint) {
  ScenarioConfig config;
  config.workload = ScenarioWorkload::kMultiTenant;
  config.algorithms = {PartitionAlgorithm::kFairKdTree};
  config.heights = {4};
  config.seeds = {11};
  config.stream_batch = 50;
  config.stream_warmup_pct = 50;
  config.stream_seal_records = 100;
  // Seal-only maintenance: region counts and final ENCE are then pure
  // functions of the record multiset, so the cross-tenant assertions
  // below cannot flake on background-refine timing.
  config.stream_refine_bound = -1.0;
  config.maintain_policy = ScenarioMaintainPolicy::kAuto;
  config.seal_interval = 0.01;
  config.serve_lookups = 1500;
  config.serve_batch = 32;
  config.serve_read_pct = 80;
  config.serve_zipf = 0.99;

  config.tenants = {
      {"serving", {}},
      {"finer", {{"height", "5"}, {"drift", "hotspot"}}},
      {"firehose",
       {{"lookups", "0"}, {"seal_records", "0"}, {"drift", "flash_crowd"}}}};

  CityConfig city;
  city.num_records = 400;
  const Dataset dataset = GenerateEdgapCity(city).value();
  const auto report = RunScenario(config, dataset);
  ASSERT_TRUE(report.ok()) << report.status();
  ASSERT_EQ(report->tenant_rows.size(), 3u);

  for (const ScenarioTenantRow& row : report->tenant_rows) {
    EXPECT_EQ(row.state, "serving") << row.tenant;
    EXPECT_EQ(row.records, 400) << row.tenant;
    EXPECT_GT(row.regions, 1) << row.tenant;
    EXPECT_GE(row.final_ence, 0.0) << row.tenant;
    EXPECT_GE(row.epochs, 1) << row.tenant;
  }
  EXPECT_EQ(report->tenant_rows[0].tenant, "serving");
  EXPECT_EQ(report->tenant_rows[1].tenant, "finer");
  EXPECT_EQ(report->tenant_rows[2].tenant, "firehose");
  EXPECT_EQ(report->tenant_rows[0].lookups, 1500);
  EXPECT_EQ(report->tenant_rows[1].lookups, 1500);
  // The noisy neighbor never looks anything up; it only ingests.
  EXPECT_EQ(report->tenant_rows[2].lookups, 0);
  EXPECT_EQ(report->tenant_rows[2].p99_us, 0.0);
  EXPECT_GT(report->tenant_rows[2].ingest_rps, 0.0);
  // The finer tenant's height override produced a deeper partition.
  EXPECT_GT(report->tenant_rows[1].regions,
            report->tenant_rows[0].regions);
}

// The same point re-run yields identical deterministic columns (records,
// lookups, regions, final ENCE) — the multi-tenant engine contract that
// timing affects only latency/throughput numbers.
TEST(MultiTenantEngineTest, DeterministicColumnsAcrossReruns) {
  ScenarioConfig config;
  config.workload = ScenarioWorkload::kMultiTenant;
  config.algorithms = {PartitionAlgorithm::kFairKdTree};
  config.heights = {3};
  config.seeds = {5};
  config.stream_batch = 40;
  config.stream_warmup_pct = 50;
  config.stream_seal_records = 80;
  config.stream_refine_bound = -1.0;  // Seal-only: see above.
  config.maintain_policy = ScenarioMaintainPolicy::kAuto;
  config.seal_interval = 0.01;
  config.serve_lookups = 500;
  config.serve_batch = 16;
  config.serve_read_pct = 70;
  config.tenants = {{"a", {}}, {"b", {{"drift", "hotspot"}}}};

  CityConfig city;
  city.num_records = 300;
  const Dataset dataset = GenerateEdgapCity(city).value();
  const auto first = RunScenario(config, dataset);
  ASSERT_TRUE(first.ok()) << first.status();
  const auto second = RunScenario(config, dataset);
  ASSERT_TRUE(second.ok()) << second.status();
  ASSERT_EQ(first->tenant_rows.size(), second->tenant_rows.size());
  for (size_t i = 0; i < first->tenant_rows.size(); ++i) {
    EXPECT_EQ(first->tenant_rows[i].records,
              second->tenant_rows[i].records);
    EXPECT_EQ(first->tenant_rows[i].lookups,
              second->tenant_rows[i].lookups);
    EXPECT_EQ(first->tenant_rows[i].regions,
              second->tenant_rows[i].regions);
    EXPECT_EQ(first->tenant_rows[i].final_ence,
              second->tenant_rows[i].final_ence);
  }
}

}  // namespace
}  // namespace fairidx
