// Copyright 2026 The fairidx Authors.
// Licensed under the Apache License, Version 2.0.
//
// Declarative experiment scenarios: a key = value config-file format plus
// the engine that executes one file as a multi-algorithm x multi-height x
// multi-seed pipeline sweep. `fairidx_cli run scenario.cfg`, the examples
// and CI smoke tests all drive experiments through these structs instead
// of ad-hoc flag plumbing.
//
// File format: one `key = value` per line. `#` starts a comment, lists
// are comma-separated (heights also take `lo..hi` ranges), and
// `include = other.cfg` splices another file, resolved relative to the
// including one (later keys override). Each key's type, default and
// meaning is in docs/scenario_reference.md; its key tables are
// test-pinned against ScenarioKeyNames() and TenantScenarioKeyNames(),
// the lists the parser itself uses. `fairidx_cli stream` flags set the
// same keys (tools/cli_spec.h records which flag sets which key).
//
// `workload = multi_tenant` hosts every `tenant.<name>.*` section in ONE
// TenantRegistry (service/tenant_registry.h): per-tenant grids, stores,
// partitions and WAL namespaces under <wal_dir>/<point>/<tenant>/, one
// shared round-robin maintenance loop, one worker thread per tenant
// driving a serve-style closed loop (a tenant with lookups = 0 ingests
// flat out — the noisy neighbor). Rows report per-tenant p50/p99 lookup
// latency and ingest throughput, so cross-tenant interference is read
// straight off the table. With wal_dir set the point recovers-or-creates
// per tenant: a corrupt tenant comes back degraded (its row says so)
// while the others recover bit-identically.
//
// Unknown keys are errors (typos should not silently no-op). With the
// default `workload = pipeline`, every run in the expansion is one
// RunPipeline call; `workload = stream` instead drives each sweep point
// through the concurrent serving layer (service/fair_index_service.h):
// warmup build, batched ingest, epoch seals and drift-bounded refines.
// `workload = serve` layers the read path on top of stream: after the
// warmup build, serve_readers worker threads run a closed-loop mix of
// batched point lookups (FairIndexService::LookupMany against the
// published PointLookupIndex snapshot) and tail ingest while the
// service's background scheduler seals and refines — it requires
// maintain_policy = auto — and the row reports p50/p95/p99 LookupMany
// latency plus aggregate lookup QPS (the first 10% of each worker's
// lookup calls are treated as warmup and excluded from the percentiles).
// Independent sweep points execute on the shared ThreadPool (up to
// `threads` at once); rows always come back in height-major,
// algorithm-minor, seed-innermost order, bit-identical at any thread
// count — EXCEPT under `maintain_policy = auto` (and therefore under
// every serve run), where epoch/resplit counts (and hence final_ence,
// and all serve latency/QPS numbers) depend on background-thread timing
// by design: the scenario then exercises the hands-off serving story,
// not a reproducible measurement. Serve record and lookup counts stay
// deterministic.

#ifndef FAIRIDX_CORE_SCENARIO_H_
#define FAIRIDX_CORE_SCENARIO_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "core/experiment_config.h"
#include "core/pipeline.h"
#include "data/dataset.h"
#include "service/fair_index_service.h"

namespace fairidx {

/// What one sweep point executes.
enum class ScenarioWorkload {
  /// The batch pipeline: one RunPipeline per sweep point.
  kPipeline,
  /// The serving layer: warmup build + batched ingest through a
  /// FairIndexService per sweep point.
  kStream,
  /// The read path: warmup build, then concurrent worker threads mixing
  /// batched point lookups with tail ingest against the live service
  /// while the background scheduler maintains (requires maintain_policy
  /// = auto). Reports lookup latency percentiles and QPS.
  kServe,
  /// Multi-tenant serving: every tenant.<name>.* section becomes one
  /// tenant of a shared TenantRegistry (per-tenant grid, store,
  /// partition, WAL namespace and maintenance policy; one shared
  /// round-robin maintenance loop). One worker per tenant runs a
  /// serve-style closed loop; lookups = 0 makes that tenant a pure
  /// ingester (the noisy neighbor). Requires maintain_policy = auto.
  kMultiTenant,
};

/// Who runs stream-workload maintenance.
enum class ScenarioMaintainPolicy {
  /// The ingest loop seals/refines (the pre-scheduler behavior).
  kCaller,
  /// The service-owned background scheduler seals/refines; the loop only
  /// ingests.
  kAuto,
};

/// One tenant's override section (workload = multi_tenant). Each
/// sub-key overrides one top-level key (its twin) and everything else
/// inherits, so a scenario states the fleet-wide defaults once and each
/// tenant only what makes it different (see TenantEffectiveConfig).
/// Sections are kept in first-appearance order.
struct ScenarioTenantConfig {
  /// Unique tenant name ([A-Za-z0-9_-]+; it names the tenant's WAL
  /// namespace directory).
  std::string name;
  /// (sub-key, value) per override line, in file order.
  std::vector<std::pair<std::string, std::string>> overrides;
};

/// One parsed scenario file (after include resolution).
struct ScenarioConfig {
  std::string name;
  std::string city = "la";
  /// When non-empty, load this CSV instead of generating `city`.
  std::string csv;
  ClassifierKind classifier = ClassifierKind::kLogisticRegression;
  std::vector<PartitionAlgorithm> algorithms = {
      PartitionAlgorithm::kFairKdTree};
  std::vector<int> heights = {6};
  std::vector<uint64_t> seeds = {20240601};
  int task = 0;
  int threads = 1;
  double test_fraction = 0.25;
  double min_region_population = 0.0;
  ScenarioWorkload workload = ScenarioWorkload::kPipeline;
  /// Streaming keys (used only when workload == kStream).
  int stream_batch = 500;
  int stream_shards = 1;
  /// Drift bound for incremental maintenance; < 0 streams without
  /// refining (the warmup partition stays fixed).
  double stream_refine_bound = 0.02;
  int stream_warmup_pct = 50;
  /// Seal (and maybe refine) once this many records are pending; 0 seals
  /// after every batch.
  long long stream_seal_records = 0;
  /// Caller-driven vs background maintenance (stream workload only).
  ScenarioMaintainPolicy maintain_policy = ScenarioMaintainPolicy::kCaller;
  /// Background wall-clock seal cadence in seconds (maintain_policy =
  /// auto only; 0 leaves only the record-count cadence).
  double seal_interval = 0.0;
  /// Durability root directory (stream workload only; empty disables the
  /// WAL and checkpoints). Each sweep point uses its own subdirectory.
  std::string wal_dir;
  /// Checkpoint every this many sealed epochs (<= 0: only at create).
  long long checkpoint_interval = 8;
  /// Every Nth checkpoint is a full snapshot, the rest are delta
  /// checkpoints (<= 1: all full; see DurabilityOptions).
  long long full_snapshot_interval = 1;
  /// WAL fsync mode: "none" | "batch" | "always".
  std::string fsync = "batch";
  /// Sealed-snapshot history bound applied after each maintenance pass
  /// (0 disables retention).
  int retain_epochs = 0;
  /// Serving keys (used only when workload == kServe, which also uses
  /// the stream_* ingest keys and requires maintain_policy = auto).
  /// Concurrent worker threads issuing mixed lookup/ingest traffic.
  int serve_readers = 2;
  /// Lookup points per worker thread.
  long long serve_lookups = 50000;
  /// Points per LookupMany call (one latency sample per call).
  int serve_batch = 64;
  /// Percent of worker operations that are lookup batches (the rest
  /// ingest the stream tail; leftovers drain after the lookups finish).
  int serve_read_pct = 90;
  /// Zipf exponent for hot-cell skew in lookup points (0 = uniform).
  double serve_zipf = 0.99;
  /// Drift generator for the serving-workload ingest tail: "none" keeps
  /// arrival order, "hotspot" sweeps arrivals across the grid column by
  /// column, "flash_crowd" pulls the hot column band into one
  /// contiguous burst. Pure permutations of the tail (the record
  /// multiset is unchanged); see ScenarioDriftTailOrder.
  std::string drift = "none";
  /// hotspot: percent of the stream each sweep band occupies;
  /// flash_crowd: percent of grid columns in the hot band.
  int drift_hot_pct = 20;
  /// flash_crowd: how far into the tail (percent) the burst lands.
  int drift_window_pct = 50;
  /// Tenant sections (workload = multi_tenant), in first-appearance
  /// order.
  std::vector<ScenarioTenantConfig> tenants;
};

/// Every config key the scenario parser accepts, including aliases, in
/// the parser's own order. docs/scenario_reference.md documents exactly
/// this list; tests/serve_scenario_test.cc enforces that both the doc
/// table and the parser's accepted set match it, so neither can rot.
std::vector<std::string> ScenarioKeyNames();

/// The per-tenant sub-keys the parser accepts inside a
/// `tenant.<name>.<key>` section, spelled the way the reference doc
/// lists them (`tenant.<name>.city`, ...), in the parser's own order.
/// The doc table is test-enforced against ScenarioKeyNames() +
/// TenantScenarioKeyNames() concatenated.
std::vector<std::string> TenantScenarioKeyNames();

/// Sets one setting on `config`: any key of ScenarioKeyNames() but
/// `include`, or a `tenant.<name>.<sub>` line. Scenario files, tenant
/// sections and `fairidx_cli stream` flags all parse values here.
/// Numbers parse strictly (NaN and infinities are errors); ranges and
/// cross-key rules are ValidateScenario's. `csv` is taken as given.
Status SetScenarioKey(const std::string& key, const std::string& value,
                      ScenarioConfig* config);

/// Checks every range and cross-key rule of `config`, then the same
/// rules on each tenant's effective config (errors then name the
/// `tenant.<name>.<sub>` key), where `lookups = 0` is also allowed: the
/// pure ingester.
Status ValidateScenario(const ScenarioConfig& config);

/// `base` with the tenant's lines applied in order, each through
/// SetScenarioKey on the sub-key's twin. A city override also clears
/// `csv`, and `algorithm`/`height`/`seed` take exactly one value.
Result<ScenarioConfig> TenantEffectiveConfig(
    const ScenarioConfig& base, const ScenarioTenantConfig& tenant);

/// The deterministic tail permutation a drift generator applies:
/// absolute indices into `cell_ids` covering exactly [warmup, size), in
/// emission order. `drift` must be "hotspot" or "flash_crowd"
/// (validated at parse time); both are stable, so records within one
/// band keep their arrival order and the returned order is a pure
/// function of (drift, hot_pct, window_pct, grid shape, cell ids).
std::vector<size_t> ScenarioDriftTailOrder(const std::string& drift,
                                           int hot_pct, int window_pct,
                                           const Grid& grid,
                                           const std::vector<int>& cell_ids,
                                           size_t warmup);

/// One point of the expanded sweep.
struct ScenarioRun {
  PartitionAlgorithm algorithm = PartitionAlgorithm::kFairKdTree;
  int height = 6;
  uint64_t seed = 20240601;
};

/// Parses scenario text. `include_dir` resolves relative include paths
/// (pass the file's directory; "" means the working directory).
Result<ScenarioConfig> ParseScenarioText(const std::string& text,
                                         const std::string& include_dir);

/// Loads and parses a scenario file (includes resolve relative to it).
Result<ScenarioConfig> LoadScenarioFile(const std::string& path);

/// The cross product algorithms x heights x seeds, height-major.
std::vector<ScenarioRun> ExpandScenario(const ScenarioConfig& config);

/// Loads the dataset a scenario names (CSV when set, city otherwise).
Result<Dataset> LoadScenarioDataset(const ScenarioConfig& config);

/// The record stream every serving workload replays: one model fit
/// scores every record, a warmup prefix builds the initial partition,
/// and the rest is the ingest tail (permuted by `drift`, if set).
struct StreamFeed {
  AggregateBatch all;
  /// Records in the warmup prefix ([0, warmup) of `all`).
  size_t warmup = 0;
  /// Total records (== all.cell_ids.size()).
  size_t total = 0;
};

Result<StreamFeed> MakeStreamFeed(const ScenarioConfig& config,
                                  const Dataset& dataset,
                                  const Classifier& prototype,
                                  const ScenarioRun& run);

/// The FairIndexService options of one serving point. The
/// MaintenancePolicy runs on the background loop under maintain_policy
/// = auto and is ticked by the ingest loop under caller. Durability is
/// rooted at `wal_dir` itself; sweep runners give each point its own
/// subdirectory.
Result<FairIndexServiceOptions> MakeServiceOptions(
    const ScenarioConfig& config, const ScenarioRun& run);

/// One sweep point's results.
struct ScenarioRow {
  ScenarioRun run;
  int regions = 0;
  double train_ence = 0.0;
  double test_ence = 0.0;
  double train_accuracy = 0.0;
  double test_accuracy = 0.0;
  double test_miscalibration = 0.0;
  double partition_seconds = 0.0;
  int model_fits = 0;
};

/// One streaming sweep point's results (workload = stream).
struct ScenarioStreamRow {
  ScenarioRun run;
  /// Final published partition size.
  int regions = 0;
  /// Records streamed (warmup + ingested).
  long long records = 0;
  /// Sealed epochs over the stream.
  long long epochs = 0;
  /// Subtree re-splits published by maintenance.
  long long resplits = 0;
  /// Partition publications that went out via an O(changed area)
  /// cell-map patch vs. a full O(grid) rebuild.
  long long published_patched = 0;
  long long published_fallback = 0;
  /// Region ENCE of the final partition on the final sealed epoch.
  double final_ence = 0.0;
  /// Wall-clock seconds for the whole stream (excl. the one model fit).
  double stream_seconds = 0.0;
};

/// One serving sweep point's results (workload = serve). Latency and
/// QPS numbers are timing-dependent by design (see the header comment);
/// `records` and `lookups` are deterministic.
struct ScenarioServeRow {
  ScenarioRun run;
  /// Final published partition size.
  int regions = 0;
  /// Records streamed (warmup + everything the workers ingested).
  long long records = 0;
  /// Sealed epochs over the run.
  long long epochs = 0;
  /// Subtree re-splits published by background maintenance.
  long long resplits = 0;
  /// Lookup points answered across all workers (warmup calls included).
  long long lookups = 0;
  /// lookups / serve_seconds.
  double read_qps = 0.0;
  /// LookupMany call latency percentiles in microseconds, over the
  /// steady-state window (first 10% of each worker's calls excluded).
  double p50_us = 0.0;
  double p95_us = 0.0;
  double p99_us = 0.0;
  /// Wall-clock seconds of the mixed-traffic phase (excludes the model
  /// fit, warmup build and workload pre-generation).
  double serve_seconds = 0.0;
  /// Worst single publication swap over the run (max wall-clock micros
  /// inside PublishMaintainedLocked — the reader-visible publish stall).
  long long publish_stall_us = 0;
  /// Worst single checkpoint write over the run (0 without a WAL).
  long long checkpoint_stall_us = 0;
  /// Region ENCE of the final partition on the final sealed epoch.
  double final_ence = 0.0;
};

/// One tenant's results within one multi-tenant sweep point (workload =
/// multi_tenant). Latency/throughput numbers are timing-dependent by
/// design; `records` and `lookups` are deterministic. A degraded tenant
/// (failed recovery) reports its name and state with zeroed counters.
struct ScenarioTenantRow {
  ScenarioRun run;
  std::string tenant;
  /// "serving" (created fresh), "recovered" (rebuilt from its WAL/
  /// checkpoint namespace), or "degraded" (recovery failed; the other
  /// tenants keep serving).
  std::string state;
  /// Final published partition size.
  int regions = 0;
  /// Records in the tenant's store (warmup + ingested).
  long long records = 0;
  /// Sealed epochs / published subtree re-splits for this tenant.
  long long epochs = 0;
  long long resplits = 0;
  /// Lookup points answered by this tenant's worker (0 for a pure
  /// ingester).
  long long lookups = 0;
  /// lookups / the worker's wall-clock seconds.
  double read_qps = 0.0;
  /// LookupMany latency percentiles (steady-state window, first 10% of
  /// calls excluded) — the cross-tenant interference readout.
  double p50_us = 0.0;
  double p99_us = 0.0;
  /// Tail records ingested / the worker's wall-clock seconds.
  double ingest_rps = 0.0;
  /// Region ENCE of the final partition on the final sealed epoch.
  double final_ence = 0.0;
};

/// A finished scenario execution. `rows` is filled for the pipeline
/// workload, `stream_rows` for the stream workload, `serve_rows` for the
/// serve workload, `tenant_rows` for multi_tenant (grouped by sweep
/// point, tenants in section order within each point); all in sweep
/// order.
struct ScenarioReport {
  ScenarioWorkload workload = ScenarioWorkload::kPipeline;
  std::vector<ScenarioRow> rows;
  std::vector<ScenarioStreamRow> stream_rows;
  std::vector<ScenarioServeRow> serve_rows;
  std::vector<ScenarioTenantRow> tenant_rows;
};

/// Executes every expanded run against `dataset`, dispatching on
/// config.workload. Runs that fail on a per-algorithm precondition the
/// config could not know about (e.g. multi-objective on a 1-task CSV, a
/// non-refinable structure under workload = stream) fail the whole
/// scenario — list only applicable algorithms. Independent sweep points
/// run on the shared ThreadPool, at most config.threads at once; the
/// report is bit-identical at any thread count.
Result<ScenarioReport> RunScenario(const ScenarioConfig& config,
                                   const Dataset& dataset);

/// Convenience: LoadScenarioDataset + RunScenario.
Result<ScenarioReport> RunScenario(const ScenarioConfig& config);

}  // namespace fairidx

#endif  // FAIRIDX_CORE_SCENARIO_H_
