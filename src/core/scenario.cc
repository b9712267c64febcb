#include "core/scenario.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <numeric>
#include <sstream>
#include <thread>
#include <type_traits>
#include <utility>

#include "common/string_util.h"
#include "common/thread_pool.h"
#include "data/csv_dataset.h"
#include "data/edgap_synthetic.h"
#include "fairness/region_metrics.h"
#include "service/checkpoint.h"
#include "service/fair_index_service.h"
#include "service/tenant_registry.h"

namespace fairidx {
namespace {

// Includes may nest (base configs including base configs) but a cycle must
// terminate with a readable error, not a stack overflow.
constexpr int kMaxIncludeDepth = 8;

std::string DirnameOf(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? std::string() : path.substr(0, slash);
}

std::string ResolvePath(const std::string& include_dir,
                        const std::string& path) {
  if (path.empty() || path[0] == '/' || include_dir.empty()) return path;
  return include_dir + "/" + path;
}

Result<std::vector<std::string>> SplitList(const std::string& value) {
  std::vector<std::string> items;
  for (const std::string& raw : Split(value, ',')) {
    std::string item = Trim(raw);
    if (item.empty()) {
      return InvalidArgumentError("empty element in list '" + value + "'");
    }
    items.push_back(std::move(item));
  }
  if (items.empty()) {
    return InvalidArgumentError("empty list");
  }
  return items;
}

// Heights accept both comma lists and inclusive "lo..hi" ranges.
Result<std::vector<int>> ParseHeights(const std::string& value) {
  std::vector<int> heights;
  FAIRIDX_ASSIGN_OR_RETURN(std::vector<std::string> items,
                           SplitList(value));
  for (const std::string& item : items) {
    const size_t dots = item.find("..");
    if (dots != std::string::npos) {
      FAIRIDX_ASSIGN_OR_RETURN(int lo, ParseInt(item.substr(0, dots)));
      FAIRIDX_ASSIGN_OR_RETURN(int hi, ParseInt(item.substr(dots + 2)));
      if (lo > hi) {
        return InvalidArgumentError("empty height range '" + item + "'");
      }
      for (int h = lo; h <= hi; ++h) heights.push_back(h);
    } else {
      FAIRIDX_ASSIGN_OR_RETURN(int height, ParseInt(item));
      heights.push_back(height);
    }
  }
  for (int height : heights) {
    if (height < 0) {
      return InvalidArgumentError("heights must be >= 0");
    }
  }
  return heights;
}

Result<std::vector<uint64_t>> ParseSeeds(const std::string& value) {
  std::vector<uint64_t> seeds;
  FAIRIDX_ASSIGN_OR_RETURN(std::vector<std::string> items,
                           SplitList(value));
  for (const std::string& item : items) {
    // Digits only: strtoull would silently wrap a leading '-' and
    // saturate on overflow, changing every split in the sweep.
    errno = 0;
    char* end = nullptr;
    const unsigned long long seed = std::strtoull(item.c_str(), &end, 10);
    if (item.find_first_not_of("0123456789") != std::string::npos ||
        end == item.c_str() || *end != '\0' || errno == ERANGE) {
      return InvalidArgumentError("bad seed '" + item + "'");
    }
    seeds.push_back(static_cast<uint64_t>(seed));
  }
  return seeds;
}

Result<std::vector<PartitionAlgorithm>> ParseAlgorithms(
    const std::string& value) {
  std::vector<PartitionAlgorithm> algorithms;
  FAIRIDX_ASSIGN_OR_RETURN(std::vector<std::string> items,
                           SplitList(value));
  for (const std::string& item : items) {
    if (item == "all") {
      for (PartitionAlgorithm algorithm : AllPartitionAlgorithms()) {
        algorithms.push_back(algorithm);
      }
      continue;
    }
    FAIRIDX_ASSIGN_OR_RETURN(PartitionAlgorithm algorithm,
                             ParsePartitionAlgorithm(item));
    algorithms.push_back(algorithm);
  }
  return algorithms;
}

// Setters for one ScenarioConfig field each, so the key table below
// can name a key and its field on one line. SetInt parses with the
// field's own width: the long long keys take values past INT_MAX, and
// an int key still rejects them.
template <auto kField>
Status SetInt(const std::string& value, ScenarioConfig* config) {
  using Field = std::remove_reference_t<decltype(config->*kField)>;
  if constexpr (std::is_same_v<Field, long long>) {
    FAIRIDX_ASSIGN_OR_RETURN(config->*kField, ParseInt64(value));
  } else {
    FAIRIDX_ASSIGN_OR_RETURN(config->*kField, ParseInt(value));
  }
  return Status::Ok();
}

// NaN passes every range check (each comparison is false) and an
// infinite cadence, bound or fraction is never what a file means, so
// every double setting must be finite.
template <auto kField>
Status SetDouble(const std::string& value, ScenarioConfig* config) {
  FAIRIDX_ASSIGN_OR_RETURN(double parsed, ParseDouble(value));
  if (!std::isfinite(parsed)) {
    return InvalidArgumentError("'" + value + "' is not a finite number");
  }
  config->*kField = parsed;
  return Status::Ok();
}

template <auto kField>
Status SetString(const std::string& value, ScenarioConfig* config) {
  config->*kField = value;
  return Status::Ok();
}

template <auto kField, auto kParse>
Status SetParsed(const std::string& value, ScenarioConfig* config) {
  auto parsed = kParse(value);
  if (!parsed.ok()) return parsed.status();
  config->*kField = std::move(parsed).value();
  return Status::Ok();
}

Result<ScenarioWorkload> ParseWorkload(const std::string& value) {
  if (value == "pipeline") return ScenarioWorkload::kPipeline;
  if (value == "stream") return ScenarioWorkload::kStream;
  if (value == "serve") return ScenarioWorkload::kServe;
  if (value == "multi_tenant") return ScenarioWorkload::kMultiTenant;
  return InvalidArgumentError(
      "unknown workload '" + value +
      "' (expected pipeline|stream|serve|multi_tenant)");
}

Result<ScenarioMaintainPolicy> ParseMaintainPolicy(const std::string& value) {
  if (value == "caller") return ScenarioMaintainPolicy::kCaller;
  if (value == "auto") return ScenarioMaintainPolicy::kAuto;
  return InvalidArgumentError("unknown maintain_policy '" + value +
                              "' (expected caller|auto)");
}

// Every top-level key, including aliases, with the setter that parses
// its value. The table IS the accepted key set: SetScenarioKey looks
// keys up here and ScenarioKeyNames() lists it in this order, and
// tests/serve_scenario_test.cc pins that list against the key table in
// docs/scenario_reference.md, so the parser and the doc cannot drift.
struct ScenarioKey {
  const char* name;
  /// Null for `include`, which splices a file and so exists only in one.
  Status (*set)(const std::string& value, ScenarioConfig* config);
};
using SC = ScenarioConfig;
constexpr ScenarioKey kScenarioKeys[] = {
    {"include", nullptr},
    {"name", SetString<&SC::name>},
    {"city", SetString<&SC::city>},
    {"csv", SetString<&SC::csv>},
    {"classifier", SetParsed<&SC::classifier, ParseClassifierKind>},
    {"algorithms", SetParsed<&SC::algorithms, ParseAlgorithms>},
    {"algorithm", SetParsed<&SC::algorithms, ParseAlgorithms>},
    {"heights", SetParsed<&SC::heights, ParseHeights>},
    {"height", SetParsed<&SC::heights, ParseHeights>},
    {"seeds", SetParsed<&SC::seeds, ParseSeeds>},
    {"seed", SetParsed<&SC::seeds, ParseSeeds>},
    {"task", SetInt<&SC::task>},
    {"threads", SetInt<&SC::threads>},
    {"test_fraction", SetDouble<&SC::test_fraction>},
    {"min_region_population", SetDouble<&SC::min_region_population>},
    {"workload", SetParsed<&SC::workload, ParseWorkload>},
    {"stream_batch", SetInt<&SC::stream_batch>},
    {"stream_shards", SetInt<&SC::stream_shards>},
    {"stream_refine_bound", SetDouble<&SC::stream_refine_bound>},
    {"stream_warmup_pct", SetInt<&SC::stream_warmup_pct>},
    {"stream_seal_records", SetInt<&SC::stream_seal_records>},
    {"maintain_policy", SetParsed<&SC::maintain_policy, ParseMaintainPolicy>},
    {"seal_interval", SetDouble<&SC::seal_interval>},
    // The maintenance-policy spelling of stream_refine_bound: one field,
    // two names, so the caller loop and the background scheduler can
    // never disagree on the bound.
    {"drift_bound", SetDouble<&SC::stream_refine_bound>},
    {"wal_dir", SetString<&SC::wal_dir>},
    {"checkpoint_interval", SetInt<&SC::checkpoint_interval>},
    {"full_snapshot_interval", SetInt<&SC::full_snapshot_interval>},
    {"fsync", SetString<&SC::fsync>},
    {"retain_epochs", SetInt<&SC::retain_epochs>},
    {"serve_readers", SetInt<&SC::serve_readers>},
    {"serve_lookups", SetInt<&SC::serve_lookups>},
    {"serve_batch", SetInt<&SC::serve_batch>},
    {"serve_read_pct", SetInt<&SC::serve_read_pct>},
    {"serve_zipf", SetDouble<&SC::serve_zipf>},
    {"drift", SetString<&SC::drift>},
    {"drift_hot_pct", SetInt<&SC::drift_hot_pct>},
    {"drift_window_pct", SetInt<&SC::drift_window_pct>},
};

// Every sub-key a tenant.<name>.<sub> section accepts, spelled the way
// the reference doc lists them, beside the top-level key it overrides
// (its twin): an override line is its twin's line, applied to the
// tenant's copy of the config. Same anti-rot contract as kScenarioKeys:
// the doc table is test-enforced against ScenarioKeyNames() +
// TenantScenarioKeyNames().
struct TenantKey {
  const char* sub;
  const char* twin;
};
constexpr TenantKey kTenantKeys[] = {
    {"city", "city"},
    {"algorithm", "algorithm"},
    {"height", "height"},
    {"seed", "seed"},
    {"batch", "stream_batch"},
    {"shards", "stream_shards"},
    {"warmup_pct", "stream_warmup_pct"},
    {"seal_records", "stream_seal_records"},
    {"seal_interval", "seal_interval"},
    {"drift_bound", "drift_bound"},
    {"retain_epochs", "retain_epochs"},
    {"lookups", "serve_lookups"},
    {"read_pct", "serve_read_pct"},
    {"zipf", "serve_zipf"},
    {"drift", "drift"},
    {"fsync", "fsync"},
    {"checkpoint_interval", "checkpoint_interval"},
    {"full_snapshot_interval", "full_snapshot_interval"},
};

const TenantKey* FindTenantKey(const std::string& sub) {
  for (const TenantKey& key : kTenantKeys) {
    if (sub == key.sub) return &key;
  }
  return nullptr;
}

// One tenant override line applied to `config` through its twin. The
// two tenant-only rules live here: a city override drops the top-level
// csv (the tenant generates that city), and algorithm/height/seed name
// the tenant's single point, so they take exactly one value.
Status ApplyTenantOverride(const TenantKey& key, const std::string& value,
                           ScenarioConfig* config) {
  FAIRIDX_RETURN_IF_ERROR(SetScenarioKey(key.twin, value, config));
  const std::string sub = key.sub;
  if (sub == "city") config->csv.clear();
  if ((sub == "algorithm" && config->algorithms.size() != 1) ||
      (sub == "height" && config->heights.size() != 1) ||
      (sub == "seed" && config->seeds.size() != 1)) {
    return InvalidArgumentError(sub + " takes exactly one value in a " +
                                "tenant section, got '" + value + "'");
  }
  return Status::Ok();
}

// One `tenant.<name>.<sub> = value` line: the value is checked now, on a
// scratch config, so a bad one fails on its own line; the line is then
// recorded in the named section (sections in first-appearance order).
Status SetTenantKey(const std::string& key, const std::string& value,
                    ScenarioConfig* config) {
  const std::string rest = key.substr(7);  // past "tenant."
  const size_t dot = rest.find('.');
  if (dot == std::string::npos || dot == 0 || dot + 1 >= rest.size()) {
    return InvalidArgumentError(
        "tenant keys are spelled tenant.<name>.<key>, got '" + key + "'");
  }
  const std::string name = rest.substr(0, dot);
  const std::string sub = rest.substr(dot + 1);
  FAIRIDX_RETURN_IF_ERROR(ValidateTenantName(name));
  const TenantKey* tenant_key = FindTenantKey(sub);
  if (tenant_key == nullptr) {
    return InvalidArgumentError("unknown scenario key '" + key +
                                "' (see TenantScenarioKeyNames for the "
                                "accepted tenant.<name>.* sub-keys)");
  }
  ScenarioConfig scratch;
  FAIRIDX_RETURN_IF_ERROR(ApplyTenantOverride(*tenant_key, value, &scratch));
  auto section = std::find_if(
      config->tenants.begin(), config->tenants.end(),
      [&](const ScenarioTenantConfig& tenant) { return tenant.name == name; });
  if (section == config->tenants.end()) {
    section = config->tenants.insert(section, ScenarioTenantConfig{name, {}});
  }
  section->overrides.emplace_back(sub, value);
  return Status::Ok();
}

Status ParseInto(const std::string& text, const std::string& include_dir,
                 int depth, ScenarioConfig* config);

Status IncludeFile(const std::string& path, int depth,
                   ScenarioConfig* config) {
  if (depth > kMaxIncludeDepth) {
    return InvalidArgumentError(
        "scenario include depth exceeded (include cycle?)");
  }
  std::ifstream file(path);
  if (!file) {
    return NotFoundError("cannot open scenario file '" + path + "'");
  }
  std::stringstream buffer;
  buffer << file.rdbuf();
  return ParseInto(buffer.str(), DirnameOf(path), depth, config);
}

Status ParseInto(const std::string& text, const std::string& include_dir,
                 int depth, ScenarioConfig* config) {
  int line_number = 0;
  for (const std::string& raw_line : Split(text, '\n')) {
    ++line_number;
    std::string line = raw_line;
    const size_t hash = line.find('#');
    if (hash != std::string::npos) line = line.substr(0, hash);
    line = Trim(line);
    if (line.empty()) continue;

    const size_t eq = line.find('=');
    if (eq == std::string::npos) {
      return InvalidArgumentError(
          StrFormat("scenario line %d: expected 'key = value', got '%s'",
                    line_number, line.c_str()));
    }
    const std::string key = Trim(line.substr(0, eq));
    const std::string value = Trim(line.substr(eq + 1));
    if (key.empty() || value.empty()) {
      return InvalidArgumentError(
          StrFormat("scenario line %d: empty key or value", line_number));
    }

    // Paths in a file are relative to that file.
    const Status status =
        key == "include"
            ? IncludeFile(ResolvePath(include_dir, value), depth + 1, config)
            : SetScenarioKey(
                  key, key == "csv" ? ResolvePath(include_dir, value) : value,
                  config);
    if (!status.ok()) {
      return InvalidArgumentError(
          StrFormat("scenario line %d: %s", line_number,
                    status.ToString().c_str()));
    }
  }
  return Status::Ok();
}

// The range and cross-key rules of one configuration, shared by the top
// level and every tenant's effective config. Messages lead with the key
// at fault, so a tenant's can name the sub-key its section spelled.
// `tenant` admits lookups = 0: a tenant that only ingests (the noisy
// neighbor).
Status CheckSettings(const ScenarioConfig& config, bool tenant) {
  if (config.algorithms.empty()) {
    return InvalidArgumentError("no algorithms");
  }
  if (config.heights.empty()) {
    return InvalidArgumentError("no heights");
  }
  if (config.seeds.empty()) {
    return InvalidArgumentError("no seeds");
  }
  if (config.task < 0) {
    return InvalidArgumentError("task must be >= 0");
  }
  if (config.threads < 1) {
    return InvalidArgumentError("threads must be >= 1");
  }
  if (config.test_fraction <= 0.0 || config.test_fraction >= 1.0) {
    return InvalidArgumentError("test_fraction must be in (0, 1)");
  }
  if (config.stream_batch < 1) {
    return InvalidArgumentError("stream_batch must be >= 1");
  }
  if (config.stream_shards < 1) {
    return InvalidArgumentError("stream_shards must be >= 1");
  }
  if (config.stream_warmup_pct < 1 || config.stream_warmup_pct > 99) {
    return InvalidArgumentError("stream_warmup_pct must be in [1, 99]");
  }
  if (config.stream_seal_records < 0) {
    return InvalidArgumentError("stream_seal_records must be >= 0");
  }
  // The stream, serve and multi_tenant workloads all drive the serving
  // layer; the keys below are meaningful for any of them and typos for
  // pipeline.
  const bool serving_workload =
      config.workload == ScenarioWorkload::kStream ||
      config.workload == ScenarioWorkload::kServe ||
      config.workload == ScenarioWorkload::kMultiTenant;
  if (serving_workload && config.min_region_population > 0.0) {
    // The serving layer has no region-merging post-process; silently
    // dropping the key would violate the engine's typo-proof stance.
    return InvalidArgumentError(
        "min_region_population is not supported with workload = stream, "
        "serve or multi_tenant");
  }
  if (config.seal_interval < 0.0) {
    return InvalidArgumentError("seal_interval must be >= 0");
  }
  if (config.maintain_policy == ScenarioMaintainPolicy::kAuto &&
      !serving_workload) {
    // Background maintenance only exists on the serving path; silently
    // ignoring the key on a pipeline sweep would hide the typo.
    return InvalidArgumentError(
        "maintain_policy = auto requires workload = stream, serve or "
        "multi_tenant");
  }
  if (config.seal_interval > 0.0 &&
      config.maintain_policy != ScenarioMaintainPolicy::kAuto) {
    return InvalidArgumentError(
        "seal_interval requires maintain_policy = auto (the caller loop "
        "seals by stream_seal_records)");
  }
  if (!config.wal_dir.empty() && !serving_workload) {
    // Durability only exists on the serving path; dropping the key on a
    // pipeline sweep would hide the typo.
    return InvalidArgumentError(
        "wal_dir requires workload = stream, serve or multi_tenant");
  }
  if (config.full_snapshot_interval < 1) {
    return InvalidArgumentError("full_snapshot_interval must be >= 1");
  }
  if (config.full_snapshot_interval > 1 && config.wal_dir.empty()) {
    return InvalidArgumentError(
        "full_snapshot_interval > 1 requires wal_dir (there are no "
        "checkpoints to thin without a durability directory)");
  }
  if (!ParseWalFsync(config.fsync).ok()) {
    return InvalidArgumentError("fsync must be none|batch|always, got '" +
                                config.fsync + "'");
  }
  if (config.retain_epochs < 0) {
    return InvalidArgumentError("retain_epochs must be >= 0");
  }
  if (config.workload == ScenarioWorkload::kServe &&
      config.maintain_policy != ScenarioMaintainPolicy::kAuto) {
    // Serve workers never seal or refine — without the background
    // scheduler nothing would, and lookups would serve epoch 0 forever.
    return InvalidArgumentError(
        "workload = serve requires maintain_policy = auto (the background "
        "scheduler owns maintenance; workers only look up and ingest)");
  }
  if (config.serve_readers < 1) {
    return InvalidArgumentError("serve_readers must be >= 1");
  }
  if (config.serve_lookups < (tenant ? 0 : 1)) {
    return InvalidArgumentError(tenant ? "serve_lookups must be >= 0"
                                       : "serve_lookups must be >= 1");
  }
  if (config.serve_batch < 1) {
    return InvalidArgumentError("serve_batch must be >= 1");
  }
  if (config.serve_read_pct < 1 || config.serve_read_pct > 100) {
    return InvalidArgumentError("serve_read_pct must be in [1, 100]");
  }
  if (config.serve_zipf < 0.0) {
    return InvalidArgumentError("serve_zipf must be >= 0");
  }
  if (config.drift != "none" && config.drift != "hotspot" &&
      config.drift != "flash_crowd") {
    return InvalidArgumentError(
        "drift must be none|hotspot|flash_crowd, got '" + config.drift + "'");
  }
  if (config.drift != "none" && !serving_workload) {
    // The drift generator permutes the ingest tail; a pipeline sweep has
    // no tail, so accepting the key would hide the typo.
    return InvalidArgumentError(
        "drift requires workload = stream, serve or multi_tenant");
  }
  if (config.drift_hot_pct < 1 || config.drift_hot_pct > 100) {
    return InvalidArgumentError("drift_hot_pct must be in [1, 100]");
  }
  if (config.drift_window_pct < 0 || config.drift_window_pct > 100) {
    return InvalidArgumentError("drift_window_pct must be in [0, 100]");
  }
  return Status::Ok();
}

// A tenant's validation error, named by the sub-key its section spelled
// when the message leads with that sub-key's twin ("stream_batch must be
// >= 1" -> "tenant.t1.batch must be >= 1").
std::string TenantError(const std::string& tenant,
                        const std::string& message) {
  for (const TenantKey& key : kTenantKeys) {
    const std::string twin = std::string(key.twin) + " ";
    if (message.rfind(twin, 0) == 0) {
      return "scenario: tenant." + tenant + "." + key.sub +
             message.substr(twin.size() - 1);
    }
  }
  return "scenario: tenant." + tenant + ": " + message;
}

}  // namespace

Status SetScenarioKey(const std::string& key, const std::string& value,
                      ScenarioConfig* config) {
  if (key.rfind("tenant.", 0) == 0) return SetTenantKey(key, value, config);
  for (const ScenarioKey& entry : kScenarioKeys) {
    if (key != entry.name) continue;
    if (entry.set == nullptr) {
      return InvalidArgumentError(key + " splices a file, so only a "
                                  "scenario file can hold it");
    }
    return entry.set(value, config);
  }
  return InvalidArgumentError("unknown scenario key '" + key + "'");
}

Result<ScenarioConfig> TenantEffectiveConfig(
    const ScenarioConfig& base, const ScenarioTenantConfig& tenant) {
  ScenarioConfig config = base;
  for (const auto& [sub, value] : tenant.overrides) {
    const TenantKey* key = FindTenantKey(sub);
    if (key == nullptr) {
      return InvalidArgumentError("unknown tenant sub-key '" + sub + "'");
    }
    FAIRIDX_RETURN_IF_ERROR(ApplyTenantOverride(*key, value, &config));
  }
  return config;
}

Status ValidateScenario(const ScenarioConfig& config) {
  if (Status status = CheckSettings(config, /*tenant=*/false);
      !status.ok()) {
    return InvalidArgumentError("scenario: " + status.message());
  }
  if (config.workload == ScenarioWorkload::kMultiTenant) {
    if (config.tenants.empty()) {
      return InvalidArgumentError(
          "scenario: workload = multi_tenant needs at least one "
          "tenant.<name>.* section");
    }
    if (config.maintain_policy != ScenarioMaintainPolicy::kAuto) {
      // Tenant workers only look up and ingest; the shared registry
      // scheduler owns every tenant's seal/refine cadence.
      return InvalidArgumentError(
          "scenario: workload = multi_tenant requires maintain_policy = "
          "auto (the shared registry scheduler owns maintenance)");
    }
  } else if (!config.tenants.empty()) {
    // tenant.* sections are meaningless outside multi_tenant; silently
    // ignoring them would violate the engine's typo-proof stance.
    return InvalidArgumentError(
        "scenario: tenant.<name>.* keys require workload = multi_tenant");
  }
  for (const ScenarioTenantConfig& tenant : config.tenants) {
    Result<ScenarioConfig> effective = TenantEffectiveConfig(config, tenant);
    const Status status = effective.ok()
                              ? CheckSettings(*effective, /*tenant=*/true)
                              : effective.status();
    if (!status.ok()) {
      return InvalidArgumentError(TenantError(tenant.name, status.message()));
    }
  }
  return Status::Ok();
}

std::vector<std::string> ScenarioKeyNames() {
  std::vector<std::string> keys;
  for (const ScenarioKey& key : kScenarioKeys) keys.push_back(key.name);
  return keys;
}

std::vector<std::string> TenantScenarioKeyNames() {
  std::vector<std::string> keys;
  for (const TenantKey& key : kTenantKeys) {
    keys.push_back(std::string("tenant.<name>.") + key.sub);
  }
  return keys;
}

std::vector<size_t> ScenarioDriftTailOrder(const std::string& drift,
                                           int hot_pct, int window_pct,
                                           const Grid& grid,
                                           const std::vector<int>& cell_ids,
                                           size_t warmup) {
  std::vector<size_t> order;
  if (warmup >= cell_ids.size()) return order;
  order.reserve(cell_ids.size() - warmup);
  for (size_t i = warmup; i < cell_ids.size(); ++i) order.push_back(i);
  const int cols = grid.cols();
  if (drift == "hotspot") {
    // The hot zone sweeps west -> east: arrivals are grouped into
    // column bands (each band drift_hot_pct percent of the sweep) and
    // emitted band by band. Stable, so within a band the original
    // arrival order is kept.
    const int bands = std::max(1, 100 / std::max(1, hot_pct));
    std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      const int band_a = grid.ColOfCell(cell_ids[a]) * bands / cols;
      const int band_b = grid.ColOfCell(cell_ids[b]) * bands / cols;
      return band_a < band_b;
    });
  } else if (drift == "flash_crowd") {
    // The centered hot column band's records arrive as one contiguous
    // burst landing window_pct percent of the way into the tail;
    // everything else keeps its arrival order around the burst.
    const int hot_cols = std::max(1, cols * hot_pct / 100);
    const int hot_begin = (cols - hot_cols) / 2;
    std::vector<size_t> hot;
    std::vector<size_t> cold;
    for (size_t i : order) {
      const int col = grid.ColOfCell(cell_ids[i]);
      (col >= hot_begin && col < hot_begin + hot_cols ? hot : cold)
          .push_back(i);
    }
    const size_t burst_at =
        cold.size() * static_cast<size_t>(window_pct) / 100;
    order.clear();
    order.insert(order.end(), cold.begin(), cold.begin() + burst_at);
    order.insert(order.end(), hot.begin(), hot.end());
    order.insert(order.end(), cold.begin() + burst_at, cold.end());
  }
  // "none" (and anything else, which validation rejects upstream) keeps
  // the identity order.
  return order;
}

Result<ScenarioConfig> ParseScenarioText(const std::string& text,
                                         const std::string& include_dir) {
  ScenarioConfig config;
  FAIRIDX_RETURN_IF_ERROR(ParseInto(text, include_dir, 0, &config));
  FAIRIDX_RETURN_IF_ERROR(ValidateScenario(config));
  return config;
}

Result<ScenarioConfig> LoadScenarioFile(const std::string& path) {
  ScenarioConfig config;
  FAIRIDX_RETURN_IF_ERROR(IncludeFile(path, 0, &config));
  FAIRIDX_RETURN_IF_ERROR(ValidateScenario(config));
  if (config.name.empty()) config.name = path;
  return config;
}

std::vector<ScenarioRun> ExpandScenario(const ScenarioConfig& config) {
  std::vector<ScenarioRun> runs;
  runs.reserve(config.heights.size() * config.algorithms.size() *
               config.seeds.size());
  for (int height : config.heights) {
    for (PartitionAlgorithm algorithm : config.algorithms) {
      for (uint64_t seed : config.seeds) {
        runs.push_back(ScenarioRun{algorithm, height, seed});
      }
    }
  }
  return runs;
}

Result<Dataset> LoadScenarioDataset(const ScenarioConfig& config) {
  if (!config.csv.empty()) {
    return LoadEdgapCsvFile(config.csv, CsvDatasetOptions{});
  }
  if (config.city == "la" || config.city == "losangeles") {
    return GenerateEdgapCity(LosAngelesConfig());
  }
  if (config.city == "houston") {
    return GenerateEdgapCity(HoustonConfig());
  }
  return InvalidArgumentError("unknown city '" + config.city +
                              "' (expected la|houston)");
}

namespace {

Result<ScenarioRow> RunOnePipelinePoint(const ScenarioConfig& config,
                                        const Dataset& dataset,
                                        const Classifier& prototype,
                                        const ScenarioRun& run) {
  PipelineOptions options;
  options.algorithm = run.algorithm;
  options.height = run.height;
  options.task = config.task;
  options.num_threads = config.threads;
  options.test_fraction = config.test_fraction;
  options.split_seed = run.seed;
  options.min_region_population = config.min_region_population;
  FAIRIDX_ASSIGN_OR_RETURN(PipelineRunResult result,
                           RunPipeline(dataset, prototype, options));
  ScenarioRow row;
  row.run = run;
  row.regions = result.final_model.eval.num_neighborhoods;
  row.train_ence = result.final_model.eval.train_ence;
  row.test_ence = result.final_model.eval.test_ence;
  row.train_accuracy = result.final_model.eval.train_accuracy;
  row.test_accuracy = result.final_model.eval.test_accuracy;
  row.test_miscalibration = result.final_model.eval.test_miscalibration;
  row.partition_seconds = result.partition_seconds;
  row.model_fits = result.partition_stage_fits;
  return row;
}

}  // namespace

Result<StreamFeed> MakeStreamFeed(const ScenarioConfig& config,
                                  const Dataset& dataset,
                                  const Classifier& prototype,
                                  const ScenarioRun& run) {
  if (config.task < 0 || config.task >= dataset.num_tasks()) {
    return InvalidArgumentError("scenario: task out of range for dataset");
  }
  Rng rng(run.seed);
  FAIRIDX_ASSIGN_OR_RETURN(
      TrainTestSplit split,
      MakeStratifiedSplit(dataset.labels(config.task),
                          config.test_fraction, rng));
  FAIRIDX_ASSIGN_OR_RETURN(
      TrainedEvaluation trained,
      TrainOnBaseGrid(dataset, split, prototype, EvalOptions{}));
  StreamFeed feed;
  feed.all.cell_ids = dataset.base_cells();
  feed.all.labels = dataset.labels(config.task);
  feed.all.scores = trained.scores;
  feed.total = dataset.num_records();
  feed.warmup = std::max<size_t>(
      1, feed.total * static_cast<size_t>(config.stream_warmup_pct) / 100);
  if (config.drift != "none" && feed.warmup < feed.total) {
    // Drift generator: permute the ingest tail (the warmup prefix is
    // untouched). A pure permutation keeps the record multiset — and
    // therefore every final sealed sum — identical to the undrifted
    // stream; only the arrival ORDER (and hence intermediate epochs and
    // refine decisions) changes.
    const std::vector<size_t> order = ScenarioDriftTailOrder(
        config.drift, config.drift_hot_pct, config.drift_window_pct,
        dataset.grid(), feed.all.cell_ids, feed.warmup);
    AggregateBatch tail;
    tail.cell_ids.reserve(order.size());
    for (size_t i : order) {
      tail.Append(feed.all.cell_ids[i], feed.all.labels[i],
                  feed.all.scores[i]);
    }
    std::copy(tail.cell_ids.begin(), tail.cell_ids.end(),
              feed.all.cell_ids.begin() + feed.warmup);
    std::copy(tail.labels.begin(), tail.labels.end(),
              feed.all.labels.begin() + feed.warmup);
    std::copy(tail.scores.begin(), tail.scores.end(),
              feed.all.scores.begin() + feed.warmup);
  }
  return feed;
}

Result<FairIndexServiceOptions> MakeServiceOptions(
    const ScenarioConfig& config, const ScenarioRun& run) {
  FairIndexServiceOptions options;
  options.algorithm = PartitionAlgorithmName(run.algorithm);
  options.build.height = run.height;
  options.build.task = config.task;
  options.build.num_threads = config.threads;
  options.store.num_shards = config.stream_shards;
  options.store.num_threads = config.threads;
  options.refine.drift_bound = config.stream_refine_bound;
  if (!config.wal_dir.empty()) {
    options.durability.wal_dir = config.wal_dir;
    options.durability.checkpoint_interval = config.checkpoint_interval;
    options.durability.full_snapshot_interval =
        config.full_snapshot_interval;
    FAIRIDX_ASSIGN_OR_RETURN(options.durability.fsync,
                             ParseWalFsync(config.fsync));
  }
  options.auto_maintain =
      config.maintain_policy == ScenarioMaintainPolicy::kAuto;
  // stream_seal_records = 0 means "every batch": after an ingest that is
  // a 1-record cadence — unless seal_interval was given (auto only), in
  // which case 0 disables the record cadence so the wall clock alone
  // governs (interval-only policies stay expressible).
  options.maintain.seal_records =
      config.stream_seal_records > 0
          ? config.stream_seal_records
          : (config.seal_interval > 0.0 ? 0 : 1);
  options.maintain.seal_interval_seconds = config.seal_interval;
  options.maintain.drift_bound = config.stream_refine_bound >= 0.0
                                     ? config.stream_refine_bound
                                     : -1.0;
  options.maintain.poll_interval_seconds = 0.002;
  options.maintain.retain_epochs = config.retain_epochs;
  return options;
}

Result<OpenedService> RecoverOrCreateService(
    const Grid& grid, const StreamFeed& feed,
    const FairIndexServiceOptions& options) {
  OpenedService opened;
  const std::string& wal_dir = options.durability.wal_dir;
  if (!wal_dir.empty()) {
    auto checkpoints = ListCheckpoints(wal_dir);
    opened.recovered = checkpoints.ok() && !checkpoints->empty();
  }
  if (!opened.recovered) {
    FAIRIDX_ASSIGN_OR_RETURN(
        opened.service,
        FairIndexService::Create(grid, feed.all.Slice(0, feed.warmup),
                                 options));
    opened.resume = feed.warmup;
    return opened;
  }
  FAIRIDX_ASSIGN_OR_RETURN(opened.service,
                           FairIndexService::Recover(grid, options));
  const long long accepted = opened.service->store().num_records();
  opened.resume = std::min(
      feed.total,
      std::max(feed.warmup, static_cast<size_t>(std::max(0LL, accepted))));
  return opened;
}

namespace {

// One durability root per sweep point, so concurrent points never
// interleave their logs: <wal_dir>/<algorithm>-h<height>-s<seed>, or ""
// without a wal_dir.
std::string PointWalDir(const ScenarioConfig& config,
                        const ScenarioRun& run) {
  if (config.wal_dir.empty()) return std::string();
  return config.wal_dir + "/" + PartitionAlgorithmName(run.algorithm) +
         "-h" + std::to_string(run.height) + "-s" + std::to_string(run.seed);
}

// One serving-layer sweep point: one model fit scores every record, a
// warmup prefix builds the maintained partition, and the tail streams
// through a FairIndexService (ingest batches, epoch seals, drift-bounded
// refines) — the scenario-file form of `fairidx_cli stream`. With
// maintain_policy = auto the service's background loop owns the
// seal/refine cadence and the loop below only ingests; with caller it
// ticks a scheduler on the same policy itself after each batch. A
// durable point recovers-or-creates (RecoverOrCreateService), so a rerun
// over the same wal_dir resumes the earlier run instead of failing.
Result<ScenarioStreamRow> RunOneStreamPoint(const ScenarioConfig& config,
                                            const Dataset& dataset,
                                            const Classifier& prototype,
                                            const ScenarioRun& run) {
  FAIRIDX_ASSIGN_OR_RETURN(StreamFeed feed,
                           MakeStreamFeed(config, dataset, prototype, run));
  FAIRIDX_ASSIGN_OR_RETURN(FairIndexServiceOptions service_options,
                           MakeServiceOptions(config, run));
  service_options.durability.wal_dir = PointWalDir(config, run);

  const auto start = std::chrono::steady_clock::now();
  FAIRIDX_ASSIGN_OR_RETURN(
      OpenedService opened,
      RecoverOrCreateService(dataset.grid(), feed, service_options));
  const std::unique_ptr<FairIndexService>& service = opened.service;
  MaintenanceScheduler caller_maintenance(service.get(),
                                          service_options.maintain);

  for (size_t next = opened.resume; next < feed.total;) {
    const size_t end = std::min(
        feed.total, next + static_cast<size_t>(config.stream_batch));
    FAIRIDX_RETURN_IF_ERROR(
        service->Ingest(feed.all.Slice(next, end)).status());
    next = end;
    if (!service_options.auto_maintain && caller_maintenance.TickNow()) {
      FAIRIDX_RETURN_IF_ERROR(caller_maintenance.last_error());
    }
  }
  // Quiesce before the final audit: stop the background loop (joins any
  // in-flight pass), then seal the tail.
  service->StopMaintenance();
  FAIRIDX_RETURN_IF_ERROR(service->Seal().status());
  const std::vector<RegionAggregate> final_regions =
      service->QueryRegions();
  const auto elapsed = std::chrono::steady_clock::now() - start;

  ScenarioStreamRow row;
  row.run = run;
  row.regions = static_cast<int>(final_regions.size());
  row.records = service->store().num_records();
  row.epochs = service->store().epoch();
  row.resplits = service->total_resplits();
  row.published_patched = service->publications_patched();
  row.published_fallback = service->publications_fallback();
  row.final_ence = RegionEnce(final_regions).ence;
  row.stream_seconds =
      std::chrono::duration<double>(elapsed).count();
  return row;
}

// Percentile of an ASCENDING sample vector with linear interpolation
// between the two nearest ranks (the methodology docs/benchmarking.md
// describes; empty input yields 0).
double PercentileUs(const std::vector<double>& sorted, double pct) {
  if (sorted.empty()) return 0.0;
  const double rank = pct / 100.0 * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(sorted.size() - 1, lo + 1);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo);
}

// Pre-generates `count` lookup points with Zipf-skewed cell popularity:
// hotness ranks are a seed-deterministic shuffle of the cells, rank r is
// drawn with probability proportional to 1/(r+1)^s through an
// inverse-CDF table, and each point lands uniformly inside its cell.
// s = 0 degenerates to uniform cells. Points are generated BEFORE the
// timed loop so the measurement covers the lookup, not the generator.
std::vector<Point> MakeZipfPoints(const Grid& grid, double s,
                                  long long count, Rng& rng) {
  const int cells = grid.num_cells();
  std::vector<double> cdf(static_cast<size_t>(cells));
  double total = 0.0;
  for (int r = 0; r < cells; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), s);
    cdf[static_cast<size_t>(r)] = total;
  }
  std::vector<int> rank_to_cell(static_cast<size_t>(cells));
  std::iota(rank_to_cell.begin(), rank_to_cell.end(), 0);
  rng.Shuffle(rank_to_cell);
  std::vector<Point> points;
  points.reserve(static_cast<size_t>(count));
  for (long long i = 0; i < count; ++i) {
    const double u = rng.NextDouble() * total;
    const size_t rank = std::min(
        static_cast<size_t>(cells - 1),
        static_cast<size_t>(std::lower_bound(cdf.begin(), cdf.end(), u) -
                            cdf.begin()));
    const int cell = rank_to_cell[rank];
    const BoundingBox box =
        grid.CellBounds(grid.RowOfCell(cell), grid.ColOfCell(cell));
    points.push_back(Point{rng.Uniform(box.min_x, box.max_x),
                           rng.Uniform(box.min_y, box.max_y)});
  }
  return points;
}

// One closed-loop serving worker's pre-built traffic and measurements
// (serve readers and multi-tenant workers alike).
struct ServeWorker {
  /// Pre-generated lookup points (serve_lookups of them).
  std::vector<Point> points;
  /// This worker's share of the ingest tail.
  std::vector<AggregateBatch> write_batches;
  /// Steady-state LookupMany call latencies (first 10% of calls are
  /// cache/JIT warmup and excluded).
  std::vector<double> latencies_us;
  long long lookups = 0;
  /// Wall-clock seconds the whole loop took, drain included.
  double seconds = 0.0;
  Status status = Status::Ok();
};

// The one closed-loop serving worker. Each step flips the read-pct coin:
// a write hands the next owned batch to `ingest`, a read answers the next
// serve_batch points with one LookupMany against `service` and records
// its latency. Closed loop: exactly one operation in flight, so a slow
// lookup delays only this worker's next send — the latency histogram
// measures service time without the coordinated-omission distortion an
// open-loop generator would need correcting for (see
// docs/benchmarking.md). Leftover batches always drain (the whole tail,
// for a pure ingester with no lookup points), so the final record count
// is deterministic.
void RunServeWorker(
    const FairIndexService& service,
    const std::function<Result<long long>(AggregateBatch)>& ingest,
    int read_pct, size_t batch, Rng& coin, ServeWorker& me) {
  const size_t calls = (me.points.size() + batch - 1) / batch;
  const size_t warmup_calls = calls / 10;
  std::vector<PointLookupResult> out(batch);
  const auto t_begin = std::chrono::steady_clock::now();
  size_t write_next = 0;
  size_t call = 0;
  for (size_t off = 0; off < me.points.size();) {
    const bool write =
        write_next < me.write_batches.size() &&
        static_cast<int>(coin.NextBounded(100)) >= read_pct;
    if (write) {
      Result<long long> seq = ingest(std::move(me.write_batches[write_next]));
      if (!seq.ok()) {
        me.status = seq.status();
        return;
      }
      ++write_next;
      continue;
    }
    const size_t len = std::min(batch, me.points.size() - off);
    const auto t0 = std::chrono::steady_clock::now();
    service.LookupMany(Span<Point>(me.points.data() + off, len), out.data());
    const auto t1 = std::chrono::steady_clock::now();
    if (call >= warmup_calls) {
      me.latencies_us.push_back(
          std::chrono::duration<double, std::micro>(t1 - t0).count());
    }
    ++call;
    me.lookups += static_cast<long long>(len);
    off += len;
  }
  for (; write_next < me.write_batches.size(); ++write_next) {
    Result<long long> seq = ingest(std::move(me.write_batches[write_next]));
    if (!seq.ok()) {
      me.status = seq.status();
      return;
    }
  }
  me.seconds = std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - t_begin)
                   .count();
}

// One serve sweep point: the stream preamble builds (or, over a durable
// root that holds state, recovers) the service (maintain_policy = auto,
// so the background loop owns seals and refines), then serve_readers
// threads run RunServeWorker against it.
Result<ScenarioServeRow> RunOneServePoint(const ScenarioConfig& config,
                                          const Dataset& dataset,
                                          const Classifier& prototype,
                                          const ScenarioRun& run) {
  FAIRIDX_ASSIGN_OR_RETURN(StreamFeed feed,
                           MakeStreamFeed(config, dataset, prototype, run));
  FAIRIDX_ASSIGN_OR_RETURN(FairIndexServiceOptions service_options,
                           MakeServiceOptions(config, run));
  service_options.durability.wal_dir = PointWalDir(config, run);
  FAIRIDX_ASSIGN_OR_RETURN(
      OpenedService opened,
      RecoverOrCreateService(dataset.grid(), feed, service_options));
  const std::unique_ptr<FairIndexService>& service = opened.service;

  // Everything random or allocation-heavy happens BEFORE the clock.
  const int workers = config.serve_readers;
  std::vector<ServeWorker> state(static_cast<size_t>(workers));
  std::vector<Rng> coins;
  coins.reserve(static_cast<size_t>(workers));
  Rng base(run.seed);
  for (int w = 0; w < workers; ++w) {
    Rng point_rng = base.Fork(static_cast<uint64_t>(2 * w + 1));
    state[static_cast<size_t>(w)].points = MakeZipfPoints(
        dataset.grid(), config.serve_zipf, config.serve_lookups, point_rng);
    coins.push_back(base.Fork(static_cast<uint64_t>(2 * w + 2)));
  }
  {
    // Round-robin the ingest tail across workers: every record is owned
    // by exactly one thread and drained even if its coin never says
    // "write", so the final record count is deterministic.
    size_t next = opened.resume;
    int w = 0;
    while (next < feed.total) {
      const size_t end = std::min(
          feed.total, next + static_cast<size_t>(config.stream_batch));
      state[static_cast<size_t>(w % workers)].write_batches.push_back(
          feed.all.Slice(next, end));
      next = end;
      ++w;
    }
  }

  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(workers));
  for (int w = 0; w < workers; ++w) {
    threads.emplace_back([&, w]() {
      RunServeWorker(
          *service,
          [&](AggregateBatch batch) {
            return service->Ingest(std::move(batch));
          },
          config.serve_read_pct, static_cast<size_t>(config.serve_batch),
          coins[static_cast<size_t>(w)], state[static_cast<size_t>(w)]);
    });
  }
  for (std::thread& thread : threads) thread.join();
  const auto elapsed = std::chrono::steady_clock::now() - start;

  // Quiesce (join any in-flight maintenance pass), seal the tail, then
  // audit the final published state.
  service->StopMaintenance();
  FAIRIDX_RETURN_IF_ERROR(service->Seal().status());
  std::vector<double> latencies;
  long long lookups = 0;
  for (ServeWorker& worker : state) {
    FAIRIDX_RETURN_IF_ERROR(worker.status);
    lookups += worker.lookups;
    latencies.insert(latencies.end(), worker.latencies_us.begin(),
                     worker.latencies_us.end());
  }
  std::sort(latencies.begin(), latencies.end());
  const std::vector<RegionAggregate> final_regions = service->QueryRegions();

  ScenarioServeRow row;
  row.run = run;
  row.regions = static_cast<int>(final_regions.size());
  row.records = service->store().num_records();
  row.epochs = service->store().epoch();
  row.resplits = service->total_resplits();
  row.lookups = lookups;
  row.serve_seconds = std::chrono::duration<double>(elapsed).count();
  row.read_qps = row.serve_seconds > 0.0
                     ? static_cast<double>(lookups) / row.serve_seconds
                     : 0.0;
  row.p50_us = PercentileUs(latencies, 50.0);
  row.p95_us = PercentileUs(latencies, 95.0);
  row.p99_us = PercentileUs(latencies, 99.0);
  row.publish_stall_us = service->max_publish_stall_us();
  row.checkpoint_stall_us = service->max_checkpoint_stall_us();
  row.final_ence = RegionEnce(final_regions).ence;
  return row;
}

// One multi-tenant sweep point: every tenant.<name>.* section becomes a
// tenant of ONE TenantRegistry — its own grid/store/partition/WAL
// namespace and per-tenant MaintenancePolicy, all maintained by the one
// shared round-robin maintenance loop — and one worker thread per
// tenant runs RunServeWorker against it (a tenant with lookups = 0 just
// ingests flat out: the noisy neighbor). With a wal_dir the point
// recovers-or-creates per tenant, resuming each recovered tenant at the
// first record it never accepted; a tenant whose recovery fails comes
// back as a "degraded" row while the others keep serving.
Result<std::vector<ScenarioTenantRow>> RunOneMultiTenantPoint(
    const ScenarioConfig& config, const Dataset& dataset,
    const Classifier& prototype, const ScenarioRun& run) {
  const size_t n = config.tenants.size();
  // Each tenant's config is this point's config (the sweep axes narrowed
  // to `run`) with the tenant's overrides applied, so an override of
  // algorithm, height or seed moves the tenant off the point's value.
  ScenarioConfig point = config;
  point.algorithms = {run.algorithm};
  point.heights = {run.height};
  point.seeds = {run.seed};
  std::vector<ScenarioConfig> effs;
  std::vector<ScenarioRun> eff_runs;
  std::vector<StreamFeed> feeds;
  std::vector<TenantSpec> specs;
  std::vector<Grid> grids;
  std::vector<Dataset> owned;
  owned.reserve(n);  // Pointers into `owned` must survive push_back.
  effs.reserve(n);
  eff_runs.reserve(n);
  feeds.reserve(n);
  specs.reserve(n);
  grids.reserve(n);
  for (const ScenarioTenantConfig& tenant : config.tenants) {
    FAIRIDX_ASSIGN_OR_RETURN(ScenarioConfig tenant_config,
                             TenantEffectiveConfig(point, tenant));
    effs.push_back(std::move(tenant_config));
    const ScenarioConfig& eff = effs.back();
    eff_runs.push_back(
        ScenarioRun{eff.algorithms[0], eff.heights[0], eff.seeds[0]});
    const Dataset* data = &dataset;
    if (std::any_of(tenant.overrides.begin(), tenant.overrides.end(),
                    [](const auto& line) { return line.first == "city"; })) {
      // A city override gives the tenant its own dataset AND grid shape.
      FAIRIDX_ASSIGN_OR_RETURN(Dataset tenant_dataset,
                               LoadScenarioDataset(eff));
      owned.push_back(std::move(tenant_dataset));
      data = &owned.back();
    }
    FAIRIDX_ASSIGN_OR_RETURN(
        StreamFeed feed,
        MakeStreamFeed(eff, *data, prototype, eff_runs.back()));
    // The registry roots durability.wal_dir in its own namespace
    // (<point root>/<tenant>); the other durability knobs stand.
    FAIRIDX_ASSIGN_OR_RETURN(FairIndexServiceOptions options,
                             MakeServiceOptions(eff, eff_runs.back()));
    grids.push_back(data->grid());
    specs.push_back(TenantSpec{tenant.name, data->grid(),
                               feed.all.Slice(0, feed.warmup),
                               std::move(options)});
    feeds.push_back(std::move(feed));
  }

  // One durability root per sweep point (the registry appends /<tenant>
  // per tenant), same naming as the single-tenant workloads.
  TenantRegistryOptions registry_options;
  registry_options.wal_dir = PointWalDir(config, run);
  // Recover-or-create when durable (a rerun over the same root resumes
  // the previous run's tenants; a corrupt tenant degrades instead of
  // failing the point), plain create otherwise.
  FAIRIDX_ASSIGN_OR_RETURN(
      std::unique_ptr<TenantRegistry> registry,
      registry_options.wal_dir.empty()
          ? TenantRegistry::Create(std::move(specs), registry_options)
          : TenantRegistry::Recover(std::move(specs), registry_options));

  // Pre-build every worker's traffic before any clock starts. A
  // recovered tenant resumes at the first record it never accepted
  // (records stream in feed order and every accepted record was logged
  // exactly once, so its store count IS the resume position).
  std::vector<ServeWorker> workers(n);
  std::vector<long long> tail_records(n, 0);
  std::vector<Rng> coins;
  coins.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const ScenarioConfig& eff = effs[i];
    Rng base(eff_runs[i].seed);
    Rng point_rng = base.Fork(1);
    coins.push_back(base.Fork(2));
    const auto service = registry->tenant(config.tenants[i].name);
    if (!service.ok()) continue;  // Degraded: no traffic, a status row.
    workers[i].points =
        MakeZipfPoints(grids[i], eff.serve_zipf, eff.serve_lookups,
                       point_rng);
    size_t next = feeds[i].warmup;
    const long long accepted = (*service)->store().num_records();
    next = std::min(
        feeds[i].total,
        std::max(next, static_cast<size_t>(std::max(0LL, accepted))));
    while (next < feeds[i].total) {
      const size_t end = std::min(
          feeds[i].total, next + static_cast<size_t>(eff.stream_batch));
      workers[i].write_batches.push_back(feeds[i].all.Slice(next, end));
      tail_records[i] += static_cast<long long>(end - next);
      next = end;
    }
  }

  FAIRIDX_RETURN_IF_ERROR(registry->StartMaintenance());

  // One worker thread per serving tenant, ingesting through the
  // registry, so every tenant's latency histogram measures ITS service
  // time while the neighbors compete for the shared loop and CPU — the
  // cross-tenant interference readout.
  std::vector<std::thread> threads;
  threads.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const auto service = registry->tenant(config.tenants[i].name);
    if (!service.ok()) continue;
    threads.emplace_back([&, i, tenant = *service]() {
      const std::string& name = config.tenants[i].name;
      RunServeWorker(
          *tenant,
          [&](AggregateBatch batch) {
            return registry->Ingest(name, std::move(batch));
          },
          effs[i].serve_read_pct, static_cast<size_t>(config.serve_batch),
          coins[i], workers[i]);
    });
  }
  for (std::thread& thread : threads) thread.join();
  // Quiesce the shared loop (joins any in-flight pass) before the final
  // audit seals.
  registry->StopMaintenance();

  const std::vector<TenantStatus> statuses = registry->statuses();
  std::vector<ScenarioTenantRow> rows;
  rows.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    ScenarioTenantRow row;
    row.run = eff_runs[i];
    row.tenant = config.tenants[i].name;
    if (statuses[i].state == TenantState::kDegraded) {
      row.state = "degraded";
      rows.push_back(std::move(row));
      continue;
    }
    FAIRIDX_RETURN_IF_ERROR(workers[i].status);
    row.state = statuses[i].recovered ? "recovered" : "serving";
    FairIndexService* service =
        registry->tenant(config.tenants[i].name).value();
    FAIRIDX_RETURN_IF_ERROR(service->Seal().status());
    const std::vector<RegionAggregate> final_regions =
        service->QueryRegions();
    row.regions = static_cast<int>(final_regions.size());
    row.records = service->store().num_records();
    row.epochs = service->store().epoch();
    row.resplits = service->total_resplits();
    row.lookups = workers[i].lookups;
    std::sort(workers[i].latencies_us.begin(),
              workers[i].latencies_us.end());
    row.p50_us = PercentileUs(workers[i].latencies_us, 50.0);
    row.p99_us = PercentileUs(workers[i].latencies_us, 99.0);
    if (workers[i].seconds > 0.0) {
      row.read_qps =
          static_cast<double>(workers[i].lookups) / workers[i].seconds;
      row.ingest_rps =
          static_cast<double>(tail_records[i]) / workers[i].seconds;
    }
    row.final_ence = RegionEnce(final_regions).ence;
    rows.push_back(std::move(row));
  }
  return rows;
}

// Executes `fn` over every sweep point on the shared ThreadPool (at most
// config.threads at once), preserving sweep order. Each point is
// independent and internally deterministic, so the row vector is
// bit-identical at any thread count; on failures the error of the
// EARLIEST failing point (in sweep order) is returned, also regardless
// of thread count.
template <typename Row, typename Fn>
Result<std::vector<Row>> RunSweepPoints(const ScenarioConfig& config,
                                        const std::vector<ScenarioRun>& runs,
                                        Fn fn) {
  std::vector<Result<Row>> results(
      runs.size(), Result<Row>(InternalError("sweep point not executed")));
  ThreadPool::Shared().ParallelFor(
      runs.size(), config.threads,
      [&](size_t i) { results[i] = fn(runs[i]); });
  std::vector<Row> rows;
  rows.reserve(runs.size());
  for (Result<Row>& result : results) {
    if (!result.ok()) return result.status();
    rows.push_back(std::move(result).value());
  }
  return rows;
}

}  // namespace

Result<ScenarioReport> RunScenario(const ScenarioConfig& config,
                                   const Dataset& dataset) {
  FAIRIDX_RETURN_IF_ERROR(ValidateScenario(config));
  const std::unique_ptr<Classifier> prototype =
      MakeClassifier(config.classifier);
  const std::vector<ScenarioRun> runs = ExpandScenario(config);
  ScenarioReport report;
  report.workload = config.workload;
  if (config.workload == ScenarioWorkload::kMultiTenant) {
    // Each sweep point yields one row PER TENANT; flatten in sweep
    // order so tenants stay grouped by point, section-ordered within.
    FAIRIDX_ASSIGN_OR_RETURN(
        std::vector<std::vector<ScenarioTenantRow>> groups,
        (RunSweepPoints<std::vector<ScenarioTenantRow>>(
            config, runs, [&](const ScenarioRun& run) {
              return RunOneMultiTenantPoint(config, dataset, *prototype,
                                            run);
            })));
    for (std::vector<ScenarioTenantRow>& group : groups) {
      for (ScenarioTenantRow& row : group) {
        report.tenant_rows.push_back(std::move(row));
      }
    }
  } else if (config.workload == ScenarioWorkload::kServe) {
    FAIRIDX_ASSIGN_OR_RETURN(
        report.serve_rows,
        (RunSweepPoints<ScenarioServeRow>(
            config, runs, [&](const ScenarioRun& run) {
              return RunOneServePoint(config, dataset, *prototype, run);
            })));
  } else if (config.workload == ScenarioWorkload::kStream) {
    FAIRIDX_ASSIGN_OR_RETURN(
        report.stream_rows,
        (RunSweepPoints<ScenarioStreamRow>(
            config, runs, [&](const ScenarioRun& run) {
              return RunOneStreamPoint(config, dataset, *prototype, run);
            })));
  } else {
    FAIRIDX_ASSIGN_OR_RETURN(
        report.rows,
        (RunSweepPoints<ScenarioRow>(
            config, runs, [&](const ScenarioRun& run) {
              return RunOnePipelinePoint(config, dataset, *prototype, run);
            })));
  }
  return report;
}

Result<ScenarioReport> RunScenario(const ScenarioConfig& config) {
  FAIRIDX_ASSIGN_OR_RETURN(Dataset dataset, LoadScenarioDataset(config));
  return RunScenario(config, dataset);
}

}  // namespace fairidx
