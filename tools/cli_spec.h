// Copyright 2026 The fairidx Authors.
// Licensed under the Apache License, Version 2.0.
//
// The fairidx_cli flag specification: one table naming every flag, the
// subcommands it applies to, its value hint, its one-line help, and the
// scenario key `stream` sets from it.
// fairidx_cli.cc generates `--help` from this table AND validates
// parsed flags against it (an unknown flag is an error, not a silent
// no-op), so the help text and the accepted-flag set cannot drift
// apart. tests/cli_spec_test.cc pins the table against the README flag
// table the same way serve_scenario_test.cc pins ScenarioKeyNames()
// against docs/scenario_reference.md, and checks that every scenario
// key column names a key the scenario parser accepts.
//
// Header-only on purpose: the test includes it relatively
// (#include "../tools/cli_spec.h") without any build wiring.

#ifndef FAIRIDX_TOOLS_CLI_SPEC_H_
#define FAIRIDX_TOOLS_CLI_SPEC_H_

#include <string>
#include <vector>

namespace fairidx {
namespace cli {

struct CliFlagSpec {
  /// Flag name without the leading `--`.
  const char* name;
  /// Space-separated subcommands the flag applies to.
  const char* commands;
  /// Value placeholder for help text; "" marks a boolean flag.
  const char* value;
  /// One-line help.
  const char* help;
  /// The scenario key `stream` sets from this flag ("" for the flags
  /// that exist only on the CLI, and for flags `stream` does not take).
  /// `stream` applies each given flag through SetScenarioKey, so a flag
  /// and its key are one setting with one parser and one validator.
  const char* scenario_key = "";
  /// For a boolean flag: the value its presence gives scenario_key.
  const char* scenario_value = "";
};

/// Every flag fairidx_cli accepts, grouped by theme. Order is the
/// `--help` display order.
inline constexpr CliFlagSpec kCliFlags[] = {
    // Dataset selection (shared by every data-driven subcommand).
    {"city", "generate run sweep disparity export stream", "la|houston",
     "synthetic city to generate (default la)", "city"},
    {"csv", "generate run sweep disparity export stream", "FILE",
     "EdGap-style CSV extract instead of a synthetic city", "csv"},
    // Batch pipeline.
    {"algorithm", "run sweep export stream", "NAME",
     "partition algorithm (fair_kd_tree|median_kd_tree|"
     "iterative_fair_kd_tree|grid_reweighting|fair_quadtree)",
     "algorithm"},
    {"height", "run export stream", "N", "partition tree height (default 6)",
     "height"},
    {"classifier", "run sweep", "lr|tree|nb",
     "classifier trained per region (default lr)"},
    {"task", "run sweep", "K", "label column index (default 0)"},
    {"threads", "run sweep export stream", "N",
     "parallel partition-build / store threads (default 1)", "threads"},
    {"out", "generate export", "FILE", "output path"},
    {"wkt", "export", "FILE", "also write region polygons as WKT"},
    {"top", "disparity", "K", "zip codes per table side (default 10)"},
    // Streaming / serving.
    {"seed", "stream", "N", "train/test split seed (default 20240601)",
     "seed"},
    {"batch", "stream", "N", "records per ingest batch (default 200)",
     "stream_batch"},
    {"warmup-pct", "stream", "P",
     "warmup prefix percent that builds the initial partition (default 50)",
     "stream_warmup_pct"},
    {"shards", "stream", "N",
     "delta-store shards the seal fold splits across (default 1)",
     "stream_shards"},
    {"seal-records", "stream", "N",
     "records pending before an epoch seal (0 = seal every batch)",
     "stream_seal_records"},
    {"refine-bound", "stream", "B",
     "incremental subtree re-splits when region drift exceeds B",
     "stream_refine_bound"},
    {"auto-maintain", "stream", "",
     "background maintenance thread seals/refines instead of the loop",
     "maintain_policy", "auto"},
    {"seal-interval", "stream", "S",
     "auto-maintain wall-clock seal cadence in seconds", "seal_interval"},
    // Durability.
    {"wal", "stream", "DIR",
     "durable mode: WAL + checkpoints in DIR; recovers and resumes when "
     "DIR already holds a checkpoint",
     "wal_dir"},
    {"tenant", "stream", "NAME",
     "tenant namespace: log and checkpoint under DIR/NAME (the "
     "TenantRegistry on-disk layout; see docs/operations.md)"},
    {"checkpoint-interval", "stream", "N",
     "checkpoint every N sealed epochs (default 8)", "checkpoint_interval"},
    {"full-snapshot-interval", "stream", "N",
     "every Nth checkpoint is a full snapshot, the rest O(changed) "
     "deltas (1 = all full)",
     "full_snapshot_interval"},
    {"fsync", "stream", "none|batch|always",
     "stable-storage window for WAL appends (default batch)", "fsync"},
    {"retain-epochs", "stream", "K",
     "bound the sealed-snapshot history to K epochs (0 = keep all)",
     "retain_epochs"},
    {"regions-out", "stream", "FILE",
     "write final region aggregates with full precision for exact diffing"},
    {"crash-after-batches", "stream", "N",
     "testing: raise SIGKILL after batch N (rerun with the same --wal "
     "to recover)"},
    {"help", "generate run sweep disparity export stream check", "",
     "print usage and exit"},
};

/// True when `flag` (no leading --) is accepted by `command`.
inline bool CliCommandHasFlag(const std::string& command,
                              const std::string& flag) {
  for (const CliFlagSpec& spec : kCliFlags) {
    if (flag != spec.name) continue;
    const std::string commands = " " + std::string(spec.commands) + " ";
    if (commands.find(" " + command + " ") != std::string::npos) return true;
  }
  return false;
}

/// The accepted flag names for one subcommand, in table order.
inline std::vector<std::string> CliFlagNamesFor(const std::string& command) {
  std::vector<std::string> names;
  for (const CliFlagSpec& spec : kCliFlags) {
    if (CliCommandHasFlag(command, spec.name)) names.push_back(spec.name);
  }
  return names;
}

/// The full `--help` text, generated from kCliFlags so it can never
/// miss a flag the parser accepts (tests/cli_spec_test.cc pins this).
inline std::string CliHelpText() {
  std::string text =
      "usage: fairidx_cli "
      "<generate|run|sweep|disparity|export|stream|check> [flags]\n"
      "       fairidx_cli run <scenario.cfg>    declarative sweep "
      "(workload = pipeline|stream|serve|multi_tenant; see\n"
      "                docs/scenario_reference.md and "
      "examples/scenarios/)\n"
      "       fairidx_cli check <scenario.cfg>  parse + validate a "
      "scenario file without running it\n"
      "\n"
      "flags (each line: --flag VALUE   [subcommands]   what it does):\n";
  for (const CliFlagSpec& spec : kCliFlags) {
    text += "  --" + std::string(spec.name);
    if (spec.value[0] != '\0') text += " " + std::string(spec.value);
    text += "\n      [" + std::string(spec.commands) + "] " +
            std::string(spec.help);
    if (spec.scenario_key[0] != '\0') {
      text += " (stream: scenario key " + std::string(spec.scenario_key);
      if (spec.scenario_value[0] != '\0') {
        text += " = " + std::string(spec.scenario_value);
      }
      text += ")";
    }
    text += "\n";
  }
  text +=
      "\nsee the fairidx_cli.cc file header and README.md for the full "
      "reference\n";
  return text;
}

}  // namespace cli
}  // namespace fairidx

#endif  // FAIRIDX_TOOLS_CLI_SPEC_H_
