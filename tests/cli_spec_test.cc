// Anti-rot checks for the CLI flag spec (tools/cli_spec.h): the spec is
// the single source the binary's --help text and flag validation are
// generated from, so these tests pin (a) the spec against a literal
// expected flag list per subcommand — a dropped or renamed flag fails
// here, (b) the generated help text against the spec, and (c) the
// README flag table against the spec, the same doc-equality contract
// serve_scenario_test.cc enforces for docs/scenario_reference.md.

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "../tools/cli_spec.h"
#include "core/scenario.h"

namespace fairidx {
namespace cli {
namespace {

// The accepted stream flag set, spelled out: every stream/serve/
// durability flag added through PRs 6-10 must stay both parseable and
// documented. Editing this list is the deliberate act that changes the
// CLI surface.
TEST(CliSpecTest, StreamFlagListIsPinned) {
  const std::vector<std::string> expected = {
      "city",          "csv",
      "algorithm",     "height",
      "threads",       "seed",
      "batch",         "warmup-pct",
      "shards",        "seal-records",
      "refine-bound",  "auto-maintain",
      "seal-interval", "wal",
      "tenant",        "checkpoint-interval",
      "full-snapshot-interval",
      "fsync",         "retain-epochs",
      "regions-out",   "crash-after-batches",
      "help"};
  EXPECT_EQ(CliFlagNamesFor("stream"), expected);
}

TEST(CliSpecTest, PipelineSubcommandFlagListsArePinned) {
  const std::vector<std::string> run = {"city",       "csv",  "algorithm",
                                        "height",     "classifier",
                                        "task",       "threads", "help"};
  EXPECT_EQ(CliFlagNamesFor("run"), run);
  const std::vector<std::string> generate = {"city", "csv", "out", "help"};
  EXPECT_EQ(CliFlagNamesFor("generate"), generate);
  const std::vector<std::string> exp = {"city",    "csv", "algorithm",
                                        "height",  "threads", "out",
                                        "wkt",     "help"};
  EXPECT_EQ(CliFlagNamesFor("export"), exp);
  const std::vector<std::string> disparity = {"city", "csv", "top", "help"};
  EXPECT_EQ(CliFlagNamesFor("disparity"), disparity);
}

// The help text is generated from the spec, so every flag the parser
// accepts appears in --help verbatim — the "--help audit" contract.
TEST(CliSpecTest, HelpTextNamesEveryFlag) {
  const std::string help = CliHelpText();
  for (const CliFlagSpec& spec : kCliFlags) {
    EXPECT_NE(help.find("--" + std::string(spec.name)), std::string::npos)
        << spec.name;
    EXPECT_NE(help.find(spec.help), std::string::npos) << spec.name;
  }
  // Commands and the value hints show up too.
  EXPECT_NE(help.find("generate|run|sweep|disparity|export|stream|check"),
            std::string::npos);
}

// The README flag table must list exactly the spec's flags, in spec
// order — a new flag without a README row, a row for a removed flag, or
// a reordering all fail here.
TEST(CliSpecTest, ReadmeFlagTableMatchesSpec) {
  namespace fs = std::filesystem;
  const fs::path readme =
      fs::path(__FILE__).parent_path().parent_path() / "README.md";
  ASSERT_TRUE(fs::exists(readme)) << "missing " << readme;
  std::ifstream in(readme);
  std::vector<std::string> table_flags;
  std::string line;
  const std::string prefix = "| `--";
  while (std::getline(in, line)) {
    if (line.rfind(prefix, 0) != 0) continue;
    const size_t end = line.find('`', prefix.size());
    ASSERT_NE(end, std::string::npos) << line;
    table_flags.push_back(line.substr(prefix.size(), end - prefix.size()));
  }
  std::vector<std::string> spec_flags;
  for (const CliFlagSpec& spec : kCliFlags) {
    spec_flags.push_back(spec.name);
  }
  EXPECT_EQ(table_flags, spec_flags);
}

// `stream` applies each flag as the scenario key its spec row names, so
// every stream flag must name a key the scenario parser accepts, or be
// one of the few that exist only on the CLI. No two flags may share a
// key (flag order would then decide the setting), and a boolean flag's
// fixed value must parse.
TEST(CliSpecTest, StreamFlagsMapToScenarioKeys) {
  const std::vector<std::string> cli_only = {"tenant", "regions-out",
                                             "crash-after-batches", "help"};
  const std::vector<std::string> keys = ScenarioKeyNames();
  std::vector<std::string> used;
  for (const CliFlagSpec& spec : kCliFlags) {
    if (!CliCommandHasFlag("stream", spec.name)) {
      EXPECT_STREQ(spec.scenario_key, "") << spec.name;
      continue;
    }
    const std::string key = spec.scenario_key;
    if (std::find(cli_only.begin(), cli_only.end(), spec.name) !=
        cli_only.end()) {
      EXPECT_EQ(key, "") << spec.name;
      continue;
    }
    EXPECT_NE(std::find(keys.begin(), keys.end(), key), keys.end())
        << "--" << spec.name << " -> '" << key << "'";
    EXPECT_EQ(std::find(used.begin(), used.end(), key), used.end()) << key;
    used.push_back(key);
    if (spec.value[0] == '\0') {
      ScenarioConfig config;
      EXPECT_TRUE(SetScenarioKey(key, spec.scenario_value, &config).ok())
          << spec.name;
    }
  }
}

TEST(CliSpecTest, CommandMembershipQueries) {
  EXPECT_TRUE(CliCommandHasFlag("stream", "tenant"));
  EXPECT_TRUE(CliCommandHasFlag("stream", "wal"));
  EXPECT_FALSE(CliCommandHasFlag("run", "tenant"));
  EXPECT_FALSE(CliCommandHasFlag("stream", "classifier"));
  EXPECT_FALSE(CliCommandHasFlag("stream", "no-such-flag"));
  // Substring names must not leak through the space-delimited match.
  EXPECT_FALSE(CliCommandHasFlag("strea", "wal"));
  EXPECT_FALSE(CliCommandHasFlag("am", "wal"));
}

}  // namespace
}  // namespace cli
}  // namespace fairidx
