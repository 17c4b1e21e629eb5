// Tiny command-line flag parser shared by the bench and example binaries.
//
// Supports `--name=value`, `--name value`, and bare boolean `--name`.
// Malformed input (duplicate flag definitions) is reported through
// status(); unknown-flag rejection for the `--metrics-*` / `--trace-*`
// families lives next to their registry (obs/export.h) and is composed by
// bench_common's RequireValidFlags, which also refuses every `--fault-*`
// flag, so experiment scripts fail loudly instead of silently running an
// un-instrumented configuration.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"

namespace dcart {

class CliFlags {
 public:
  /// Parse argv.  On malformed input, `status()` carries the error (and
  /// `ok()` is false).
  CliFlags(int argc, char** argv);

  bool ok() const { return status_.ok(); }

  /// Parse-time errors: today, a flag defined twice (`--keys=1 --keys=2`),
  /// where silently keeping either value runs a config the user didn't ask
  /// for and reports it as if they had.
  const Status& status() const { return status_; }

  bool Has(const std::string& name) const;
  std::string GetString(const std::string& name,
                        const std::string& default_value) const;
  std::int64_t GetInt(const std::string& name,
                      std::int64_t default_value) const;
  double GetDouble(const std::string& name, double default_value) const;
  bool GetBool(const std::string& name, bool default_value) const;

  /// Every flag name that was passed, sorted (for family validators).
  std::vector<std::string> FlagNames() const;

  /// Positional (non-flag) arguments in order.
  const std::vector<std::string>& positional() const { return positional_; }

 private:
  void Set(std::string name, std::string value);

  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
  Status status_;
};

}  // namespace dcart
