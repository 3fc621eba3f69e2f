//===- support/CommandLine.h - Tiny option parser --------------*- C++ -*-===//
//
// Part of the dtbgc project (Barrett & Zorn DTB reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A deliberately tiny command-line option parser for the example and
/// benchmark executables: `--name=value`, `--name value`, and boolean
/// `--flag` forms, plus positional arguments and generated `--help`.
///
//===----------------------------------------------------------------------===//

#ifndef DTB_SUPPORT_COMMANDLINE_H
#define DTB_SUPPORT_COMMANDLINE_H

#include <cstdint>
#include <string>
#include <vector>

namespace dtb {

/// Declarative option table + parser. Register options, then call parse().
class OptionParser {
public:
  explicit OptionParser(std::string ProgramDescription);

  /// Registers a string option; \p Target keeps its prior value as default.
  void addString(std::string Name, std::string Help, std::string *Target);
  /// Registers an unsigned integer option (accepts k/m/g suffixes, decimal).
  void addUInt(std::string Name, std::string Help, uint64_t *Target);
  /// Registers a floating-point option.
  void addDouble(std::string Name, std::string Help, double *Target);
  /// Registers a boolean flag (`--flag` sets true, `--flag=false` clears).
  void addFlag(std::string Name, std::string Help, bool *Target);

  /// Registers a single-dash alias for an already-registered option, so
  /// `-j 4` and `-j4` behave like `--threads 4`. Single-dash arguments
  /// that match no alias remain positionals.
  void addShortAlias(std::string ShortName, std::string OptionName);

  /// Parses \p Argv. Returns false (after printing a diagnostic or help
  /// text) if the program should exit; positional arguments are collected
  /// into positionals().
  bool parse(int Argc, const char *const *Argv);

  const std::vector<std::string> &positionals() const { return Positionals; }

  /// Prints the generated help text.
  void printHelp(const char *Argv0) const;

private:
  enum class OptionKind { String, UInt, Double, Flag };
  struct Option {
    std::string Name;
    std::string Help;
    OptionKind Kind;
    void *Target;
  };

  const Option *findOption(const std::string &Name) const;
  bool applyValue(const Option &Opt, const std::string &Value);

  std::string Description;
  std::vector<Option> Options;
  std::vector<std::pair<std::string, std::string>> ShortAliases;
  std::vector<std::string> Positionals;
};

/// Parses "123", "64k", "1m", "2g" style sizes; returns false on malformed
/// input, including a sign, leading space, or a size above UINT64_MAX.
bool parseScaledUInt(const std::string &Text, uint64_t *Out);

} // namespace dtb

#endif // DTB_SUPPORT_COMMANDLINE_H
