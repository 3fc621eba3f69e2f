//===- support/CommandLine.cpp --------------------------------------------==//

#include "support/CommandLine.h"

#include <cctype>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>

using namespace dtb;

bool dtb::parseScaledUInt(const std::string &Text, uint64_t *Out) {
  // strtoull alone would accept leading space and a sign ("-1" negates).
  if (Text.empty() || !std::isdigit(static_cast<unsigned char>(Text[0])))
    return false;
  char *End = nullptr;
  errno = 0;
  unsigned long long Value = std::strtoull(Text.c_str(), &End, 10);
  if (errno != 0)
    return false;
  uint64_t Scale = 1;
  if (*End != '\0') {
    switch (std::tolower(static_cast<unsigned char>(*End))) {
    case 'k':
      Scale = 1000;
      break;
    case 'm':
      Scale = 1000 * 1000;
      break;
    case 'g':
      Scale = 1000ull * 1000 * 1000;
      break;
    default:
      return false;
    }
    if (End[1] != '\0' || Value > UINT64_MAX / Scale)
      return false;
  }
  *Out = static_cast<uint64_t>(Value) * Scale;
  return true;
}

OptionParser::OptionParser(std::string ProgramDescription)
    : Description(std::move(ProgramDescription)) {}

void OptionParser::addString(std::string Name, std::string Help,
                             std::string *Target) {
  Options.push_back(
      {std::move(Name), std::move(Help), OptionKind::String, Target});
}

void OptionParser::addUInt(std::string Name, std::string Help,
                           uint64_t *Target) {
  Options.push_back(
      {std::move(Name), std::move(Help), OptionKind::UInt, Target});
}

void OptionParser::addDouble(std::string Name, std::string Help,
                             double *Target) {
  Options.push_back(
      {std::move(Name), std::move(Help), OptionKind::Double, Target});
}

void OptionParser::addFlag(std::string Name, std::string Help, bool *Target) {
  Options.push_back(
      {std::move(Name), std::move(Help), OptionKind::Flag, Target});
}

void OptionParser::addShortAlias(std::string ShortName,
                                 std::string OptionName) {
  ShortAliases.emplace_back(std::move(ShortName), std::move(OptionName));
}

const OptionParser::Option *
OptionParser::findOption(const std::string &Name) const {
  for (const Option &Opt : Options)
    if (Opt.Name == Name)
      return &Opt;
  return nullptr;
}

bool OptionParser::applyValue(const Option &Opt, const std::string &Value) {
  switch (Opt.Kind) {
  case OptionKind::String:
    *static_cast<std::string *>(Opt.Target) = Value;
    return true;
  case OptionKind::UInt:
    return parseScaledUInt(Value, static_cast<uint64_t *>(Opt.Target));
  case OptionKind::Double: {
    char *End = nullptr;
    double D = std::strtod(Value.c_str(), &End);
    if (End == Value.c_str() || *End != '\0')
      return false;
    *static_cast<double *>(Opt.Target) = D;
    return true;
  }
  case OptionKind::Flag:
    if (Value == "true" || Value == "1") {
      *static_cast<bool *>(Opt.Target) = true;
      return true;
    }
    if (Value == "false" || Value == "0") {
      *static_cast<bool *>(Opt.Target) = false;
      return true;
    }
    return false;
  }
  return false;
}

bool OptionParser::parse(int Argc, const char *const *Argv) {
  for (int I = 1; I < Argc; ++I) {
    const char *Arg = Argv[I];
    if (std::strcmp(Arg, "--help") == 0 || std::strcmp(Arg, "-h") == 0) {
      printHelp(Argv[0]);
      return false;
    }
    if (std::strncmp(Arg, "--", 2) != 0) {
      // Single-dash short aliases: `-j 4` or `-j4`. Any other single-dash
      // argument is an unknown option; a lone `-` and anything without a
      // leading dash are positionals.
      if (Arg[0] == '-' && Arg[1] != '\0') {
        const Option *Aliased = nullptr;
        std::string Attached;
        for (const auto &[Short, Full] : ShortAliases) {
          if (std::strncmp(Arg + 1, Short.c_str(), Short.size()) != 0)
            continue;
          Aliased = findOption(Full);
          Attached = Arg + 1 + Short.size();
          break;
        }
        if (Aliased) {
          std::string Value = Attached;
          if (Value.empty()) {
            if (Aliased->Kind == OptionKind::Flag) {
              *static_cast<bool *>(Aliased->Target) = true;
              continue;
            }
            if (I + 1 >= Argc) {
              std::fprintf(stderr, "error: option '%s' requires a value\n",
                           Arg);
              return false;
            }
            Value = Argv[++I];
          }
          if (!applyValue(*Aliased, Value)) {
            std::fprintf(stderr,
                         "error: invalid value '%s' for option '%s'\n",
                         Value.c_str(), Arg);
            return false;
          }
          continue;
        }
        std::fprintf(stderr, "error: unknown option '%s' (try --help)\n",
                     Arg);
        return false;
      }
      if (!TakesPositionals) {
        std::fprintf(stderr, "error: unexpected argument '%s' (try --help)\n",
                     Arg);
        return false;
      }
      Positionals.push_back(Arg);
      continue;
    }

    std::string Name(Arg + 2);
    std::string Value;
    bool HaveValue = false;
    if (size_t Eq = Name.find('='); Eq != std::string::npos) {
      Value = Name.substr(Eq + 1);
      Name.resize(Eq);
      HaveValue = true;
    }

    const Option *Opt = findOption(Name);
    if (!Opt) {
      std::fprintf(stderr, "error: unknown option '--%s' (try --help)\n",
                   Name.c_str());
      return false;
    }

    if (!HaveValue) {
      if (Opt->Kind == OptionKind::Flag) {
        *static_cast<bool *>(Opt->Target) = true;
        continue;
      }
      if (I + 1 >= Argc) {
        std::fprintf(stderr, "error: option '--%s' requires a value\n",
                     Name.c_str());
        return false;
      }
      Value = Argv[++I];
    }

    if (!applyValue(*Opt, Value)) {
      std::fprintf(stderr, "error: invalid value '%s' for option '--%s'\n",
                   Value.c_str(), Name.c_str());
      return false;
    }
  }
  return true;
}

void OptionParser::printHelp(const char *Argv0) const {
  std::printf("%s — %s\n\nOptions:\n", Argv0, Description.c_str());
  for (const Option &Opt : Options) {
    const char *Suffix = Opt.Kind == OptionKind::Flag ? "" : "=<value>";
    std::printf("  --%s%s\n      %s\n", Opt.Name.c_str(), Suffix,
                Opt.Help.c_str());
  }
  std::printf("  --help\n      Show this message.\n");
}
