// One --flag=value table for the example CLIs.
//
// Each flag is declared once: its name, its help text and a setter that
// validates the value (src/sim/parse_number.h) and writes it straight into
// the caller's config. --help lists every flag with the value it held when
// it was declared as its default. An unknown flag or a bad value prints
// `--flag='value': reason` to stderr and exits 1, before the CLI builds
// anything. Flags are `--flag=value` or a bare `--switch`, never
// `--flag value`.

#ifndef THEMIS_EXAMPLES_FLAGS_H_
#define THEMIS_EXAMPLES_FLAGS_H_

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/core/experiment.h"
#include "src/sim/parse_number.h"
#include "src/sim/time.h"

namespace themis {

// Bounds the flags share. Named assumptions:
//   DIM:  a fabric dimension (ToRs, spines, hosts per ToR, groups) is at
//         most 4096, so host counts and ordinals stay far inside int.
//   RATE: a link speed is a whole number of Gbps up to 100 Tbps, so
//         Rate::Gbps cannot overflow.
//   TIME: a duration flag is at most one hour of simulated time, so a
//         deadline of a few dozen such durations still fits TimePs.
inline constexpr int kMaxFabricDim = 4096;
inline constexpr int64_t kMaxRateGbps = 100'000;
inline constexpr TimePs kMaxFlagDuration = 3600 * kSecond;

class FlagTable {
 public:
  // Stores a validated `value`, or returns false and says why in `reason`.
  using Setter = std::function<bool(const std::string& value, std::string* reason)>;

  explicit FlagTable(std::string title) : title_(std::move(title)) {}

  // `--name=meta`; `shown` is the default --help prints (empty: none).
  void Value(std::string name, std::string meta, std::string help, std::string shown,
             Setter set) {
    flags_.push_back(
        {std::move(name), std::move(meta), std::move(help), std::move(shown), std::move(set)});
  }

  // A bare `--name` that takes no value.
  void Switch(std::string name, std::string help, std::function<void()> on) {
    Value(std::move(name), "", std::move(help), "",
          [on = std::move(on)](const std::string&, std::string*) {
            on();
            return true;
          });
  }

  void Text(std::string name, std::string meta, std::string* target, std::string help) {
    Value(std::move(name), std::move(meta), std::move(help), *target,
          [target](const std::string& value, std::string*) {
            *target = value;
            return true;
          });
  }

  template <typename T>
  void Number(std::string name, T* target, T lo, T hi, std::string help) {
    Value(std::move(name), std::is_floating_point_v<T> ? "F" : "N", std::move(help),
          NumberToString(*target), [target, lo, hi](const std::string& value, std::string* reason) {
            return ParseNumber(value, lo, hi, target, reason);
          });
  }

  // A whole number of `unit`s (kMicrosecond for --window-us), stored in ps.
  void Duration(std::string name, TimePs* target, TimePs unit, int64_t lo, std::string help) {
    Value(std::move(name), "N", std::move(help), NumberToString(*target / unit),
          [target, unit, lo](const std::string& value, std::string* reason) {
            int64_t count = 0;
            if (!ParseNumber(value, lo, kMaxFlagDuration / unit, &count, reason)) {
              return false;
            }
            *target = count * unit;
            return true;
          });
  }

  // One of `names`; later names that repeat an earlier value are aliases
  // and stay out of the help line.
  template <typename E>
  void Choice(std::string name, E* target, std::vector<std::pair<std::string, E>> names,
              std::string help) {
    std::string meta;
    std::string shown;
    for (size_t i = 0; i < names.size(); ++i) {
      bool alias = false;
      for (size_t j = 0; j < i; ++j) {
        alias = alias || names[j].second == names[i].second;
      }
      if (!alias) {
        meta += (meta.empty() ? "" : "|") + names[i].first;
        shown = names[i].second == *target ? names[i].first : shown;
      }
    }
    Value(std::move(name), meta, std::move(help), shown,
          [target, names = std::move(names), meta](const std::string& value, std::string* reason) {
            for (const auto& [text, choice] : names) {
              if (text == value) {
                *target = choice;
                return true;
              }
            }
            *reason = "expected " + meta;
            return false;
          });
  }

  // Applies argv[1..] in order. --help / -h prints every flag and exits 0.
  void Parse(int argc, char** argv) const {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--help" || arg == "-h") {
        PrintHelp();
        std::exit(0);
      }
      const size_t eq = arg.find('=');
      const bool has_value = eq != std::string::npos;
      const std::string name = arg.substr(0, eq);
      const std::string value = has_value ? arg.substr(eq + 1) : "";
      std::string reason = "unknown flag (see --help)";
      for (const Flag& flag : flags_) {
        if (flag.name != name) {
          continue;
        }
        if (flag.meta.empty() == has_value) {
          reason = has_value ? "takes no value" : "expects " + name + "=" + flag.meta;
        } else if (flag.set(value, &reason)) {
          reason.clear();
        }
        break;
      }
      if (!reason.empty()) {
        const std::string shown = has_value ? name + "='" + value + "'" : name;
        std::fprintf(stderr, "%s: %s\n", shown.c_str(), reason.c_str());
        std::exit(1);
      }
    }
  }

 private:
  void PrintHelp() const {
    constexpr int kColumn = 26;
    std::printf("%s\n\n", title_.c_str());
    for (const Flag& flag : flags_) {
      const std::string lhs = flag.meta.empty() ? flag.name : flag.name + "=" + flag.meta;
      std::string help = flag.help;
      if (!flag.shown.empty()) {
        help += " (default " + flag.shown + ")";
      }
      std::string indent(kColumn + 3, ' ');
      for (size_t nl = help.find('\n'); nl != std::string::npos; nl = help.find('\n', nl + 1)) {
        help.insert(nl + 1, indent);
      }
      if (static_cast<int>(lhs.size()) > kColumn) {
        std::printf("  %s\n%s%s\n", lhs.c_str(), indent.c_str(), help.c_str());
      } else {
        std::printf("  %-*s %s\n", kColumn, lhs.c_str(), help.c_str());
      }
    }
  }

  struct Flag {
    std::string name;  // "--tors"
    std::string meta;  // "N", "PATH", "a|b"; empty for a switch
    std::string help;
    std::string shown;
    Setter set;
  };

  std::string title_;
  std::vector<Flag> flags_;
};

// The fabric, scheme, loss-recovery and telemetry flags themis_cli and
// workload_cli share, written straight into `config`.
inline void AddExperimentFlags(FlagTable* flags, ExperimentConfig* config,
                               std::string* trace_path, std::string* counters_path) {
  flags->Choice("--scheme", &config->scheme,
                {{"ecmp", Scheme::kEcmp},
                 {"ar", Scheme::kAdaptiveRouting},
                 {"adaptive", Scheme::kAdaptiveRouting},
                 {"rps", Scheme::kRandomSpray},
                 {"spray", Scheme::kRandomSpray},
                 {"flowlet", Scheme::kFlowlet},
                 {"reorder", Scheme::kSprayReorder},
                 {"themis", Scheme::kThemis}},
                "load balancing");
  flags->Number("--tors", &config->num_tors, 1, kMaxFabricDim, "leaf-spine ToR switches");
  flags->Number("--spines", &config->num_spines, 1, kMaxFabricDim, "leaf-spine spine switches");
  flags->Number("--hosts-per-tor", &config->hosts_per_tor, 1, kMaxFabricDim,
                "leaf-spine hosts under each ToR");
  flags->Value("--rate-gbps", "N", "link speed",
               NumberToString(config->link_rate.bps() / Rate::Gbps(1).bps()),
               [config](const std::string& value, std::string* reason) {
                 int64_t gbps = 0;
                 if (!ParseNumber<int64_t>(value, 1, kMaxRateGbps, &gbps, reason)) {
                   return false;
                 }
                 config->link_rate = Rate::Gbps(gbps);
                 return true;
               });
  flags->Number<uint64_t>("--seed", &config->seed, 0, UINT64_MAX, "RNG seed");
  flags->Switch("--no-pfc", "disable priority flow control",
                [config] { config->pfc_enabled = false; });
  flags->Switch("--no-compensation", "disable Themis NACK compensation",
                [config] { config->themis_compensation = false; });
  flags->Switch("--no-grace", "disable the pause-aware NACK grace window",
                [config] { config->themis_pause_grace = false; });
  flags->Text("--trace", "PATH", trace_path,
              "write a Chrome trace_event JSON of sim events (Perfetto)");
  flags->Text("--counters", "PATH", counters_path,
              "write the sampled per-port/per-QP counters as CSV");
}

}  // namespace themis

#endif  // THEMIS_EXAMPLES_FLAGS_H_
