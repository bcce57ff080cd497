#include "src/scenario/scenario_script.h"

#include <cctype>
#include <climits>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <sstream>

#include "src/sim/parse_number.h"

namespace themis {
namespace {

// Splits a line into whitespace-separated tokens, dropping `#` comments.
std::vector<std::string> Tokenize(const std::string& line) {
  std::vector<std::string> tokens;
  std::string current;
  for (char c : line) {
    if (c == '#') {
      break;
    }
    if (std::isspace(static_cast<unsigned char>(c))) {
      if (!current.empty()) {
        tokens.push_back(current);
        current.clear();
      }
    } else {
      current.push_back(c);
    }
  }
  if (!current.empty()) {
    tokens.push_back(current);
  }
  return tokens;
}

// Parses "100us" / "2ms" / "1500ns" / "1s" / "5000ps" into picoseconds.
bool ParseTime(const std::string& text, TimePs* out) {
  size_t pos = 0;
  while (pos < text.size() &&
         (std::isdigit(static_cast<unsigned char>(text[pos])) || text[pos] == '.')) {
    ++pos;
  }
  if (pos == 0 || pos == text.size()) {
    return false;
  }
  const std::string digits = text.substr(0, pos);
  const std::string unit = text.substr(pos);
  TimePs scale = 0;
  if (unit == "ps") {
    scale = kPicosecond;
  } else if (unit == "ns") {
    scale = kNanosecond;
  } else if (unit == "us") {
    scale = kMicrosecond;
  } else if (unit == "ms") {
    scale = kMillisecond;
  } else if (unit == "s") {
    scale = kSecond;
  } else {
    return false;
  }
  // A time must stay below kTimeInfinity in picoseconds, where the
  // double-to-TimePs cast below is defined.
  constexpr double kLimitPs = static_cast<double>(kTimeInfinity);
  double value = 0.0;
  if (!ParseNumber(digits, 0.0, kLimitPs / static_cast<double>(scale), &value, nullptr)) {
    return false;
  }
  const double ps = value * static_cast<double>(scale) + 0.5;
  if (ps >= kLimitPs) {
    return false;
  }
  *out = static_cast<TimePs>(ps);
  return true;
}

// down=100us | down=uniform:50us:150us | down=exp:100us
bool ParseDownTime(const std::string& text, DownTimeSpec* out) {
  if (text.rfind("uniform:", 0) == 0) {
    const std::string rest = text.substr(8);
    const size_t colon = rest.find(':');
    if (colon == std::string::npos) {
      return false;
    }
    out->dist = DownTimeSpec::Dist::kUniform;
    return ParseTime(rest.substr(0, colon), &out->a) &&
           ParseTime(rest.substr(colon + 1), &out->b) && out->b >= out->a;
  }
  if (text.rfind("exp:", 0) == 0) {
    out->dist = DownTimeSpec::Dist::kExponential;
    out->b = 0;
    return ParseTime(text.substr(4), &out->a) && out->a > 0;
  }
  out->dist = DownTimeSpec::Dist::kFixed;
  out->b = 0;
  return ParseTime(text, &out->a);
}

bool Fail(std::string* error, int line_no, const std::string& reason) {
  if (error != nullptr) {
    *error = "line " + std::to_string(line_no) + ": " + reason;
  }
  return false;
}

}  // namespace

TimePs DownTimeSpec::Draw(Rng& rng) const {
  switch (dist) {
    case Dist::kFixed:
      return a;
    case Dist::kUniform:
      return b > a ? a + static_cast<TimePs>(rng.Below(static_cast<uint64_t>(b - a + 1)))
                   : a;
    case Dist::kExponential: {
      // Inverse-CDF; std::log keeps this off the pinned-golden path (see
      // tests/determinism_test.cc — the campaign golden uses fixed/uniform
      // down-times only, so libm variation cannot move the hash).
      const double u = rng.NextDouble();
      const double draw = -static_cast<double>(a) * std::log(1.0 - u);
      return static_cast<TimePs>(draw + 0.5);
    }
  }
  return a;
}

bool ParseScenario(const std::string& text, ScenarioScript* out, std::string* error) {
  *out = ScenarioScript{};
  std::istringstream stream(text);
  std::string line;
  int line_no = 0;
  while (std::getline(stream, line)) {
    ++line_no;
    const std::vector<std::string> tokens = Tokenize(line);
    if (tokens.empty()) {
      continue;
    }
    const std::string& head = tokens[0];

    // --- Directives -----------------------------------------------------
    if (head == "seed") {
      if (tokens.size() != 2) {
        return Fail(error, line_no, "seed takes one integer");
      }
      if (!ParseNumber<uint64_t>(tokens[1], 0, UINT64_MAX, &out->seed, nullptr)) {
        return Fail(error, line_no, "bad seed value '" + tokens[1] + "'");
      }
      continue;
    }
    if (head == "sample-period") {
      if (tokens.size() != 2 || !ParseTime(tokens[1], &out->sample_period) ||
          out->sample_period <= 0) {
        return Fail(error, line_no, "sample-period takes one positive time");
      }
      continue;
    }
    if (head == "restore-fraction") {
      if (tokens.size() != 2 ||
          !ParseNumber(tokens[1], 0.0, 1.0, &out->restore_fraction, nullptr) ||
          out->restore_fraction <= 0.0) {
        return Fail(error, line_no, "restore-fraction must be in (0, 1]");
      }
      continue;
    }

    // --- Events ---------------------------------------------------------
    ScenarioEvent event;
    if (head == "flap") {
      event.kind = FaultKind::kLinkFlap;
    } else if (head == "reboot") {
      event.kind = FaultKind::kSwitchReboot;
    } else if (head == "gray") {
      event.kind = FaultKind::kGrayFailure;
    } else if (head == "degrade") {
      event.kind = FaultKind::kLinkDegrade;
    } else {
      return Fail(error, line_no, "unknown directive '" + head + "'");
    }

    bool have_at = false;
    bool have_down = false;
    bool have_duration = false;
    bool have_factor = false;
    for (size_t i = 1; i < tokens.size(); ++i) {
      const std::string& token = tokens[i];
      const size_t eq = token.find('=');
      if (eq == std::string::npos) {
        return Fail(error, line_no, "expected key=value, got '" + token + "'");
      }
      const std::string key = token.substr(0, eq);
      const std::string value = token.substr(eq + 1);
      if (key == "target") {
        event.target = value;
      } else if (key == "at") {
        have_at = ParseTime(value, &event.at);
        if (!have_at) {
          return Fail(error, line_no, "bad time '" + value + "'");
        }
      } else if (key == "down") {
        have_down = ParseDownTime(value, &event.down);
        if (!have_down) {
          return Fail(error, line_no, "bad down-time '" + value + "'");
        }
      } else if (key == "duration") {
        have_duration = ParseTime(value, &event.duration);
        if (!have_duration || event.duration <= 0) {
          return Fail(error, line_no, "bad duration '" + value + "'");
        }
      } else if (key == "repeat") {
        if (!ParseNumber(value, 1, INT_MAX, &event.repeat, nullptr)) {
          return Fail(error, line_no, "repeat must be a positive integer");
        }
      } else if (key == "period") {
        if (!ParseTime(value, &event.period) || event.period <= 0) {
          return Fail(error, line_no, "bad period '" + value + "'");
        }
      } else if (key == "drop") {
        if (!ParseNumber(value, 0.0, 1.0, &event.drop_prob, nullptr)) {
          return Fail(error, line_no, "drop probability must be in [0, 1]");
        }
      } else if (key == "corrupt") {
        if (!ParseNumber(value, 0.0, 1.0, &event.corrupt_prob, nullptr)) {
          return Fail(error, line_no, "corrupt probability must be in [0, 1]");
        }
      } else if (key == "factor") {
        have_factor = ParseNumber(value, 0.0, 1.0, &event.factor, nullptr);
        if (!have_factor || event.factor <= 0.0 || event.factor >= 1.0) {
          return Fail(error, line_no, "factor must be in (0, 1)");
        }
      } else {
        return Fail(error, line_no, "unknown key '" + key + "'");
      }
    }

    if (event.target.empty()) {
      return Fail(error, line_no, "missing target=");
    }
    if (!have_at) {
      return Fail(error, line_no, "missing at=");
    }
    if (event.repeat > 1 && event.period <= 0) {
      return Fail(error, line_no, "repeat > 1 requires period=");
    }
    switch (event.kind) {
      case FaultKind::kLinkFlap:
      case FaultKind::kSwitchReboot:
        if (!have_down) {
          return Fail(error, line_no, "flap/reboot require down=");
        }
        break;
      case FaultKind::kGrayFailure:
        if (!have_duration) {
          return Fail(error, line_no, "gray requires duration=");
        }
        if (event.drop_prob + event.corrupt_prob <= 0.0) {
          return Fail(error, line_no, "gray requires drop= and/or corrupt= > 0");
        }
        if (event.drop_prob + event.corrupt_prob > 1.0) {
          return Fail(error, line_no, "drop + corrupt must not exceed 1");
        }
        break;
      case FaultKind::kLinkDegrade:
        if (!have_duration) {
          return Fail(error, line_no, "degrade requires duration=");
        }
        if (!have_factor) {
          return Fail(error, line_no, "degrade requires factor=");
        }
        break;
    }
    out->events.push_back(std::move(event));
  }
  return true;
}

bool LoadScenarioFile(const std::string& path, ScenarioScript* out, std::string* error) {
  std::ifstream in(path);
  if (!in) {
    if (error != nullptr) {
      *error = "cannot open scenario file '" + path + "'";
    }
    return false;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (!ParseScenario(buffer.str(), out, error)) {
    if (error != nullptr) {
      *error = path + ": " + *error;
    }
    return false;
  }
  return true;
}

// Keep these in sync with examples/scenarios/*.scn — scenario_test asserts
// that parsing each example file yields the matching preset.
bool ScenarioPreset(const std::string& name, ScenarioScript* out) {
  if (name == "tor-uplink-flap") {
    const char* text =
        "seed 11\n"
        "sample-period 20us\n"
        "flap target=tor0:up0 at=400us down=150us repeat=2 period=700us\n";
    std::string error;
    const bool ok = ParseScenario(text, out, &error);
    (void)error;
    return ok;
  }
  if (name == "gray-spine") {
    const char* text =
        "seed 13\n"
        "sample-period 20us\n"
        "gray target=spine0:* at=300us duration=900us drop=2e-3 corrupt=2e-3\n";
    std::string error;
    const bool ok = ParseScenario(text, out, &error);
    (void)error;
    return ok;
  }
  return false;
}

std::vector<std::string> ScenarioPresetNames() {
  return {"tor-uplink-flap", "gray-spine"};
}

}  // namespace themis
