#include "support/env.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <stdexcept>

namespace aheft {

std::string to_string(Scale scale) {
  switch (scale) {
    case Scale::kSmoke:
      return "smoke";
    case Scale::kDefault:
      return "default";
    case Scale::kPaper:
      return "paper";
  }
  return "unknown";
}

std::optional<Scale> parse_scale(const std::string& text) {
  if (text == "smoke") return Scale::kSmoke;
  if (text == "default") return Scale::kDefault;
  if (text == "paper" || text == "full") return Scale::kPaper;
  return std::nullopt;
}

std::optional<std::string> get_env(const std::string& name) {
  const char* value = std::getenv(name.c_str());
  if (value == nullptr || *value == '\0') {
    return std::nullopt;
  }
  return std::string(value);
}

ArgParser::ArgParser(int argc, const char* const* argv,
                     const std::vector<std::string_view>& flags) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool dashed = arg.rfind("--", 0) == 0;
    const auto eq = arg.find('=');
    const std::string name =
        dashed ? arg.substr(2, eq == std::string::npos ? eq : eq - 2) : "";
    if (name.empty() ||
        std::find(flags.begin(), flags.end(), name) == flags.end()) {
      std::cerr << (dashed ? "unknown flag '" : "unexpected argument '")
                << arg << "' (accepted:";
      for (const std::string_view flag : flags) {
        std::cerr << " --" << flag;
      }
      std::cerr << (flags.empty() ? " none)\n" : ")\n");
      std::exit(2);
    }
    options_[name] = eq == std::string::npos ? "" : arg.substr(eq + 1);
  }
}

bool ArgParser::has(const std::string& name) const {
  return options_.count(name) > 0;
}

std::string ArgParser::get(const std::string& name,
                           const std::string& fallback) const {
  const auto it = options_.find(name);
  if (it == options_.end() || it->second.empty()) {
    return fallback;
  }
  return it->second;
}

Scale ArgParser::scale() const {
  if (const auto it = options_.find("scale"); it != options_.end()) {
    if (const auto parsed = parse_scale(it->second)) {
      return *parsed;
    }
    throw std::invalid_argument("unknown --scale value: " + it->second);
  }
  if (const auto env = get_env("AHEFT_SCALE")) {
    if (const auto parsed = parse_scale(*env)) {
      return *parsed;
    }
  }
  return Scale::kDefault;
}

std::optional<std::uint64_t> parse_digits(const std::string& text) {
  std::uint64_t value = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end) {
    return std::nullopt;
  }
  return value;
}

std::uint64_t parse_count(const ArgParser& args, const std::string& flag,
                          std::uint64_t fallback, std::uint64_t ceiling) {
  if (!args.has(flag)) {
    return fallback;
  }
  const std::string text = args.get(flag, "");
  const std::optional<std::uint64_t> value = parse_digits(text);
  if (!value || *value > ceiling) {
    std::cerr << "bad --" << flag << " value '" << text
              << "' (want an integer from 0 to " << ceiling << ")\n";
    std::exit(2);
  }
  return *value;
}

std::optional<double> parse_finite(const std::string& text) {
  double value = 0.0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end || !std::isfinite(value)) {
    return std::nullopt;
  }
  return value;
}

double parse_real(const ArgParser& args, const std::string& flag,
                  double fallback, double lo, double hi) {
  if (!args.has(flag)) {
    return fallback;
  }
  const std::string text = args.get(flag, "");
  const std::optional<double> value = parse_finite(text);
  if (!value || *value < lo || *value > hi) {
    std::cerr << "bad --" << flag << " value '" << text
              << "' (want a number from " << lo << " to " << hi << ")\n";
    std::exit(2);
  }
  return *value;
}

}  // namespace aheft
