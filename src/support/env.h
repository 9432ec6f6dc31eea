// Environment and command-line knobs shared by benches and examples.
#ifndef AHEFT_SUPPORT_ENV_H_
#define AHEFT_SUPPORT_ENV_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace aheft {

/// Experiment scale presets. Benches default to kDefault (seconds–minutes);
/// kPaper replays the paper's full 500,000-case sweeps; kSmoke is CI-sized.
enum class Scale { kSmoke, kDefault, kPaper };

[[nodiscard]] std::string to_string(Scale scale);
[[nodiscard]] std::optional<Scale> parse_scale(const std::string& text);

/// Reads an environment variable, empty optional when unset/empty.
[[nodiscard]] std::optional<std::string> get_env(const std::string& name);

/// A tiny --key=value / --flag argument parser used by benches/examples.
class ArgParser {
 public:
  /// Parses argv[1..argc) against `flags`, the names the program reads.
  /// Any other argument — an unknown --name, a positional argument — exits
  /// 2 with a message naming it and listing the accepted flags.
  ArgParser(int argc, const char* const* argv,
            const std::vector<std::string_view>& flags);

  /// True if --name or --name=anything was passed.
  [[nodiscard]] bool has(const std::string& name) const;
  /// Value of --name=value, or fallback.
  [[nodiscard]] std::string get(const std::string& name,
                                const std::string& fallback) const;

  /// Resolves the scale from --scale=... or $AHEFT_SCALE, defaulting to
  /// Scale::kDefault.
  [[nodiscard]] Scale scale() const;

 private:
  std::map<std::string, std::string> options_;
};

/// `text` as an unsigned decimal integer, or nullopt. Digits only: a
/// sign, an empty value, trailing junk ("3abc") or a value past 64 bits
/// is refused rather than half-parsed.
[[nodiscard]] std::optional<std::uint64_t> parse_digits(
    const std::string& text);

/// Parses --<flag>=N, an integer in [0, ceiling]; returns `fallback` when
/// the flag is absent and exits 2 with a message naming the flag on any
/// other value.
[[nodiscard]] std::uint64_t parse_count(const ArgParser& args,
                                        const std::string& flag,
                                        std::uint64_t fallback,
                                        std::uint64_t ceiling);

/// `text` as a finite floating-point number, or nullopt. The whole text
/// must be one std::from_chars number: an empty value, trailing junk
/// ("1x"), nan or inf is refused rather than half-parsed.
[[nodiscard]] std::optional<double> parse_finite(const std::string& text);

/// Parses --<flag>=X, a finite number in [lo, hi]; returns `fallback` when
/// the flag is absent and exits 2 with a message naming the flag on any
/// other value.
[[nodiscard]] double parse_real(const ArgParser& args, const std::string& flag,
                                double fallback, double lo, double hi);

}  // namespace aheft

#endif  // AHEFT_SUPPORT_ENV_H_
