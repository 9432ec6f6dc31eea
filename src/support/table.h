// ASCII table rendering for bench/report output.
#ifndef AHEFT_SUPPORT_TABLE_H_
#define AHEFT_SUPPORT_TABLE_H_

#include <string>
#include <vector>

namespace aheft {

/// A simple column-aligned ASCII table. Numeric cells should be formatted by
/// the caller (see format_double) so the table stays layout-only.
class AsciiTable {
 public:
  explicit AsciiTable(std::vector<std::string> header);

  AsciiTable& add_row(std::vector<std::string> cells);

  /// Renders the table with a header rule, right-aligning cells that parse
  /// as numbers and left-aligning the rest.
  [[nodiscard]] std::string to_string() const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// Formats a double with fixed precision, trimming the noise ("3.50" -> for
/// precision 2). Used throughout the benches so tables line up.
[[nodiscard]] std::string format_double(double value, int precision = 1);

/// Formats a ratio as a percentage string, e.g. 0.204 -> "20.4%".
[[nodiscard]] std::string format_percent(double ratio, int precision = 1);

}  // namespace aheft

#endif  // AHEFT_SUPPORT_TABLE_H_
