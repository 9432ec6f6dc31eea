#include "archive/swf_reader.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>

namespace aheft::archive {

namespace {

/// A job record has these many leading numeric fields; GWA logs append
/// more, which the reader ignores.
constexpr std::size_t kSwfFields = 18;

[[noreturn]] void fail(std::size_t line, const std::string& message) {
  throw SwfParseError(line, message);
}

std::vector<std::string> tokenize(const std::string& line) {
  std::vector<std::string> tokens;
  std::istringstream stream(line);
  std::string token;
  while (stream >> token) {
    tokens.push_back(std::move(token));
  }
  return tokens;
}

/// Locale-independent double parse; rejects trailing junk, NaN, and inf
/// (SWF fields are plain seconds/counts, missing values are -1).
double parse_double(std::size_t line, const std::string& token,
                    const char* field) {
  double value = 0.0;
  const char* begin = token.data();
  const char* end = begin + token.size();
  const auto [ptr, ec] = std::from_chars(begin, end, value);
  if (ec != std::errc() || ptr != end || std::isnan(value) ||
      std::isinf(value)) {
    fail(line, std::string("malformed ") + field + " '" + token + "'");
  }
  return value;
}

std::int64_t parse_int(std::size_t line, const std::string& token,
                       const char* field) {
  std::int64_t value = 0;
  const char* begin = token.data();
  const char* end = begin + token.size();
  const auto [ptr, ec] = std::from_chars(begin, end, value);
  if (ec != std::errc() || ptr != end) {
    fail(line, std::string("malformed ") + field + " '" + token + "'");
  }
  return value;
}

/// Round-trip-exact double formatting (same contract as the gridtrace
/// writer); integral values print without a fraction.
std::string format_field(double value) {
  char buffer[32];
  if (value == std::floor(value) && std::abs(value) < 1e15) {
    std::snprintf(buffer, sizeof(buffer), "%.0f", value);
  } else {
    std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  }
  return buffer;
}

/// `; Key: Value` header comment -> (Key, Value); nullopt-style empty key
/// for free-text comments.
std::pair<std::string, std::string> parse_header_comment(
    const std::string& line) {
  std::size_t start = line.find_first_not_of("; \t");
  if (start == std::string::npos) {
    return {};
  }
  const std::size_t colon = line.find(':', start);
  if (colon == std::string::npos) {
    return {};
  }
  std::string key = line.substr(start, colon - start);
  while (!key.empty() && (key.back() == ' ' || key.back() == '\t')) {
    key.pop_back();
  }
  // Structured keys are single words (MaxProcs, UnixStartTime, ...);
  // colons inside free text ("note: beware") are not headers.
  if (key.empty() || key.find(' ') != std::string::npos ||
      key.find('\t') != std::string::npos) {
    return {};
  }
  std::size_t value_start = line.find_first_not_of(" \t", colon + 1);
  std::string value =
      value_start == std::string::npos ? "" : line.substr(value_start);
  while (!value.empty() &&
         (value.back() == ' ' || value.back() == '\t' ||
          value.back() == '\r')) {
    value.pop_back();
  }
  return {std::move(key), std::move(value)};
}

}  // namespace

std::string SwfHeader::value(const std::string& key) const {
  const auto it = fields.find(key);
  return it == fields.end() ? "" : it->second;
}

std::uint64_t SwfHeader::value_u64(const std::string& key) const {
  const std::string text = value(key);
  std::uint64_t parsed = 0;
  const char* begin = text.data();
  const char* end = begin + text.size();
  const auto [ptr, ec] = std::from_chars(begin, end, parsed);
  // Advisory header: tolerate trailing annotations ("128 (see note)").
  if (ec != std::errc() || ptr == begin) {
    return 0;
  }
  return parsed;
}

SwfParseError::SwfParseError(std::size_t line, const std::string& message)
    : std::runtime_error("swf line " + std::to_string(line) + ": " +
                         message),
      line_(line) {}

SwfLog read_swf(std::istream& in) {
  SwfLog log;
  std::string line;
  std::size_t line_number = 0;
  double last_submit = -1.0;
  while (std::getline(in, line)) {
    ++line_number;
    const std::size_t first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos) {
      continue;  // blank
    }
    if (line[first] == ';') {
      auto [key, value] = parse_header_comment(line.substr(first));
      if (!key.empty() && !log.header.fields.contains(key)) {
        log.header.fields.emplace(std::move(key), std::move(value));
      }
      continue;
    }

    const std::vector<std::string> tokens = tokenize(line);
    if (tokens.size() < kSwfFields) {
      std::ostringstream os;
      os << "expected " << kSwfFields << " fields (SWF job record), got "
         << tokens.size();
      fail(line_number, os.str());
    }

    SwfJob job;
    job.id = parse_int(line_number, tokens[0], "job id");
    job.submit = parse_double(line_number, tokens[1], "submit time");
    job.wait = parse_double(line_number, tokens[2], "wait time");
    job.runtime = parse_double(line_number, tokens[3], "run time");
    job.procs = parse_int(line_number, tokens[4], "allocated processors");
    (void)parse_double(line_number, tokens[5], "average cpu time");
    (void)parse_double(line_number, tokens[6], "used memory");
    job.requested_procs =
        parse_int(line_number, tokens[7], "requested processors");
    job.requested_time =
        parse_double(line_number, tokens[8], "requested time");
    (void)parse_double(line_number, tokens[9], "requested memory");
    job.status = static_cast<int>(parse_int(line_number, tokens[10],
                                            "status"));
    job.user = parse_int(line_number, tokens[11], "user id");
    (void)parse_int(line_number, tokens[12], "group id");
    job.executable = parse_int(line_number, tokens[13], "executable id");
    (void)parse_int(line_number, tokens[14], "queue");
    (void)parse_int(line_number, tokens[15], "partition");
    (void)parse_int(line_number, tokens[16], "preceding job");
    (void)parse_double(line_number, tokens[17], "think time");

    if (job.submit < 0.0) {
      fail(line_number, "submit time must be non-negative");
    }
    // SWF logs are submit-ordered by definition; the arrival compilation
    // depends on it, so an out-of-order record is a corrupt log.
    if (job.submit < last_submit) {
      std::ostringstream os;
      os << "submit times must be non-decreasing (got " << job.submit
         << " after " << last_submit << ")";
      fail(line_number, os.str());
    }
    last_submit = job.submit;
    log.jobs.push_back(job);
  }
  return log;
}

SwfLog read_swf_string(std::string_view text) {
  std::istringstream in{std::string(text)};
  return read_swf(in);
}

SwfLog read_swf_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("cannot open SWF file '" + path + "'");
  }
  return read_swf(in);
}

void write_swf(std::ostream& out, const SwfLog& log) {
  for (const auto& [key, value] : log.header.fields) {
    out << "; " << key << ": " << value << '\n';
  }
  for (const SwfJob& job : log.jobs) {
    out << job.id << ' ' << format_field(job.submit) << ' '
        << format_field(job.wait) << ' ' << format_field(job.runtime) << ' '
        << job.procs << " -1 -1 " << job.requested_procs << ' '
        << format_field(job.requested_time) << " -1 " << job.status << ' '
        << job.user << " -1 " << job.executable << " -1 -1 -1 -1\n";
  }
}

std::string write_swf_string(const SwfLog& log) {
  std::ostringstream out;
  write_swf(out, log);
  return out.str();
}

std::vector<SwfJob> usable_jobs(const SwfLog& log, bool include_failed) {
  std::vector<SwfJob> jobs;
  jobs.reserve(log.jobs.size());
  for (const SwfJob& job : log.jobs) {
    if (!include_failed && !job.completed()) {
      continue;
    }
    if (!(job.runtime > 0.0)) {
      continue;  // unknown or zero runtime cannot be simulated
    }
    SwfJob kept = job;
    if (kept.procs <= 0) {
      kept.procs = kept.requested_procs;
    }
    if (kept.procs <= 0) {
      continue;  // no processor count at all
    }
    jobs.push_back(kept);
  }
  return jobs;
}

}  // namespace aheft::archive
