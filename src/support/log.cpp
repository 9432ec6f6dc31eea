#include "support/log.h"

#include <atomic>
#include <iostream>
#include <mutex>

#include "support/env.h"

namespace aheft {

namespace {

std::atomic<int> g_level{-1};  // -1: not yet initialized

LogLevel parse_level(const std::string& text) {
  if (text == "error") return LogLevel::kError;
  if (text == "warn") return LogLevel::kWarn;
  if (text == "info") return LogLevel::kInfo;
  if (text == "debug") return LogLevel::kDebug;
  return LogLevel::kWarn;
}

const char* level_name(LogLevel level) {
  switch (level) {
    case LogLevel::kError:
      return "ERROR";
    case LogLevel::kWarn:
      return "WARN";
    case LogLevel::kInfo:
      return "INFO";
    case LogLevel::kDebug:
      return "DEBUG";
  }
  return "?";
}

}  // namespace

LogLevel log_level() {
  int level = g_level.load(std::memory_order_relaxed);
  if (level < 0) {
    const auto env = get_env("AHEFT_LOG");
    level = static_cast<int>(env ? parse_level(*env) : LogLevel::kWarn);
    g_level.store(level, std::memory_order_relaxed);
  }
  return static_cast<LogLevel>(level);
}

namespace detail {

void log_write(LogLevel level, const std::string& message) {
  static std::mutex mutex;
  std::scoped_lock lock(mutex);
  std::cerr << "[aheft " << level_name(level) << "] " << message << '\n';
}

}  // namespace detail
}  // namespace aheft
