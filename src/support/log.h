// Leveled stderr logging, controlled by $AHEFT_LOG (error|warn|info|debug).
#ifndef AHEFT_SUPPORT_LOG_H_
#define AHEFT_SUPPORT_LOG_H_

#include <sstream>
#include <string>

namespace aheft {

enum class LogLevel { kError = 0, kWarn = 1, kInfo = 2, kDebug = 3 };

/// Returns the process-wide level, parsed once from $AHEFT_LOG
/// (default: warn).
[[nodiscard]] LogLevel log_level();

namespace detail {
void log_write(LogLevel level, const std::string& message);
}  // namespace detail

}  // namespace aheft

#define AHEFT_LOG(level, expr)                                      \
  do {                                                              \
    if (static_cast<int>(level) <=                                  \
        static_cast<int>(::aheft::log_level())) {                   \
      std::ostringstream aheft_log_os;                              \
      aheft_log_os << expr;                                         \
      ::aheft::detail::log_write(level, aheft_log_os.str());        \
    }                                                               \
  } while (false)

#define AHEFT_LOG_ERROR(expr) AHEFT_LOG(::aheft::LogLevel::kError, expr)
#define AHEFT_LOG_WARN(expr) AHEFT_LOG(::aheft::LogLevel::kWarn, expr)
#define AHEFT_LOG_INFO(expr) AHEFT_LOG(::aheft::LogLevel::kInfo, expr)
#define AHEFT_LOG_DEBUG(expr) AHEFT_LOG(::aheft::LogLevel::kDebug, expr)

#endif  // AHEFT_SUPPORT_LOG_H_
