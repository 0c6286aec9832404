// Leveled structured logger. Off by default; enabled via TelemetryOptions or
// the HOYAN_LOG environment variable (debug|info|warn|error). Lines go to
// stderr as `<seconds-since-start> LEVEL event key=value ...` so a run's log
// interleaves cleanly with benchmark stdout tables.
#pragma once

#include <chrono>
#include <initializer_list>
#include <string>
#include <utility>

namespace hoyan::obs {

enum class LogLevel : uint8_t { kDebug = 0, kInfo, kWarn, kError, kOff };

LogLevel logLevelFromName(const std::string& name, LogLevel fallback = LogLevel::kOff);

// Reads HOYAN_LOG; unset or unrecognized -> kOff.
LogLevel logLevelFromEnv();

class Logger {
 public:
  using Field = std::pair<std::string, std::string>;

  explicit Logger(LogLevel level = LogLevel::kOff)
      : level_(level), start_(std::chrono::steady_clock::now()) {}

  LogLevel level() const { return level_; }
  bool enabled(LogLevel level) const { return level >= level_ && level_ != LogLevel::kOff; }

  void log(LogLevel level, const std::string& event,
           std::initializer_list<Field> fields = {}) const;

  void debug(const std::string& event, std::initializer_list<Field> fields = {}) const {
    log(LogLevel::kDebug, event, fields);
  }
  void info(const std::string& event, std::initializer_list<Field> fields = {}) const {
    log(LogLevel::kInfo, event, fields);
  }
  void warn(const std::string& event, std::initializer_list<Field> fields = {}) const {
    log(LogLevel::kWarn, event, fields);
  }
  void error(const std::string& event, std::initializer_list<Field> fields = {}) const {
    log(LogLevel::kError, event, fields);
  }

 private:
  LogLevel level_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace hoyan::obs
