#ifndef SDMS_COMMON_OBS_LOG_H_
#define SDMS_COMMON_OBS_LOG_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>

namespace sdms::obs {

enum class LogLevel : int {
  kDebug = 0,
  kInfo = 1,
  kWarn = 2,
  kError = 3,
  kOff = 4,
};

const char* LogLevelName(LogLevel level);

/// One structured log record, handed to the sink pre-formatted and as
/// fields (file sinks write the line; richer sinks may re-serialize).
struct LogRecord {
  LogLevel level = LogLevel::kInfo;
  const char* file = "";
  int line = 0;
  /// Id of the query the emitting thread was working for; 0 when the
  /// line was emitted outside any query.
  uint64_t query_id = 0;
  std::string message;
};

/// Output backend of the logger. Write() must be thread-safe (the
/// built-in sinks serialize internally).
class LogSink {
 public:
  virtual ~LogSink() = default;
  virtual void Write(const LogRecord& record) = 0;
};

std::unique_ptr<LogSink> MakeStderrSink();

/// Process-wide leveled logger with a pluggable sink. Default: kInfo
/// to stderr. The SDMS_LOG macro below is the entry point; Logger is
/// only touched directly to configure level/sink.
class Logger {
 public:
  static Logger& Instance();

  void SetLevel(LogLevel level);
  LogLevel level() const;
  bool Enabled(LogLevel level) const { return level >= this->level(); }

  /// Replaces the sink (nullptr restores stderr).
  void SetSink(std::unique_ptr<LogSink> sink);

  void Write(const LogRecord& record);

 private:
  Logger();

  /// Atomic so the per-statement enabled check stays lock-free.
  std::atomic<LogLevel> level_;
  mutable std::mutex mu_;  // guards sink_
  std::unique_ptr<LogSink> sink_;
};

/// Stream-collecting helper behind SDMS_LOG; flushes on destruction.
class LogMessage {
 public:
  LogMessage(LogLevel level, const char* file, int line)
      : level_(level), file_(file), line_(line) {}
  ~LogMessage();

  std::ostream& stream() { return stream_; }

 private:
  LogLevel level_;
  const char* file_;
  int line_;
  std::ostringstream stream_;
};

/// Swallows the ostream produced by the macro's else-branch so the
/// whole statement has type void either way.
struct LogVoidify {
  void operator&(std::ostream&) {}
};

}  // namespace sdms::obs

// Compile-time floor: statements below this severity compile to
// nothing (dead-code-eliminated constant-false condition). Build with
// -DSDMS_MIN_LOG_LEVEL=1 to strip DEBUG statements entirely.
#ifndef SDMS_MIN_LOG_LEVEL
#define SDMS_MIN_LOG_LEVEL 0
#endif

#define SDMS_LOG_SEVERITY_DEBUG 0
#define SDMS_LOG_SEVERITY_INFO 1
#define SDMS_LOG_SEVERITY_WARN 2
#define SDMS_LOG_SEVERITY_ERROR 3

#define SDMS_LOG_LEVEL_DEBUG ::sdms::obs::LogLevel::kDebug
#define SDMS_LOG_LEVEL_INFO ::sdms::obs::LogLevel::kInfo
#define SDMS_LOG_LEVEL_WARN ::sdms::obs::LogLevel::kWarn
#define SDMS_LOG_LEVEL_ERROR ::sdms::obs::LogLevel::kError

/// Leveled structured logging: SDMS_LOG(INFO) << "indexed " << n;
/// Arguments are not evaluated when the level is disabled.
#define SDMS_LOG(level)                                                \
  !(SDMS_LOG_SEVERITY_##level >= SDMS_MIN_LOG_LEVEL &&                 \
    ::sdms::obs::Logger::Instance().Enabled(SDMS_LOG_LEVEL_##level))   \
      ? (void)0                                                        \
      : ::sdms::obs::LogVoidify() &                                    \
            ::sdms::obs::LogMessage(SDMS_LOG_LEVEL_##level, __FILE__,  \
                                    __LINE__)                          \
                .stream()

#endif  // SDMS_COMMON_OBS_LOG_H_
