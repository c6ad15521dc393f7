#include "common/obs/log.h"

#include <chrono>
#include <cstdio>
#include <cstring>
#include <ctime>

#include "common/obs/profile.h"
#include "common/string_util.h"

namespace sdms::obs {

const char* LogLevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "DEBUG";
    case LogLevel::kInfo:
      return "INFO";
    case LogLevel::kWarn:
      return "WARN";
    case LogLevel::kError:
      return "ERROR";
    case LogLevel::kOff:
      return "OFF";
  }
  return "?";
}

namespace {

/// "2026-08-05 12:34:56.123456 INFO file.cc:42] [q42] message\n"
/// (the [qN] correlation stamp appears only inside a query).
std::string FormatRecord(const LogRecord& record) {
  auto now = std::chrono::system_clock::now();
  std::time_t secs = std::chrono::system_clock::to_time_t(now);
  auto micros = std::chrono::duration_cast<std::chrono::microseconds>(
                    now.time_since_epoch())
                    .count() %
                1000000;
  std::tm tm_buf;
  localtime_r(&secs, &tm_buf);
  char ts[32];
  std::strftime(ts, sizeof(ts), "%Y-%m-%d %H:%M:%S", &tm_buf);
  const char* base = std::strrchr(record.file, '/');
  base = base != nullptr ? base + 1 : record.file;
  std::string qid =
      record.query_id != 0
          ? StrFormat("[q%llu] ",
                      static_cast<unsigned long long>(record.query_id))
          : "";
  return StrFormat("%s.%06lld %-5s %s:%d] ", ts,
                   static_cast<long long>(micros), LogLevelName(record.level),
                   base, record.line) +
         qid + record.message + "\n";
}

class StderrSink : public LogSink {
 public:
  void Write(const LogRecord& record) override {
    std::string line = FormatRecord(record);
    std::lock_guard<std::mutex> lock(mu_);
    std::fwrite(line.data(), 1, line.size(), stderr);
  }

 private:
  std::mutex mu_;
};

}  // namespace

std::unique_ptr<LogSink> MakeStderrSink() {
  return std::make_unique<StderrSink>();
}

Logger::Logger() : level_(LogLevel::kInfo), sink_(MakeStderrSink()) {}

Logger& Logger::Instance() {
  static Logger* logger = new Logger();
  return *logger;
}

void Logger::SetLevel(LogLevel level) {
  level_.store(level, std::memory_order_relaxed);
}

LogLevel Logger::level() const {
  return level_.load(std::memory_order_relaxed);
}

void Logger::SetSink(std::unique_ptr<LogSink> sink) {
  std::lock_guard<std::mutex> lock(mu_);
  sink_ = sink != nullptr ? std::move(sink) : MakeStderrSink();
}

void Logger::Write(const LogRecord& record) {
  // Copy the sink pointer under the lock; Write itself runs outside it
  // so a slow sink doesn't serialize unrelated threads' level checks.
  LogSink* sink;
  {
    std::lock_guard<std::mutex> lock(mu_);
    sink = sink_.get();
  }
  sink->Write(record);
}

LogMessage::~LogMessage() {
  LogRecord record;
  record.level = level_;
  record.file = file_;
  record.line = line_;
  record.query_id = CurrentQueryId();
  record.message = stream_.str();
  Logger::Instance().Write(record);
}

}  // namespace sdms::obs
