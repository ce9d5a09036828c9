#include "src/base/logging.h"

#include <atomic>
#include <map>
#include <mutex>

namespace xbase {
namespace {

std::atomic<LogSeverity> g_min_severity{LogSeverity::kWarning};
std::atomic<int> g_error_count{0};

std::mutex g_throttle_mutex;
std::map<std::string, int>& ThrottleCounts() {
  static auto* counts = new std::map<std::string, int>();
  return *counts;
}

const char* SeverityName(LogSeverity severity) {
  switch (severity) {
    case LogSeverity::kInfo:
      return "INFO";
    case LogSeverity::kWarning:
      return "WARNING";
    case LogSeverity::kError:
      return "ERROR";
    case LogSeverity::kFatal:
      return "FATAL";
  }
  return "?";
}

}  // namespace

LogMessage::LogMessage(LogSeverity severity, const char* file, int line) : severity_(severity) {
  const char* base = file;
  for (const char* p = file; *p != '\0'; ++p) {
    if (*p == '/') {
      base = p + 1;
    }
  }
  stream_ << "[" << SeverityName(severity) << " " << base << ":" << line << "] ";
}

LogMessage::~LogMessage() {
  if (severity_ >= LogSeverity::kWarning) {
    g_error_count.fetch_add(1, std::memory_order_relaxed);
  }
  if (severity_ >= g_min_severity.load(std::memory_order_relaxed)) {
    std::cerr << stream_.str() << std::endl;
  }
  if (severity_ == LogSeverity::kFatal) {
    std::abort();
  }
}

void SetMinLogSeverity(LogSeverity severity) {
  g_min_severity.store(severity, std::memory_order_relaxed);
}

LogSeverity MinLogSeverity() { return g_min_severity.load(std::memory_order_relaxed); }

int LogErrorCount() { return g_error_count.load(std::memory_order_relaxed); }

bool ShouldLogEveryN(const std::string& key, int n) {
  if (n <= 1) {
    return true;
  }
  std::lock_guard<std::mutex> lock(g_throttle_mutex);
  int count = ThrottleCounts()[key]++;
  return count % n == 0;
}

void ResetLogThrottle() {
  std::lock_guard<std::mutex> lock(g_throttle_mutex);
  ThrottleCounts().clear();
}

void ForgetLogThrottle(const std::string& key) {
  std::lock_guard<std::mutex> lock(g_throttle_mutex);
  ThrottleCounts().erase(key);
}

int LogThrottleCount(const std::string& key) {
  std::lock_guard<std::mutex> lock(g_throttle_mutex);
  auto it = ThrottleCounts().find(key);
  return it == ThrottleCounts().end() ? 0 : it->second;
}

}  // namespace xbase
