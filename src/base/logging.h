// Minimal logging and invariant-checking support used throughout the tree.
//
// Style note: hot paths report recoverable failures through return values
// (bool / std::optional); CHECK is reserved for programming errors where
// continuing would corrupt state.
#ifndef SRC_BASE_LOGGING_H_
#define SRC_BASE_LOGGING_H_

#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>

namespace xbase {

enum class LogSeverity {
  kInfo,
  kWarning,
  kError,
  kFatal,
};

// Accumulates a log line and emits it (to stderr) on destruction.  Fatal
// messages abort the process after emission.
class LogMessage {
 public:
  LogMessage(LogSeverity severity, const char* file, int line);
  ~LogMessage();

  LogMessage(const LogMessage&) = delete;
  LogMessage& operator=(const LogMessage&) = delete;

  std::ostream& stream() { return stream_; }

 private:
  LogSeverity severity_;
  std::ostringstream stream_;
};

// Global minimum severity; messages below it are swallowed.  Tests raise this
// to keep output quiet.
void SetMinLogSeverity(LogSeverity severity);
LogSeverity MinLogSeverity();

// Total number of kWarning/kError messages emitted; used by failure-injection
// tests to assert that bad input was diagnosed rather than ignored.
int LogErrorCount();

// Per-source log dedupe: returns true for the 1st, (n+1)th, (2n+1)th, ...
// occurrence of `key`, so a repeated diagnosis (a hostile client re-sending
// the same malformed property, swmcmd garbage in a loop) logs once and then
// once per N instead of once per occurrence.  Keys are arbitrary strings —
// callers bake in the source site and the offender (window id, say).
// Occurrences are counted even when the call returns false, so the throttle
// itself is cheap and state is bounded by the number of distinct keys.
bool ShouldLogEveryN(const std::string& key, int n);
// Drops all throttle state (tests).
void ResetLogThrottle();
// Drops one key's state: callers whose keys name a resource (a window id,
// say) forget the key when the resource goes, so state stays bounded over a
// long session.
void ForgetLogThrottle(const std::string& key);
// Occurrences recorded for a key so far (0 if never seen).
int LogThrottleCount(const std::string& key);

}  // namespace xbase

#define XB_LOG(severity)                                                                 \
  ::xbase::LogMessage(::xbase::LogSeverity::k##severity, __FILE__, __LINE__).stream()

// Rate-limited logging: emits the first occurrence for `key` and then one per
// `n`.  Spam paths (sanitizer rejections, malformed swmcmd commands) use this
// so one hostile client cannot flood stderr.  The statement after the macro
// is the usual `<<` chain; when throttled the chain is not evaluated.
#define XB_LOG_EVERY_N(severity, key, n)                                                 \
  if (::xbase::ShouldLogEveryN((key), (n))) XB_LOG(severity)

#define XB_CHECK(cond)                                                                   \
  if (!(cond)) XB_LOG(Fatal) << "Check failed: " #cond " "

#define XB_CHECK_EQ(a, b) XB_CHECK((a) == (b)) << "(" << (a) << " vs " << (b) << ") "
#define XB_CHECK_NE(a, b) XB_CHECK((a) != (b)) << "(" << (a) << " vs " << (b) << ") "
#define XB_CHECK_LE(a, b) XB_CHECK((a) <= (b)) << "(" << (a) << " vs " << (b) << ") "
#define XB_CHECK_LT(a, b) XB_CHECK((a) < (b)) << "(" << (a) << " vs " << (b) << ") "
#define XB_CHECK_GE(a, b) XB_CHECK((a) >= (b)) << "(" << (a) << " vs " << (b) << ") "

#endif  // SRC_BASE_LOGGING_H_
