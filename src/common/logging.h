// Minimal leveled logger. Lines below WARNING are dropped so tests and
// benches stay quiet.

#ifndef SCFS_COMMON_LOGGING_H_
#define SCFS_COMMON_LOGGING_H_

#include <sstream>
#include <string>

namespace scfs {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarning = 2, kError = 3 };

LogLevel GetLogLevel();

// Internal: emits one formatted line to stderr (thread-safe).
void LogLine(LogLevel level, const char* file, int line,
             const std::string& message);

class LogMessage {
 public:
  LogMessage(LogLevel level, const char* file, int line)
      : level_(level), file_(file), line_(line) {}
  ~LogMessage() {
    if (level_ >= GetLogLevel()) {
      LogLine(level_, file_, line_, stream_.str());
    }
  }

  std::ostream& stream() { return stream_; }

 private:
  LogLevel level_;
  const char* file_;
  int line_;
  std::ostringstream stream_;
};

}  // namespace scfs

#define SCFS_LOG(level)                                                   \
  ::scfs::LogMessage(::scfs::LogLevel::k##level, __FILE__, __LINE__).stream()

#endif  // SCFS_COMMON_LOGGING_H_
