#include "src/common/logging.h"

#include <cstdio>
#include <cstring>
#include <mutex>

namespace scfs {

namespace {
constexpr LogLevel kMinLevel = LogLevel::kWarning;
std::mutex g_log_mu;

const char* LevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "D";
    case LogLevel::kInfo:
      return "I";
    case LogLevel::kWarning:
      return "W";
    case LogLevel::kError:
      return "E";
  }
  return "?";
}

const char* BaseName(const char* file) {
  const char* slash = std::strrchr(file, '/');
  return slash ? slash + 1 : file;
}
}  // namespace

LogLevel GetLogLevel() { return kMinLevel; }

void LogLine(LogLevel level, const char* file, int line,
             const std::string& message) {
  std::lock_guard<std::mutex> lock(g_log_mu);
  std::fprintf(stderr, "[%s %s:%d] %s\n", LevelName(level), BaseName(file),
               line, message.c_str());
}

}  // namespace scfs
