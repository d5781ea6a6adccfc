#include "simcore/logging.h"

#include <cstdio>

namespace spotserve {
namespace sim {

namespace {
LogLevel g_level = LogLevel::Silent;

const char *
levelTag(LogLevel level)
{
    switch (level) {
      case LogLevel::Warn:
        return "WARN";
      case LogLevel::Info:
        return "INFO";
      case LogLevel::Debug:
        return "DEBUG";
      default:
        return "";
    }
}
} // namespace

void
setLogLevel(LogLevel level)
{
    g_level = level;
}

LogLevel
logLevel()
{
    return g_level;
}

bool
logEnabled(LogLevel level)
{
    return level != LogLevel::Silent &&
           static_cast<int>(level) <= static_cast<int>(g_level);
}

void
logMessage(LogLevel level, const std::string &msg)
{
    if (logEnabled(level))
        std::fprintf(stderr, "[%s] %s\n", levelTag(level), msg.c_str());
}

void
logWarn(const std::string &msg)
{
    logMessage(LogLevel::Warn, msg);
}

void
logInfo(const std::string &msg)
{
    logMessage(LogLevel::Info, msg);
}

void
logDebug(const std::string &msg)
{
    logMessage(LogLevel::Debug, msg);
}

} // namespace sim
} // namespace spotserve
