/**
 * @file
 * Minimal leveled logging for the simulator.
 *
 * Experiments run quiet by default; tests and examples can raise the level
 * to trace reconfiguration decisions.
 */

#ifndef SPOTSERVE_SIMCORE_LOGGING_H
#define SPOTSERVE_SIMCORE_LOGGING_H

#include <string>

namespace spotserve {
namespace sim {

enum class LogLevel
{
    Silent = 0,
    Warn = 1,
    Info = 2,
    Debug = 3,
};

/** Set the process-wide log level. */
void setLogLevel(LogLevel level);

/** Current process-wide log level. */
LogLevel logLevel();

/**
 * True when a message at @p level would be emitted.  Call sites that
 * format their message check this first, so a quiet run builds no
 * strings.
 */
bool logEnabled(LogLevel level);

/** Emit a message if @p level is enabled.  printf-style body prebuilt. */
void logMessage(LogLevel level, const std::string &msg);

/** Convenience wrappers. */
void logWarn(const std::string &msg);
void logInfo(const std::string &msg);
void logDebug(const std::string &msg);

} // namespace sim
} // namespace spotserve

#endif // SPOTSERVE_SIMCORE_LOGGING_H
