/**
 * @file
 * spotserve_lint — domain-invariant checker for the SpotServe tree.
 *
 * Four rules the compiler cannot enforce.  The first three guard the
 * reproduction's determinism contract (the sim::Executor seam and the
 * golden wallclock hash); the fourth keeps console output behind the
 * logger:
 *
 *  - "nondeterminism": no wall-clock / sleep / OS-randomness APIs
 *    (steady_clock, system_clock, sleep_for, std::this_thread, rand,
 *    std::random_device, time(), gettimeofday, ...) anywhere in src/
 *    except the two components whose whole job is real time:
 *    simcore/wallclock_executor.* and serving/socket_ingress.*.  Every
 *    other component must get time from sim::Executor::now() and
 *    randomness from the seeded sim::Rng.
 *
 *  - "seam": no sim::Simulation references or pointers outside
 *    src/simcore/ (and no Simulation mention at all in headers outside
 *    simcore/) — components program against the abstract sim::Executor;
 *    only a composition root may *own* a concrete Simulation by value.
 *
 *  - "unordered-iteration": no iteration over std::unordered_map /
 *    std::unordered_set in src/core/ and src/costmodel/ — planning code
 *    there feeds the golden-hash timeline, and hash-order iteration is
 *    the classic way a "refactor" silently reorders it.  Membership
 *    tests (find/insert/count) are fine; range-for and .begin() walks
 *    are not.  Declared-unordered variable names are collected across
 *    the whole scanned tree, so iterating a member declared in a header
 *    is caught in the .cc.
 *
 *  - "stdio": no printf / fprintf / puts / std::cout / std::cerr /
 *    std::clog anywhere in src/ except simcore/logging.cc — library code
 *    reports through the leveled logger (sim::logInfo, sim::logWarn), so
 *    a bench's stdout carries only what the bench itself prints.
 *    Member calls and non-std qualifications (x.printf, fmt::cout) and
 *    buffer formatting (snprintf) are not console writes.
 *
 * Any rule can be suppressed for one line with an inline comment on the
 * same line or the immediately preceding comment-only line:
 *
 *     // SPOTSERVE_LINT_ALLOW(<rule>): <reason>
 *
 * Suppressions are recorded and reported (CI archives the report), an
 * ALLOW naming an unknown rule is itself a violation, and unused ALLOWs
 * are listed so dead suppressions do not accrete.
 *
 * The scanner is a line-oriented lexer (comments and string literals are
 * stripped before matching), not a full parser: rules are written so the
 * cheap approximation has no false negatives on the idioms this codebase
 * uses, and the fixture suite in tests/lint_test.cc pins the behavior.
 */

#ifndef SPOTSERVE_TOOLS_LINT_CORE_H
#define SPOTSERVE_TOOLS_LINT_CORE_H

#include <filesystem>
#include <string>
#include <vector>

namespace spotserve {
namespace lint {

struct Finding
{
    std::string file; ///< path relative to the scanned root ('/'-separated)
    int line = 0;     ///< 1-based
    std::string rule;
    std::string message;
    bool suppressed = false;
    std::string reason; ///< the ALLOW reason, when suppressed
};

/** An ALLOW comment that never matched a finding. */
struct UnusedAllow
{
    std::string file;
    int line = 0;
    std::string rule;
};

struct Report
{
    std::vector<Finding> findings;
    std::vector<UnusedAllow> unusedAllows;
    int filesScanned = 0;

    /** Unsuppressed findings — these fail the build. */
    std::vector<const Finding *> violations() const;
    /** Suppressed findings — recorded for the CI artifact. */
    std::vector<const Finding *> suppressions() const;
};

/** The rule names SPOTSERVE_LINT_ALLOW may reference. */
const std::vector<std::string> &knownRules();

/**
 * Scan every .h/.hpp/.cc/.cpp under @p root (recursively, in
 * deterministic path order).  Rule scoping is decided by each file's
 * path relative to @p root, so pass the src/ directory itself.
 */
Report scanTree(const std::filesystem::path &root);

/** Human-readable report (also the CI artifact format). */
std::string renderReport(const Report &report, const std::string &root_label);

} // namespace lint
} // namespace spotserve

#endif // SPOTSERVE_TOOLS_LINT_CORE_H
