// Tests for tools/lint: every rule must fire on the seeded fixture
// violations, every SPOTSERVE_LINT_ALLOW form must suppress (and be
// recorded), clean trees must pass, and the real src/ tree must scan
// clean — the same contract the `spotserve_lint` ctest and the CI
// static-analysis job enforce.

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "lint/lint_core.h"

namespace lint = spotserve::lint;

namespace {

lint::Report scanFixtures()
{
    static const lint::Report report = lint::scanTree(
        std::string(SPOTSERVE_LINT_FIXTURE_DIR) + "/fake_src");
    return report;
}

std::vector<const lint::Finding *>
violationsIn(const lint::Report &report, const std::string &file,
             const std::string &rule)
{
    std::vector<const lint::Finding *> out;
    for (const auto *f : report.violations())
        if (f->file == file && f->rule == rule)
            out.push_back(f);
    return out;
}

std::vector<const lint::Finding *>
suppressionsIn(const lint::Report &report, const std::string &file)
{
    std::vector<const lint::Finding *> out;
    for (const auto *f : report.suppressions())
        if (f->file == file)
            out.push_back(f);
    return out;
}

} // namespace

TEST(LintNondeterminism, EveryBannedSourceFires)
{
    const auto report = scanFixtures();
    const auto found = violationsIn(report, "engine/nondet_violation.cc",
                                    "nondeterminism");
    // steady_clock, system_clock, this_thread, sleep_for, rand(),
    // random_device, time() — one finding each.
    EXPECT_EQ(found.size(), 7u);

    std::vector<std::string> tokens = {
        "steady_clock", "system_clock", "this_thread", "sleep_for",
        "rand",         "random_device", "time"};
    for (const auto &token : tokens) {
        const bool hit =
            std::any_of(found.begin(), found.end(), [&](const auto *f) {
                return f->message.find("'" + token) != std::string::npos;
            });
        EXPECT_TRUE(hit) << "no finding mentions " << token;
    }
}

TEST(LintNondeterminism, LookalikeIdentifiersAndCommentsDoNotFire)
{
    const auto report = scanFixtures();
    // clean.cc names steady_clock/rand() in comments and declares
    // time_budget/randomize identifiers — none may fire.
    for (const auto *f : report.violations())
        EXPECT_NE(f->file, "engine/clean.cc") << f->message;
}

TEST(LintNondeterminism, AllowlistedWallclockFilesAreExempt)
{
    const auto report = scanFixtures();
    for (const auto &f : report.findings)
        EXPECT_NE(f.file, "simcore/wallclock_executor.cc") << f.message;
}

TEST(LintSuppression, SameLineAndPreviousLineAllowBothWork)
{
    const auto report = scanFixtures();
    EXPECT_TRUE(violationsIn(report, "engine/nondet_suppressed.cc",
                             "nondeterminism")
                    .empty());
    const auto recorded =
        suppressionsIn(report, "engine/nondet_suppressed.cc");
    ASSERT_EQ(recorded.size(), 2u);
    // The reasons ride along into the report (the CI audit artifact).
    for (const auto *f : recorded)
        EXPECT_NE(f->reason.find("fixture"), std::string::npos);
}

TEST(LintSuppression, UnknownRuleNameIsItselfAViolation)
{
    const auto report = scanFixtures();
    const auto bogus = violationsIn(
        report, "costmodel/unordered_costmodel.cc", "lint-allow");
    ASSERT_EQ(bogus.size(), 1u);
    EXPECT_NE(bogus[0]->message.find("bogus-rule"), std::string::npos);
}

TEST(LintSeam, ReferencePointerAndHeaderMentionsFire)
{
    const auto report = scanFixtures();
    EXPECT_EQ(
        violationsIn(report, "serving/seam_violation.cc", "seam").size(),
        2u); // one & parameter, one * parameter
    EXPECT_EQ(
        violationsIn(report, "serving/seam_header.h", "seam").size(),
        2u); // forward declaration + member, both header mentions
}

TEST(LintSeam, SimcoreAndSuppressedUsesPass)
{
    const auto report = scanFixtures();
    // Simulation& inside simcore/ is the implementation itself.
    EXPECT_TRUE(violationsIn(report, "simcore/wallclock_executor.cc",
                             "seam")
                    .empty());
    EXPECT_TRUE(violationsIn(report, "serving/seam_suppressed.cc", "seam")
                    .empty());
    EXPECT_EQ(suppressionsIn(report, "serving/seam_suppressed.cc").size(),
              1u);
}

TEST(LintUnorderedIteration, RangeForAndIteratorWalksFireInScopedDirs)
{
    const auto report = scanFixtures();
    EXPECT_EQ(violationsIn(report, "core/unordered_iter.cc",
                           "unordered-iteration")
                  .size(),
              2u);
    EXPECT_EQ(violationsIn(report, "costmodel/unordered_costmodel.cc",
                           "unordered-iteration")
                  .size(),
              1u);
}

TEST(LintUnorderedIteration, MemberDeclaredInHeaderIsCaughtInSource)
{
    const auto report = scanFixtures();
    const auto found = violationsIn(report, "core/cross_file_member.cc",
                                    "unordered-iteration");
    ASSERT_EQ(found.size(), 1u);
    EXPECT_NE(found[0]->message.find("pendingByInstance_"),
              std::string::npos);
}

TEST(LintUnorderedIteration, OutsideScopedDirsAndSuppressedPass)
{
    const auto report = scanFixtures();
    EXPECT_TRUE(violationsIn(report, "engine/unordered_outside.cc",
                             "unordered-iteration")
                    .empty());
    EXPECT_TRUE(violationsIn(report, "core/unordered_iter_suppressed.cc",
                             "unordered-iteration")
                    .empty());
    EXPECT_EQ(
        suppressionsIn(report, "core/unordered_iter_suppressed.cc").size(),
        1u);
}

TEST(LintStdio, EveryConsoleWriterFires)
{
    const auto report = scanFixtures();
    const auto found =
        violationsIn(report, "serving/stdio_violation.cc", "stdio");
    // printf, fprintf, puts, cout, cerr, clog — one finding each; the
    // member call, snprintf and the string/comment mentions stay quiet.
    EXPECT_EQ(found.size(), 6u);
    for (const std::string token :
         {"printf", "fprintf", "puts", "cout", "cerr", "clog"}) {
        const bool hit =
            std::any_of(found.begin(), found.end(), [&](const auto *f) {
                return f->message.find("'" + token + "'") !=
                       std::string::npos;
            });
        EXPECT_TRUE(hit) << "no finding mentions " << token;
    }
}

TEST(LintStdio, LoggerIsExemptAndSuppressionsWork)
{
    const auto report = scanFixtures();
    for (const auto &f : report.findings)
        EXPECT_NE(f.file, "simcore/logging.cc") << f.message;
    EXPECT_TRUE(
        violationsIn(report, "engine/stdio_suppressed.cc", "stdio").empty());
    EXPECT_EQ(suppressionsIn(report, "engine/stdio_suppressed.cc").size(),
              2u);
}

TEST(LintReport, RenderListsViolationsAndSuppressions)
{
    const auto report = scanFixtures();
    const std::string rendered = lint::renderReport(report, "fake_src");
    EXPECT_NE(rendered.find("FAILED"), std::string::npos);
    EXPECT_NE(rendered.find("[nondeterminism]"), std::string::npos);
    EXPECT_NE(rendered.find("[seam]"), std::string::npos);
    EXPECT_NE(rendered.find("[unordered-iteration]"), std::string::npos);
    EXPECT_NE(rendered.find("[stdio]"), std::string::npos);
    EXPECT_NE(rendered.find("suppressions ("), std::string::npos);
}

TEST(LintCleanTree, PassesWithZeroFindings)
{
    const auto report = lint::scanTree(
        std::string(SPOTSERVE_LINT_FIXTURE_DIR) + "/clean_tree");
    EXPECT_EQ(report.filesScanned, 2);
    EXPECT_TRUE(report.findings.empty());
    const std::string rendered = lint::renderReport(report, "clean_tree");
    EXPECT_NE(rendered.find("OK"), std::string::npos);
}

// The contract the ctest-registered `spotserve_lint` run enforces, pinned
// here too so a lint regression is visible in two places: the real tree
// has zero unsuppressed violations, and its deliberate suppressions
// (the order-independent max-reduces in cost::MigrationCostModel) are
// recorded with reasons.
TEST(LintRealTree, SourceTreeIsCleanAndSuppressionsAreRecorded)
{
    const auto report = lint::scanTree(SPOTSERVE_LINT_SOURCE_TREE);
    EXPECT_GT(report.filesScanned, 60);
    for (const auto *f : report.violations())
        ADD_FAILURE() << f->file << ":" << f->line << ": [" << f->rule
                      << "] " << f->message;
    EXPECT_FALSE(report.suppressions().empty());
    for (const auto *f : report.suppressions())
        EXPECT_FALSE(f->reason.empty())
            << f->file << ":" << f->line << " suppressed without reason";
}
