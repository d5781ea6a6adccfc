// Fixture: a console write suppressed with a reason.
#include <cstdio>

void fixtureStdioAllowed()
{
    // SPOTSERVE_LINT_ALLOW(stdio): fixture — crash banner before abort
    std::printf("fatal\n");
    std::puts("fatal"); // SPOTSERVE_LINT_ALLOW(stdio): fixture — same-line form
}
