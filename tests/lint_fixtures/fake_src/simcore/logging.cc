// Fixture: the logger is the one file that may write to the console.
#include <cstdio>

void fixtureLogSink(const char *msg)
{
    std::fprintf(stderr, "[warn] %s\n", msg);
}
