// Fixture: every marked line seeds a stdio violation; the lookalikes
// at the bottom must not fire.
#include <cstdio>
#include <iostream>

template <typename Sink>
void fixtureConsoleWrites(Sink &sink)
{
    std::printf("served\n");          // violation: printf
    fprintf(stderr, "warn\n");        // violation: fprintf
    puts("done");                     // violation: puts
    std::cout << "latency" << '\n';   // violation: cout
    std::cerr << "error" << '\n';     // violation: cerr
    std::clog << "trace" << '\n';     // violation: clog

    // Lookalikes: a member call, a foreign qualification, buffer
    // formatting, and the banned names inside a string or comment
    // (printf, std::cout).
    char buf[32];
    std::snprintf(buf, sizeof buf, "%s", "printf");
    sink.printf(buf);
    (void)buf;
}
