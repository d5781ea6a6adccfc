/**
 * @file
 * perfbench: the repository benchmark.
 *
 *   perfbench --workload <fleet-churn|fewshot-hostile|fleet-replan|
 *                         ingress-stream>
 *             --seed <n> --seconds <s> --trace <0|1> [--trace-dir <dir>]
 *
 * Prints every metric by name with its unit and sample detail, then one
 * JSON result line: end-to-end metrics with --trace 0, per-layer metrics
 * (and a Chrome trace in --trace-dir) with --trace 1.  Exits 1 when any
 * output check failed, 2 on a usage error.
 */

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "workloads.h"

using namespace perfbench;

namespace {

int
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s --workload <fleet-churn|fewshot-hostile|"
                 "fleet-replan|ingress-stream> --seed N --seconds S "
                 "--trace 0|1 [--trace-dir DIR]\n",
                 argv0);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    RunOptions options;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            return usage(argv[0]);
        const std::string value = argv[++i];
        if (arg == "--workload")
            options.workload = value;
        else if (arg == "--seed")
            options.seed = std::strtoull(value.c_str(), nullptr, 10);
        else if (arg == "--seconds")
            options.seconds = std::atof(value.c_str());
        else if (arg == "--trace")
            options.trace = value == "1";
        else if (arg == "--trace-dir")
            options.traceDir = value;
        else
            return usage(argv[0]);
    }
    if (options.seconds <= 0.0)
        return usage(argv[0]);

    Result result;
    try {
        if (options.workload == "fleet-churn")
            result = runFleetChurn(options);
        else if (options.workload == "fewshot-hostile")
            result = runFewshotHostile(options);
        else if (options.workload == "fleet-replan")
            result = runFleetReplan(options);
        else if (options.workload == "ingress-stream")
            result = runIngressStream(options);
        else
            return usage(argv[0]);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
    printResult(result, options.trace);
    return result.accounting.correct() ? 0 : 1;
}
