/**
 * @file
 * scibench: the repository's end-to-end benchmark program.
 *
 *   scibench --workload mine|mine-persist|check --seed N --seconds S
 *            --trace 0|1 [--workdir D]
 *   scibench --prepare [--workdir D]
 *
 * --prepare runs phases 1-3 once into D/check-artifacts, which the
 * check workload loads. Exit status: 0 when every output check held,
 * 1 when one failed (the result line is still printed), 2 on usage
 * errors.
 */

#include <cstdlib>
#include <iostream>
#include <string>

#include "report.hh"
#include "support/logging.hh"

namespace {

bool
parseUnsigned(const std::string &s, uint64_t *out)
{
    if (s.empty() || s[0] == '-')
        return false;
    char *end = nullptr;
    unsigned long long v = std::strtoull(s.c_str(), &end, 10);
    if (*end != '\0')
        return false;
    *out = v;
    return true;
}

int
usage(const std::string &why)
{
    std::cerr << "scibench: " << why << "\n"
              << "usage: scibench --workload mine|mine-persist|check "
                 "--seed N --seconds S --trace 0|1\n"
                 "                [--workdir D]\n"
                 "       scibench --prepare [--workdir D]\n";
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    scibench::Options o;
    bool prepare = false;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--prepare") {
            prepare = true;
            continue;
        }
        if (i + 1 >= argc)
            return usage(arg + " needs a value");
        std::string value = argv[++i];
        if (arg == "--workload") {
            o.workload = value;
        } else if (arg == "--seed") {
            if (!parseUnsigned(value, &o.seed))
                return usage("--seed expects a number");
        } else if (arg == "--seconds") {
            char *end = nullptr;
            o.seconds = std::strtod(value.c_str(), &end);
            if (*end != '\0' || !(o.seconds > 0) || o.seconds > 3600)
                return usage("--seconds expects a number in (0, 3600]");
        } else if (arg == "--trace") {
            if (value != "0" && value != "1")
                return usage("--trace expects 0 or 1");
            o.trace = value == "1";
        } else if (arg == "--workdir") {
            o.workdir = value;
        } else {
            return usage("unknown option " + arg);
        }
    }
    scif::setQuiet(true);

    if (prepare)
        return scibench::prepareCheck(o) ? 0 : 1;

    scibench::Report report;
    if (!scibench::runWorkload(o, report))
        return usage("unknown workload '" + o.workload + "'");
    std::cout << report.render(o) << std::flush;
    return report.exitCode();
}
