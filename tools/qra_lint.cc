/**
 * @file
 * qra_lint — static circuit linter.
 *
 * Reads an OpenQASM 2.0 file (qra:assert-* directives included),
 * runs the static analyzer over it, and prints every lint warning
 * (QRA-L001..L005, see compile/analysis/lint.hh) in a stable,
 * grep-friendly format:
 *
 *   FILE:QRA-Lxxx: message
 *
 * Usage:
 *   qra_lint FILE.qasm... [--device ideal|ibmqx4] [--quiet]
 *
 * --device ibmqx4 also checks routability against the device's
 * coupling map (QRA-L005). Exit status: 0 when every file is clean,
 * 1 when any warning fired, 2 on usage or parse errors — so the tool
 * can gate CI the same way a classical linter does.
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "assertions/directives.hh"
#include "qra.hh"

using namespace qra;
using namespace qra::compile;

namespace {

struct Options
{
    std::vector<std::string> files;
    std::string device = "ideal";
    bool quiet = false;
};

void
usage()
{
    std::fprintf(stderr,
                 "usage: qra_lint FILE.qasm... [--device "
                 "ideal|ibmqx4] [--quiet]\n");
}

bool
parseArgs(int argc, char **argv, Options &opts)
{
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--device") {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "missing value for --device\n");
                return false;
            }
            opts.device = argv[++i];
        } else if (arg == "--quiet") {
            opts.quiet = true;
        } else if (arg.rfind("--", 0) == 0) {
            std::fprintf(stderr, "unknown flag %s\n", arg.c_str());
            return false;
        } else {
            opts.files.push_back(arg);
        }
    }
    return !opts.files.empty();
}

/** Lint one file; returns the number of warnings (or -1 on error). */
int
lintFile(const std::string &path, const CouplingMap *coupling,
         bool quiet)
{
    std::ifstream in(path);
    if (!in) {
        std::fprintf(stderr, "%s: cannot open\n", path.c_str());
        return -1;
    }
    std::stringstream buffer;
    buffer << in.rdbuf();

    try {
        const AnnotatedProgram program =
            parseAnnotatedQasm(buffer.str());
        const std::vector<analysis::LintWarning> warnings =
            analysis::lintCircuit(program.payload, program.specs,
                                  coupling);
        if (!quiet)
            for (const analysis::LintWarning &warning : warnings)
                std::printf("%s:%s\n", path.c_str(),
                            warning.str().c_str());
        return static_cast<int>(warnings.size());
    } catch (const std::exception &e) {
        std::fprintf(stderr, "%s: %s\n", path.c_str(), e.what());
        return -1;
    }
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts;
    if (!parseArgs(argc, argv, opts)) {
        usage();
        return 2;
    }

    const CouplingMap *coupling = nullptr;
    std::optional<DeviceModel> device;
    if (opts.device == "ibmqx4") {
        device.emplace(DeviceModel::ibmqx4());
        coupling = &device->couplingMap();
    } else if (opts.device != "ideal") {
        std::fprintf(stderr, "unknown device '%s'\n",
                     opts.device.c_str());
        return 2;
    }

    std::size_t total = 0;
    bool failed = false;
    for (const std::string &file : opts.files) {
        const int warnings = lintFile(file, coupling, opts.quiet);
        if (warnings < 0)
            failed = true;
        else
            total += static_cast<std::size_t>(warnings);
    }
    if (failed)
        return 2;
    if (!opts.quiet && total > 0)
        std::printf("%zu warning%s\n", total, total == 1 ? "" : "s");
    return total > 0 ? 1 : 0;
}
