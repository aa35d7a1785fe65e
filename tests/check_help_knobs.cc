/**
 * @file
 * Check that `nowlab`'s usage text names every knob in the knob table.
 * The usage text groups the knobs by hand; this keeps it complete
 * without generating it.
 *
 *   check_help_knobs path/to/nowlab
 */

#include <cctype>
#include <cstdio>
#include <string>

#include "harness/experiment.hh"

using namespace nowcluster;

int
main(int argc, char **argv)
{
    if (argc != 2) {
        std::fprintf(stderr, "usage: check_help_knobs path/to/nowlab\n");
        return 2;
    }
    FILE *p = ::popen(("'" + std::string(argv[1]) + "'").c_str(), "r");
    if (!p) {
        std::perror("popen");
        return 2;
    }
    std::string usage;
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof buf, p)) > 0)
        usage.append(buf, n);
    if (::pclose(p) != 0) {
        std::fprintf(stderr, "%s failed\n", argv[1]);
        return 1;
    }

    // "--topo" must appear on its own, not only as "--topo-hosts".
    auto named = [&usage](const std::string &flag) {
        for (std::size_t at = usage.find(flag); at != std::string::npos;
             at = usage.find(flag, at + 1)) {
            const char next = at + flag.size() < usage.size()
                                  ? usage[at + flag.size()]
                                  : ' ';
            if (next != '-' &&
                !std::isalnum(static_cast<unsigned char>(next)))
                return true;
        }
        return false;
    };
    int missing = 0;
    for (const KnobSpec &spec : knobTable()) {
        if (!named(std::string("--") + spec.key)) {
            std::fprintf(stderr, "nowlab usage does not name --%s\n",
                         spec.key);
            ++missing;
        }
    }
    if (missing)
        return 1;
    std::printf("nowlab usage names all %zu knobs\n", knobTable().size());
    return 0;
}
