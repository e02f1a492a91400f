/**
 * @file
 * Table II: test system configuration.
 *
 * Prints the simulated testbed alongside the paper's hardware so the
 * substitution is explicit.
 */

#include <cstdio>

#include "bench/harness.h"

namespace hiss::bench {
namespace {

void
print(const FigureArgs &, const Results &)
{
    banner("Table II: Test System Configuration",
           "AMD A10-7850K: 4x 3.7 GHz Family 15h cores, "
           "720 MHz GCN 1.1 GPU, 32 GB DDR3-1866, "
           "Ubuntu 14.04 + Linux 4.0 + HSA driver v1.6.1");

    std::printf("Paper testbed          | This reproduction\n");
    std::printf("-----------------------+------------------------------"
                "---\n");
    std::printf("AMD A10-7850K SoC      | hiss discrete-event SoC "
                "simulator\n");
    std::printf("4x 3.7 GHz CPU cores   | 4 core models @ 3.7 GHz\n");
    std::printf("720 MHz GCN 1.1 GPU    | GPU device model @ 720 MHz\n");
    std::printf("32 GB DDR3-1866        | 32 GiB simulated DRAM "
                "(4 KiB frames)\n");
    std::printf("Linux 4.0 + HSA v1.6.1 | kernel model: split "
                "top/bottom-half IOMMU driver,\n");
    std::printf("                       | per-CPU kworkers, CFS-like "
                "scheduler, CC6 governor\n\n");

    SystemConfig config;
    std::printf("%s\n", config.describe().c_str());
}

} // namespace

const Figure kTable2 = {"table2", "test system configuration", 1, nullptr,
                        print};

} // namespace hiss::bench
