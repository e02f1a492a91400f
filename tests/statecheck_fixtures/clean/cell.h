// Clean cell-key fixture: every field reachable from the cell, by
// value or through the testbed pointer, appears in canonicalCellText
// (directly or via a helper in the same translation unit).
#ifndef FIX_CLEAN_CELL_H_
#define FIX_CLEAN_CELL_H_

#include <cstdint>
#include <string>

namespace fix {

struct Testbed
{
    std::uint32_t cores = 4;
    std::uint32_t ways = 4;
};

struct CellConfig
{
    std::uint32_t seed = 1;
    std::uint32_t window = 64;
    const Testbed *testbed = nullptr;
};

struct Cell
{
    std::string app;
    CellConfig config;
};

std::string canonicalCellText(const Cell &cell);

} // namespace fix

#endif // FIX_CLEAN_CELL_H_
