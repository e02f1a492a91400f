// Drill cell-key fixture: CellConfig::fuel and Testbed::ways (reached
// through the testbed pointer) never reach canonicalCellText, so two
// cells differing only in either would share a result-cache key. Also
// plants a marker outside any class body.
#ifndef FIX_DRILL_CELL_H_
#define FIX_DRILL_CELL_H_

#include <cstdint>
#include <string>

// HISS_STATE_EXEMPT(stray_, save): not inside any class — must be
// reported as an orphan marker

namespace fix {

struct Testbed
{
    std::uint32_t cores = 4;
    std::uint32_t ways = 4; // the pointer drill: missing from the key
};

struct CellConfig
{
    std::uint32_t seed = 1;
    std::uint32_t window = 64;
    std::uint32_t fuel = 7; // the drill: missing from the key
    const Testbed *testbed = nullptr;
};

struct Cell
{
    std::string app;
    CellConfig config;
};

std::string canonicalCellText(const Cell &cell);

} // namespace fix

#endif // FIX_DRILL_CELL_H_
