#include "cell.h"

namespace fix {
namespace {

std::string
appendConfig(const CellConfig &config)
{
    std::string out = "seed=" + std::to_string(config.seed)
        + ";window=" + std::to_string(config.window);
    if (config.testbed != nullptr)
        out += ";cores=" + std::to_string(config.testbed->cores)
            + ";ways=" + std::to_string(config.testbed->ways);
    return out;
}

} // namespace

std::string
canonicalCellText(const Cell &cell)
{
    return "app=" + cell.app + ";" + appendConfig(cell.config);
}

} // namespace fix
