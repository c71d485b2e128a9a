/**
 * @file
 * Plain-text table printer used by the benchmark harnesses to emit the
 * paper's tables and figure series in a uniform, diffable format.
 */

#ifndef CSCHED_SUPPORT_TABLE_HH
#define CSCHED_SUPPORT_TABLE_HH

#include <ostream>
#include <string>
#include <vector>

namespace csched {

/**
 * Column-aligned ASCII table.  Rows are added as string cells; numeric
 * convenience overloads format doubles with a fixed number of decimals.
 */
class TablePrinter
{
  public:
    /** Create a table with the given column headers. */
    explicit TablePrinter(std::vector<std::string> headers);

    /** Append a fully-formatted row; must match the header width. */
    void addRow(std::vector<std::string> cells);

    /** Render with padded columns and a separator under the header. */
    void print(std::ostream &os) const;

  private:
    std::vector<std::string> headers_;
    std::vector<std::vector<std::string>> rows_;
};

} // namespace csched

#endif // CSCHED_SUPPORT_TABLE_HH
