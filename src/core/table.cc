#include "core/table.hh"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstdio>

#include "sim/logging.hh"
#include "sim/strfmt.hh"
#include "telemetry/registry.hh"

namespace agentsim::core
{

void
Table::header(std::vector<std::string> columns)
{
    AGENTSIM_ASSERT(!columns.empty(), "empty table header");
    header_ = std::move(columns);
}

void
Table::row(std::vector<std::string> cells)
{
    AGENTSIM_ASSERT(cells.size() == header_.size(),
                    "row width %zu != header width %zu", cells.size(),
                    header_.size());
    rows_.push_back(std::move(cells));
}

std::string
Table::render() const
{
    std::vector<std::size_t> widths(header_.size());
    for (std::size_t c = 0; c < header_.size(); ++c)
        widths[c] = header_[c].size();
    for (const auto &r : rows_) {
        for (std::size_t c = 0; c < r.size(); ++c)
            widths[c] = std::max(widths[c], r[c].size());
    }

    auto renderRow = [&](const std::vector<std::string> &cells) {
        std::string line = "|";
        for (std::size_t c = 0; c < cells.size(); ++c) {
            line += " " + cells[c];
            line += std::string(widths[c] - cells[c].size(), ' ');
            line += " |";
        }
        return line + "\n";
    };

    std::string sep = "+";
    for (std::size_t w : widths)
        sep += std::string(w + 2, '-') + "+";
    sep += "\n";

    std::string out;
    out += "== " + title_ + " ==\n";
    out += sep;
    out += renderRow(header_);
    out += sep;
    for (const auto &r : rows_)
        out += renderRow(r);
    out += sep;
    return out;
}

void
Table::print() const
{
    const std::string text = render();
    std::fwrite(text.data(), 1, text.size(), stdout);
    std::fflush(stdout);

    if (const char *dir = std::getenv("AGENTSIM_CSV_DIR");
        dir != nullptr && dir[0] != '\0') {
        const std::string path =
            std::string(dir) + "/" + slug() + ".csv";
        if (!writeCsv(path))
            AGENTSIM_WARN("could not write %s", path.c_str());
    }
}

namespace
{

/** Quote a CSV cell if it contains a delimiter, quote or newline. */
std::string
csvCell(const std::string &cell)
{
    if (cell.find_first_of(",\"\n") == std::string::npos)
        return cell;
    std::string out = "\"";
    for (char c : cell) {
        if (c == '"')
            out += '"';
        out += c;
    }
    out += '"';
    return out;
}

} // namespace

std::string
Table::renderCsv() const
{
    std::string out;
    auto append_row = [&](const std::vector<std::string> &cells) {
        for (std::size_t i = 0; i < cells.size(); ++i) {
            if (i > 0)
                out += ',';
            out += csvCell(cells[i]);
        }
        out += '\n';
    };
    append_row(header_);
    for (const auto &r : rows_)
        append_row(r);
    return out;
}

bool
Table::writeCsv(const std::string &path) const
{
    return telemetry::writeTextFile(path, renderCsv());
}

std::string
Table::slug() const
{
    std::string out;
    bool last_dash = false;
    for (char c : title_) {
        const bool ok = (c >= 'a' && c <= 'z') ||
                        (c >= 'A' && c <= 'Z') ||
                        (c >= '0' && c <= '9');
        if (ok) {
            out += static_cast<char>(
                c >= 'A' && c <= 'Z' ? c - 'A' + 'a' : c);
            last_dash = false;
        } else if (!last_dash && !out.empty()) {
            out += '-';
            last_dash = true;
        }
    }
    while (!out.empty() && out.back() == '-')
        out.pop_back();
    return out.empty() ? "table" : out;
}

std::string
fmtDouble(double v, int precision)
{
    return sim::strfmt("%.*f", precision, v);
}

std::string
fmtPercent(double fraction, int precision)
{
    return sim::strfmt("%.*f%%", precision, fraction * 100.0);
}

std::string
fmtSeconds(double seconds)
{
    if (seconds < 0.001)
        return sim::strfmt("%.0f us", seconds * 1e6);
    if (seconds < 1.0)
        return sim::strfmt("%.1f ms", seconds * 1e3);
    return sim::strfmt("%.2f s", seconds);
}

std::string
fmtCount(double v)
{
    if (std::abs(v - std::round(v)) < 1e-9)
        return sim::strfmt("%lld", static_cast<long long>(
                                       std::llround(v)));
    return sim::strfmt("%.1f", v);
}

std::string
fmtEng(double v, const std::string &unit)
{
    const char *prefixes[] = {"", "k", "M", "G", "T", "P"};
    int idx = 0;
    double x = v;
    while (std::abs(x) >= 1000.0 && idx < 5) {
        x /= 1000.0;
        ++idx;
    }
    return sim::strfmt("%.2f %s%s", x, prefixes[idx], unit.c_str());
}

} // namespace agentsim::core
