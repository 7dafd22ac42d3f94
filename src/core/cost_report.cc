#include "core/cost_report.hh"

#include <algorithm>
#include <cctype>

#include "energy/projection.hh"
#include "sim/logging.hh"
#include "sim/strfmt.hh"

namespace agentsim::core
{

CostReport::Row &
CostReport::rowFor(const std::string &label)
{
    for (Row &row : rows_) {
        if (row.label == label)
            return row;
    }
    rows_.push_back(Row{label, {}, 0});
    return rows_.back();
}

void
CostReport::add(const std::string &label,
                const serving::CostLedger &ledger)
{
    add(label, ledger, 1);
}

void
CostReport::add(const std::string &label,
                const serving::CostLedger &ledger, std::int64_t count)
{
    Row &row = rowFor(label);
    row.ledger += ledger;
    row.count += count;
}

serving::CostLedger
CostReport::total() const
{
    serving::CostLedger sum;
    for (const Row &row : rows_)
        sum += row.ledger;
    return sum;
}

const serving::CostLedger &
CostReport::ledger(const std::string &label) const
{
    for (const Row &row : rows_) {
        if (row.label == label)
            return row.ledger;
    }
    AGENTSIM_PANIC("cost report has no row labelled '%s'",
                   label.c_str());
}

Table
CostReport::render(const std::string &title) const
{
    Table table(title);
    table.header({"label", "n", "gpu_s", "prefill_s", "decode_s",
                  "wasted_s", "saved_s", "queue_s", "kv_blk_s",
                  "energy_wh"});
    auto emit = [&](const std::string &label,
                    const serving::CostLedger &l, std::int64_t n) {
        table.row({label, fmtCount(static_cast<double>(n)),
                   fmtDouble(l.gpuSeconds(), 3),
                   fmtDouble(l.prefillGpuSeconds, 3),
                   fmtDouble(l.decodeGpuSeconds, 3),
                   fmtDouble(l.wastedGpuSeconds, 3),
                   fmtDouble(l.savedPrefillSeconds, 3),
                   fmtDouble(l.queueSeconds, 3),
                   fmtDouble(l.kvBlockSeconds, 1),
                   fmtDouble(energy::wattHours(l.energyJoules), 3)});
    };
    std::int64_t total_count = 0;
    for (const Row &row : rows_) {
        emit(row.label, row.ledger, row.count);
        total_count += row.count;
    }
    emit("TOTAL", total(), total_count);
    for (const auto &[cause, seconds] : recovered_) {
        // Footer: work a resume did NOT recompute, by failure cause —
        // reads against TOTAL's gpu_s (what was actually paid).
        table.row({"RECOVERED (" + cause + ")", "-",
                   fmtDouble(seconds, 3), "-", "-", "-", "-", "-", "-",
                   "-"});
    }
    if (provisioned_ > 0.0) {
        const double busy = total().gpuSeconds();
        table.row({"PROVISIONED", "-", fmtDouble(provisioned_, 3), "-",
                   "-", "-", "-", "-", "-",
                   sim::strfmt("util %.0f%%",
                               100.0 * busy /
                                   std::max(provisioned_, 1e-12))});
    }
    return table;
}

void
CostReport::setProvisionedGpuSeconds(double seconds)
{
    AGENTSIM_ASSERT(seconds >= 0.0,
                    "negative provisioned GPU seconds");
    provisioned_ = seconds;
}

void
CostReport::addRecoveredGpuSeconds(const std::string &cause,
                                   double seconds)
{
    AGENTSIM_ASSERT(seconds >= 0.0, "negative recovered GPU seconds");
    for (auto &[name, total] : recovered_) {
        if (name == cause) {
            total += seconds;
            return;
        }
    }
    recovered_.emplace_back(cause, seconds);
}

double
CostReport::recoveredGpuSeconds() const
{
    double sum = 0.0;
    for (const auto &[name, seconds] : recovered_)
        sum += seconds;
    return sum;
}

void
CostReport::exportMetrics(telemetry::MetricsRegistry &registry,
                          sim::Tick now) const
{
    auto emit = [&](const std::string &suffix,
                    const serving::CostLedger &l) {
        auto set = [&](const char *family, const char *help,
                       double value) {
            registry.counter(sim::strfmt("%s%s_total", family,
                                         suffix.c_str()),
                             help)
                .set(value);
        };
        set("agentsim_cost_gpu_seconds", "Attributed GPU seconds",
            l.gpuSeconds());
        set("agentsim_cost_prefill_gpu_seconds",
            "Attributed prefill GPU seconds", l.prefillGpuSeconds);
        set("agentsim_cost_decode_gpu_seconds",
            "Attributed decode GPU seconds", l.decodeGpuSeconds);
        set("agentsim_cost_wasted_gpu_seconds",
            "GPU seconds re-prefilling preempted work",
            l.wastedGpuSeconds);
        set("agentsim_cost_saved_prefill_seconds",
            "Prefill seconds avoided by prefix caching",
            l.savedPrefillSeconds);
        set("agentsim_cost_queue_seconds",
            "Seconds spent waiting for admission", l.queueSeconds);
        set("agentsim_cost_kv_block_seconds",
            "KV occupancy integral (blocks x seconds)",
            l.kvBlockSeconds);
        set("agentsim_cost_energy_joules",
            "Attributed busy energy", l.energyJoules);
    };
    emit("", total());
    for (const Row &row : rows_)
        emit(sim::strfmt("_%s", sanitizeMetricLabel(row.label).c_str()),
             row.ledger);
    for (const auto &[cause, seconds] : recovered_) {
        registry
            .counter(sim::strfmt(
                         "agentsim_cost_recovered_gpu_seconds_%s_"
                         "total",
                         sanitizeMetricLabel(cause).c_str()),
                     "GPU seconds checkpoint-resume saved from "
                     "recomputation")
            .set(seconds);
    }
    if (provisioned_ > 0.0) {
        registry
            .counter("agentsim_cost_provisioned_gpu_seconds_total",
                     "GPU seconds provisioned (busy or idle, "
                     "including node warm-up)")
            .set(provisioned_);
        registry
            .gauge("agentsim_cost_provisioned_utilization",
                   "Attributed busy GPU seconds over provisioned")
            .set(now, total().gpuSeconds() / provisioned_);
    }
}

void
CostReport::clear()
{
    rows_.clear();
    provisioned_ = 0.0;
    recovered_.clear();
}

std::string
sanitizeMetricLabel(const std::string &label)
{
    std::string out;
    out.reserve(label.size());
    bool last_underscore = false;
    for (char c : label) {
        const auto uc = static_cast<unsigned char>(c);
        if (std::isalnum(uc)) {
            out.push_back(
                static_cast<char>(std::tolower(uc)));
            last_underscore = false;
        } else if (!last_underscore && !out.empty()) {
            out.push_back('_');
            last_underscore = true;
        }
    }
    while (!out.empty() && out.back() == '_')
        out.pop_back();
    return out.empty() ? "unnamed" : out;
}

} // namespace agentsim::core
