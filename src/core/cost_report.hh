/**
 * @file
 * Cost-report rollup: attributed per-request ledgers (serving/cost.hh)
 * aggregated by label — one row per agent step, per rollout, or per
 * (agent, benchmark) pair — rendered as a console table and exported
 * as agentsim_cost_* metric families.
 *
 * Because the underlying ledgers are attributed (each engine step's
 * time split across its participants), rows are additive: the table's
 * TOTAL row reconciles with the engine's aggregate busy time and
 * energy, so "ReAct on HotpotQA costs 3.1 GPU-s and 0.4 Wh per solved
 * task" is a statement about real, non-overlapping resources.
 */

#ifndef AGENTSIM_CORE_COST_REPORT_HH
#define AGENTSIM_CORE_COST_REPORT_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/table.hh"
#include "serving/cost.hh"
#include "sim/types.hh"
#include "telemetry/registry.hh"

namespace agentsim::core
{

/** Accumulates ledgers under string labels (insertion-ordered). */
class CostReport
{
  public:
    /** Fold one ledger into the row named @p label. */
    void add(const std::string &label,
             const serving::CostLedger &ledger);

    /** Mark @p count extra requests folded into @p label's row
     *  (add() counts one by default). */
    void add(const std::string &label,
             const serving::CostLedger &ledger, std::int64_t count);

    /** Sum over all rows. */
    serving::CostLedger total() const;

    /** Number of labelled rows. */
    std::size_t rows() const { return rows_.size(); }

    /** Ledger of one labelled row (panics on unknown label). */
    const serving::CostLedger &ledger(const std::string &label) const;

    /**
     * Record the run's provisioned capacity (GPU-seconds paid for,
     * whether busy or idle — on autoscaled runs this includes node
     * warm-up). Adds a PROVISIONED footer row to render() and the
     * agentsim_cost_provisioned_* metric families; the gap between it
     * and TOTAL's attributed gpu_s is the run's idle overhead.
     */
    void setProvisionedGpuSeconds(double seconds);

    /** Provisioned capacity, or 0 when never recorded. */
    double provisionedGpuSeconds() const { return provisioned_; }

    /**
     * Record GPU-seconds that checkpoint-resume saved from being
     * recomputed, attributed to a failure cause ("crash", "shed",
     * ...). Each cause adds a RECOVERED footer row to render() and an
     * agentsim_cost_recovered_gpu_seconds_total{cause} series;
     * repeated calls with the same cause accumulate.
     */
    void addRecoveredGpuSeconds(const std::string &cause,
                                double seconds);

    /** Recovered GPU-seconds summed over all causes. */
    double recoveredGpuSeconds() const;

    /**
     * Render the cost table: one row per label plus a TOTAL row, with
     * GPU-seconds split prefill/decode, waste, cache savings, KV
     * block-seconds and energy (via energy/projection watt-hours).
     */
    Table render(const std::string &title) const;

    /**
     * Export agentsim_cost_attributed_* families into @p registry, one
     * series per row under its `workflow` label (the sum over rows is
     * the TOTAL row), and recovered seconds under a `cause` label.
     */
    void exportMetrics(telemetry::MetricsRegistry &registry) const;

    void clear();

  private:
    struct Row
    {
        std::string label;
        serving::CostLedger ledger;
        std::int64_t count = 0;
    };
    std::vector<Row> rows_;
    /** Provisioned GPU-seconds; <= 0 means "not recorded". */
    double provisioned_ = 0.0;
    /** Recovered GPU-seconds by failure cause (insertion-ordered). */
    std::vector<std::pair<std::string, double>> recovered_;

    Row &rowFor(const std::string &label);
};

} // namespace agentsim::core

#endif // AGENTSIM_CORE_COST_REPORT_HH
