/**
 * @file
 * Ablation — prefill/decode disaggregation (Splitwise/DistServe,
 * cited in §IV): two GPUs as an aggregated pair (round-robin) vs a
 * prefill node + decode node pair. Disaggregation shields decode
 * traffic from long prefills, compressing the TTFT tail under
 * prefill-heavy load at the cost of the KV transfer hop.
 */

#include <cstdio>
#include <vector>

#include "common.hh"
#include "serving/disagg.hh"
#include "workload/token_stream.hh"

namespace
{

using namespace benchutil;

struct RunStats
{
    stats::SampleSet e2e;
    stats::SampleSet ttft;
    int completed = 0;
    double makespan = 0.0;
};

/** Build a prefill-heavy chat request (long prompt, short output),
 *  hashed in the block size of the engine preset every server uses. */
serving::GenRequest
makeRequest(std::uint64_t index)
{
    const workload::ShareGptSampler sampler(kSeed);
    const auto chat = sampler.sample(index);
    serving::GenRequest req;
    req.prompt = kv::TokenChain(
        core::enginePreset8b().blockSize,
        workload::makeTokens(
            workload::substream(workload::streamId(kSeed, "disagg"),
                                index),
            std::max<std::int64_t>(64, chat.promptTokens * 4)));
    req.maxNewTokens = std::max<std::int64_t>(16, chat.outputTokens / 2);
    return req;
}

template <typename Server>
sim::Task<void>
worker(sim::Simulation &sim, Server &server, std::uint64_t index,
       RunStats &out)
{
    const sim::Tick submit = sim.now();
    serving::GenResult r =
        co_await server.generate(makeRequest(index));
    out.e2e.add(sim::toSeconds(sim.now() - submit));
    out.ttft.add(r.ttftSeconds);
    ++out.completed;
}

template <typename Server, typename Pick>
sim::Task<void>
driver(sim::Simulation &sim, double qps, int n, Pick pick,
       RunStats &out)
{
    sim::Rng arrivals(kSeed, "disagg.arrivals", 0);
    std::vector<sim::Task<void>> workers;
    for (int i = 0; i < n; ++i) {
        if (i > 0)
            co_await sim::delaySec(sim,
                                   arrivals.exponential(1.0 / qps));
        Server &server = pick(i);
        workers.push_back(worker(sim, server,
                                 static_cast<std::uint64_t>(i), out));
    }
    co_await sim::allOf(std::move(workers));
}

RunStats
runAggregated(double qps, int n, std::int64_t step_budget)
{
    sim::Simulation sim;
    auto cfg = core::enginePreset8b();
    cfg.maxBatchTokens = step_budget;
    serving::LlmEngine a(sim, cfg);
    serving::LlmEngine b(sim, cfg);
    RunStats out;
    auto drive = driver<serving::LlmEngine>(
        sim, qps, n,
        [&](int i) -> serving::LlmEngine & {
            return i % 2 == 0 ? a : b;
        },
        out);
    const sim::Tick start = sim.now();
    sim.run();
    out.makespan = sim::toSeconds(sim.now() - start);
    (void)drive;
    return out;
}

RunStats
runDisaggregated(double qps, int n, std::int64_t step_budget)
{
    sim::Simulation sim;
    serving::DisaggConfig cfg;
    cfg.prefillNode = core::enginePreset8b();
    cfg.prefillNode.maxBatchTokens = step_budget;
    cfg.decodeNode = core::enginePreset8b();
    cfg.decodeNode.maxBatchTokens = step_budget;
    serving::DisaggServer server(sim, cfg);
    RunStats out;
    auto drive = driver<serving::DisaggServer>(
        sim, qps, n,
        [&](int) -> serving::DisaggServer & { return server; }, out);
    const sim::Tick start = sim.now();
    sim.run();
    out.makespan = sim::toSeconds(sim.now() - start);
    (void)drive;
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace benchutil;
    TelemetryCli telemetry(argc, argv);
    telemetry.report().setGenerator("ablation_disagg");

    core::Table t("Ablation: prefill/decode disaggregation "
                  "(2 GPUs each; prefill-heavy chat)");
    t.header({"Architecture", "Scheduler", "QPS", "TTFT p95",
              "E2E p95", "Throughput"});
    for (double qps : {3.0, 5.0}) {
        const int n = 200;
        struct Case
        {
            const char *sched;
            std::int64_t budget;
        };
        for (const Case c : {Case{"chunked (512)", 512},
                             Case{"unchunked (8k)", 8192}}) {
            const auto agg = runAggregated(qps, n, c.budget);
            const auto dis = runDisaggregated(qps, n, c.budget);
            t.row({"aggregated x2", c.sched, core::fmtDouble(qps, 1),
                   core::fmtSeconds(agg.ttft.percentile(95)),
                   core::fmtSeconds(agg.e2e.percentile(95)),
                   core::fmtDouble(agg.completed / agg.makespan, 2)});
            t.row({"disaggregated", c.sched, core::fmtDouble(qps, 1),
                   core::fmtSeconds(dis.ttft.percentile(95)),
                   core::fmtSeconds(dis.e2e.percentile(95)),
                   core::fmtDouble(dis.completed / dis.makespan, 2)});
        }
    }
    t.print();

    std::printf("\nDesign note: the paper's §IV phase analysis cites "
                "Splitwise/DistServe; this ablation rebuilds the "
                "architecture and exposes its trade-off. Decode "
                "isolation trims the end-to-end tail (most visibly "
                "under the unchunked scheduler, where whole prefills "
                "otherwise stall everyone's decode), while dedicating "
                "only one node to prefill inflates TTFT — phase-aware "
                "capacity sizing is the whole game, exactly as "
                "Splitwise argues.\n");
    if (!telemetry.write())
        return 1;
    return 0;
}
