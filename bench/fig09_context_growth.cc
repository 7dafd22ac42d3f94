/**
 * @file
 * Fig 9 — token count per iterative reasoning step on HotpotQA: fixed
 * Instruction/Few-shot segments stay constant while LLM/tool history
 * accumulation grows the input context 3-4x over the request.
 */

#include <algorithm>
#include <cstdio>

#include "common.hh"

int
main(int argc, char **argv)
{
    using namespace benchutil;
    TelemetryCli telemetry(argc, argv);
    telemetry.report().setGenerator("fig09_context_growth");

    for (AgentKind agent :
         {AgentKind::ReAct, AgentKind::Reflexion, AgentKind::Lats,
          AgentKind::LlmCompiler}) {
        auto cfg = defaultProbe(agent, Benchmark::HotpotQA);
        telemetry.apply(cfg);
        const auto r = core::runServing(cfg);

        // Average the i-th call's breakdown across requests.
        std::size_t max_calls = 0;
        for (const auto &req : r.requests)
            max_calls = std::max(max_calls, req.result.perCall.size());
        max_calls = std::min<std::size_t>(max_calls, 10);

        core::Table t("Fig 9: Context growth per LLM call — " +
                      std::string(agents::agentName(agent)) +
                      " (HotpotQA)");
        t.header({"Call #", "Instr", "Few-shot", "User", "LLM hist",
                  "Tool hist", "Input total", "Output"});
        double first_total = 0.0;
        double last_total = 0.0;
        for (std::size_t i = 0; i < max_calls; ++i) {
            agents::CallTokens sum;
            int count = 0;
            for (const auto &req : r.requests) {
                if (i < req.result.perCall.size()) {
                    sum += req.result.perCall[i];
                    ++count;
                }
            }
            if (count == 0)
                continue;
            const double c = count;
            const double total = sum.inputTotal() / c;
            if (i == 0)
                first_total = total;
            last_total = total;
            t.row({core::fmtCount(static_cast<double>(i + 1)),
                   core::fmtCount(sum.instruction / c),
                   core::fmtCount(sum.fewShot / c),
                   core::fmtCount(sum.user / c),
                   core::fmtCount(sum.llmHistory / c),
                   core::fmtCount(sum.toolHistory / c),
                   core::fmtCount(total),
                   core::fmtCount(sum.output / c)});
        }
        t.print();
        std::printf("Input growth over the request: %.1fx "
                    "(paper: ~1k tokens initially, growing 3-4x)\n\n",
                    last_total / first_total);
    }
    if (!telemetry.write())
        return 1;
    return 0;
}
