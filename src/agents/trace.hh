/**
 * @file
 * Per-request agent execution records: the timeline of LLM/tool spans
 * (Fig 3, 5), the input/output token taxonomy (Fig 8, 9), and the
 * aggregate AgentResult consumed by every experiment.
 */

#ifndef AGENTSIM_AGENTS_TRACE_HH
#define AGENTSIM_AGENTS_TRACE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "serving/request.hh"
#include "sim/types.hh"

namespace agentsim::agents
{

/** Prompt-segment taxonomy of the paper's Fig 8. */
enum class SegmentKind
{
    Instruction,
    FewShot,
    User,
    LlmHistory,
    ToolHistory,
    Output,
};

/** Token counts of one LLM call, by segment kind. */
struct CallTokens
{
    std::int64_t instruction = 0;
    std::int64_t fewShot = 0;
    std::int64_t user = 0;
    std::int64_t llmHistory = 0;
    std::int64_t toolHistory = 0;
    std::int64_t output = 0;

    std::int64_t
    inputTotal() const
    {
        return instruction + fewShot + user + llmHistory + toolHistory;
    }

    CallTokens &operator+=(const CallTokens &other);
};

/** One timeline span. */
struct Span
{
    enum class Kind
    {
        Llm,
        Tool,
    };

    Kind kind{};
    sim::Tick start = 0;
    sim::Tick end = 0;
    std::string label;
};

/** Latency decomposition of a set of spans over a request window. */
struct LatencyBreakdown
{
    double llmOnlySeconds = 0.0;
    double toolOnlySeconds = 0.0;
    /** Both an LLM call and a tool call in flight (LLMCompiler). */
    double overlapSeconds = 0.0;
    /** Agent-logic gaps with neither in flight. */
    double otherSeconds = 0.0;
    double e2eSeconds = 0.0;
};

/** Compute the decomposition of @p spans over [start, end]. */
LatencyBreakdown breakdownSpans(const std::vector<Span> &spans,
                                sim::Tick start, sim::Tick end);

/** Everything measured about one agent request. */
struct AgentResult
{
    bool solved = false;
    int llmCalls = 0;
    int toolCalls = 0;
    int iterationsUsed = 0;
    int reflectionsUsed = 0;

    double e2eSeconds = 0.0;
    LatencyBreakdown latency;

    /** Totals across all LLM calls (inputs counted per call). */
    CallTokens tokens;
    /** Per-LLM-call breakdowns, in call order (Fig 9). */
    std::vector<CallTokens> perCall;
    /** Full timeline (Fig 3). */
    std::vector<Span> timeline;

    double flops = 0.0;
    std::int64_t outputTokens = 0;
    std::int64_t promptTokensTotal = 0;
    std::int64_t cachedPromptTokensTotal = 0;
    /** Sum of engine queueing delays across LLM calls. */
    double queueSeconds = 0.0;
    /** Peak KV footprint proxy: max concurrent sequence tokens. */
    std::int64_t maxContextTokens = 0;

    /** Attributed resource cost summed over all LLM calls. */
    serving::CostLedger cost;
    /** Per-LLM-call ledgers, in call order (per-step attribution). */
    std::vector<serving::CostLedger> perCallCost;
};

/**
 * Mutable trace accumulator an agent writes into while running.
 */
class Trace
{
  public:
    explicit Trace(sim::Tick start) : start_(start) {}

    /** Record a completed LLM call. */
    void addLlmCall(const CallTokens &tokens,
                    const serving::GenResult &gen, sim::Tick start,
                    sim::Tick end, const std::string &label);

    /** Record a completed tool call. */
    void addToolCall(const std::string &name, sim::Tick start,
                     sim::Tick end);

    void setIterations(int n) { iterations_ = n; }
    void setReflections(int n) { reflections_ = n; }
    void noteContextTokens(std::int64_t tokens);

    int llmCalls() const { return llmCalls_; }
    int toolCalls() const { return toolCalls_; }

    /** Attributed cost so far (checkpoint/recovery pricing reads the
     *  invested GPU-seconds mid-episode). */
    const serving::CostLedger &cost() const { return cost_; }

    /** Finalize into an AgentResult at time @p end. */
    AgentResult finish(bool solved, sim::Tick end) const;

  private:
    sim::Tick start_;
    int llmCalls_ = 0;
    int toolCalls_ = 0;
    int iterations_ = 0;
    int reflections_ = 0;
    CallTokens totals_;
    std::vector<CallTokens> perCall_;
    std::vector<Span> timeline_;
    double flops_ = 0.0;
    std::int64_t outputTokens_ = 0;
    std::int64_t promptTokens_ = 0;
    std::int64_t cachedTokens_ = 0;
    double queueSeconds_ = 0.0;
    std::int64_t maxContextTokens_ = 0;
    serving::CostLedger cost_;
    std::vector<serving::CostLedger> perCallCost_;
};

} // namespace agentsim::agents

#endif // AGENTSIM_AGENTS_TRACE_HH
