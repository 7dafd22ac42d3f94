/**
 * @file
 * LATS (Language Agent Tree Search): Monte-Carlo tree search over
 * reasoning/acting trajectories.
 *
 * Each MCTS round selects a leaf by UCT and expands C children in
 * three synchronized parallel phases, matching the paper's optimized
 * implementation (Fig 3d): C concurrent action-sampling LLM calls,
 * then C concurrent tool invocations, then C concurrent LLM value
 * calls; values backpropagate up the tree. Prompts carry only the
 * root-to-node path, so contexts stay shorter than full-history
 * agents (Fig 8) while the shared path prefix makes the parallel
 * siblings prime prefix-cache beneficiaries (Fig 12). Each node
 * caches its prompt as its parent's prompt plus its own action and
 * observation, so a path token is hashed once per reflection.
 */

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>

#include "agents/accuracy.hh"
#include "agents/workflows.hh"
#include "sim/logging.hh"

namespace agentsim::agents
{

namespace
{

/** One node of the search tree. */
struct Node
{
    Node *parent = nullptr;
    int hops = 0;
    int depth = 0;
    double valueSum = 0.0;
    int visits = 0;
    /** Branch capability drawn at expansion (latent-threshold model);
     *  inherited by rollout continuations of this branch. */
    double capability = 0.0;
    /** Action text sampled for this node (LLM output tokens). */
    std::vector<kv::TokenId> llmTokens;
    /** Observation returned by this node's tool call. */
    std::vector<kv::TokenId> obsTokens;
    std::vector<std::unique_ptr<Node>> children;
    /** Cached pathPrompt(), built over a head of @ref promptHead
     *  tokens. */
    std::optional<PromptBuilder> prompt;
    std::int64_t promptHead = 0;
};

/**
 * The prompt for a node: @p head (fixed blocks, then every reflection
 * so far) plus the root-to-node path. Built from the parent's cached
 * prompt, so only this node's own segments are hashed. The head only
 * grows, so its length identifies its content: a reflection
 * invalidates every cached prompt.
 */
const PromptBuilder &
pathPrompt(const PromptBuilder &head, Node *node)
{
    if (node->parent == nullptr)
        return head;
    if (!node->prompt || node->promptHead != head.size()) {
        PromptBuilder builder = pathPrompt(head, node->parent);
        builder.add(SegmentKind::LlmHistory, node->llmTokens);
        builder.add(SegmentKind::ToolHistory, node->obsTokens);
        node->prompt = std::move(builder);
        node->promptHead = head.size();
    }
    return *node->prompt;
}

/** UCT descent from the root to an unexpanded leaf. */
Node *
selectLeaf(Node *root)
{
    Node *node = root;
    while (!node->children.empty()) {
        Node *best = nullptr;
        double best_score = -1e300;
        for (const auto &child : node->children) {
            const double exploit =
                child->valueSum / std::max(1, child->visits);
            const double explore = std::sqrt(
                2.0 * std::log(static_cast<double>(node->visits + 1)) /
                static_cast<double>(std::max(1, child->visits)));
            const double score = exploit + explore;
            if (score > best_score) {
                best_score = score;
                best = child.get();
            }
        }
        node = best;
    }
    return node;
}

/** Phase-1 helper: one child's action-sampling LLM call. */
sim::Task<serving::GenResult>
sampleAction(AgentContext &ctx, Trace &trace, const PromptBuilder &head,
             Node *parent, sim::Rng rng)
{
    co_return co_await callLlm(ctx, trace, rng,
                               pathPrompt(head, parent).build(),
                               ctx.profile().stepOutputMean,
                               "lats.expand");
}

/** Phase-2 helper: one child's tool invocation. */
sim::Task<tools::ToolResult>
actChild(AgentContext &ctx, Trace &trace, sim::Rng rng)
{
    tools::Tool &tool = ctx.tools->pick(rng);
    co_return co_await callTool(ctx, trace, rng, tool);
}

/** Phase-3 helper: one child's LLM value call. */
sim::Task<serving::GenResult>
valueChild(AgentContext &ctx, Trace &trace, const PromptBuilder &head,
           Node *child, sim::Rng rng)
{
    co_return co_await callLlm(ctx, trace, rng,
                               pathPrompt(head, child).build(),
                               ctx.profile().valueOutputMean,
                               "lats.value");
}

/** Deep copy of a search (sub)tree with parent pointers rebuilt
 *  (prompt caches are not copied; they rebuild on demand). */
std::unique_ptr<Node>
cloneTree(const Node &src, Node *parent)
{
    auto dst = std::make_unique<Node>();
    dst->parent = parent;
    dst->hops = src.hops;
    dst->depth = src.depth;
    dst->valueSum = src.valueSum;
    dst->visits = src.visits;
    dst->capability = src.capability;
    dst->llmTokens = src.llmTokens;
    dst->obsTokens = src.obsTokens;
    dst->children.reserve(src.children.size());
    for (const auto &child : src.children)
        dst->children.push_back(cloneTree(*child, dst.get()));
    return dst;
}

/** Preorder position of @p target in the tree, -1 if absent. */
int
preorderIndexOf(const Node *node, const Node *target, int &counter)
{
    if (node == target)
        return counter;
    ++counter;
    for (const auto &child : node->children) {
        const int found =
            preorderIndexOf(child.get(), target, counter);
        if (found >= 0)
            return found;
    }
    return -1;
}

/** Node at preorder position @p index (counterpart of the above). */
Node *
nodeAtPreorder(Node *node, int index, int &counter)
{
    if (counter == index)
        return node;
    ++counter;
    for (const auto &child : node->children) {
        Node *found = nodeAtPreorder(child.get(), index, counter);
        if (found != nullptr)
            return found;
    }
    return nullptr;
}

/**
 * Journaled LATS episode snapshot: the search tree (deep-copied so
 * the live tree keeps mutating), the incumbent best node as a
 * preorder index, and the round-loop position. Snapshots are taken
 * only at round boundaries with no terminal found, so a resume always
 * re-enters the loop. Per-child RNG streams need no journaling — they
 * reconstruct from (seed, round, child) discriminators.
 */
struct LatsEpisodeState
{
    std::unique_ptr<Node> root;
    int bestIndex = 0;
    int reflections = 0;
    int roundsUsed = 0;
    EpisodicMemory episodic;
    sim::Rng rng;
    Trace trace;

    LatsEpisodeState(const sim::Rng &rng_, const Trace &trace_)
        : rng(rng_), trace(trace_)
    {
    }
};

} // namespace

sim::Task<AgentResult>
LatsAgent::run(AgentContext ctx)
{
    Trace trace(ctx.sim->now());
    sim::Rng rng = ctx.makeRng("run");
    const auto &prof = ctx.profile();
    const int required = ctx.task.requiredHops;
    const int width = std::max(1, ctx.config.latsChildren);

    EpisodicMemory episodic;
    auto root = std::make_unique<Node>();
    root->visits = 1;

    Node *best = root.get();
    Node *terminal = nullptr;
    int reflections = 0;
    int rounds_used = 0;
    int first_round = 0;

    // Journal replay: re-clone the checkpointed tree (the stored copy
    // stays immutable for repeated resumes) and rejoin the round loop.
    if (ctx.resumeFrom != nullptr &&
        ctx.resumeFrom->kindTag == static_cast<int>(AgentKind::Lats)) {
        // The tree is re-cloned and scalars copied below, so no
        // keepalive is needed past this block — but the store entry
        // must not be touched while we read it, which holds: the
        // first re-checkpoint happens at the earliest one round in.
        const auto *state = static_cast<const LatsEpisodeState *>(
            ctx.resumeFrom->state.get());
        trace = state->trace;
        rng = state->rng;
        episodic = state->episodic;
        reflections = state->reflections;
        rounds_used = state->roundsUsed;
        first_round = state->roundsUsed;
        root = cloneTree(*state->root, nullptr);
        int counter = 0;
        best = nodeAtPreorder(root.get(), state->bestIndex, counter);
        AGENTSIM_ASSERT(best != nullptr,
                        "LATS resume lost its best node");
    }

    // The prompt head every node's prompt extends: fixed blocks, then
    // the reflections, which only ever append.
    PromptBuilder head = ctx.promptPrefix();
    episodic.appendTo(head);

    for (int round = first_round; round < ctx.config.maxIterations;
         ++round) {
        SpanScope iteration(ctx, telemetry::SpanKind::Iteration,
                            "lats.round");
        ++rounds_used;
        Node *leaf = selectLeaf(root.get());
        if (leaf->hops >= required) {
            terminal = leaf;
            break;
        }

        // Per-child deterministic RNG streams (stable regardless of
        // event interleaving).
        std::vector<sim::Rng> child_rngs;
        for (int c = 0; c < width; ++c) {
            const auto disc =
                (static_cast<std::uint64_t>(round) << 16) |
                static_cast<std::uint64_t>(c);
            child_rngs.emplace_back(
                ctx.seed, "lats.child",
                sim::hashCombine(ctx.task.taskId, disc));
        }

        // Phase 1: sample C candidate actions in parallel.
        std::vector<sim::Task<serving::GenResult>> action_tasks;
        for (int c = 0; c < width; ++c) {
            action_tasks.push_back(sampleAction(
                ctx, trace, head, leaf, child_rngs
                [static_cast<std::size_t>(c)]));
        }
        std::vector<serving::GenResult> actions =
            co_await sim::allOf(std::move(action_tasks));

        // Phase 2: execute the C tool calls in parallel.
        std::vector<sim::Task<tools::ToolResult>> tool_tasks;
        for (int c = 0; c < width; ++c) {
            tool_tasks.push_back(actChild(
                ctx, trace, child_rngs[static_cast<std::size_t>(c)]));
        }
        std::vector<tools::ToolResult> observations =
            co_await sim::allOf(std::move(tool_tasks));

        // Materialize the children.
        std::vector<std::unique_ptr<Node>> children;
        for (int c = 0; c < width; ++c) {
            auto child = std::make_unique<Node>();
            child->parent = leaf;
            child->depth = leaf->depth + 1;
            child->llmTokens =
                actions[static_cast<std::size_t>(c)].tokens;
            const auto disc =
                (static_cast<std::uint64_t>(round) << 16) |
                static_cast<std::uint64_t>(c);
            child->obsTokens = ctx.toolObservationTokens(
                observations[static_cast<std::size_t>(c)]
                    .observationTokens,
                disc);
            // Each sampled child is an independent exploration branch
            // with wide capability noise — this is what lets tree
            // search solve tasks serial retries cannot.
            const double base = hopSuccessProb(
                ctx.config.modelQuality,
                ctx.config.resolveFewShot(prof), reflections,
                ctx.task.difficulty);
            auto &crng = child_rngs[static_cast<std::size_t>(c)];
            child->capability = contextCapability(
                crng, base, Calibration::exploreSigmaBranch);
            child->hops =
                leaf->hops + (attemptHop(crng, child->capability,
                                         ctx.task.solveThreshold)
                                  ? 1
                                  : 0);
            children.push_back(std::move(child));
        }

        // Phase 3: LLM value function scores each child in parallel.
        std::vector<sim::Task<serving::GenResult>> value_tasks;
        for (int c = 0; c < width; ++c) {
            value_tasks.push_back(valueChild(
                ctx, trace, head,
                children[static_cast<std::size_t>(c)].get(),
                child_rngs[static_cast<std::size_t>(c)]));
        }
        co_await sim::allOf(std::move(value_tasks));

        // Backpropagate and attach.
        const int prev_best_hops = best->hops;
        for (int c = 0; c < width; ++c) {
            auto &child = children[static_cast<std::size_t>(c)];
            const double noise =
                child_rngs[static_cast<std::size_t>(c)].normal(0.0,
                                                               0.12);
            const double value = std::clamp(
                static_cast<double>(child->hops) /
                        static_cast<double>(required) +
                    noise,
                0.0, 1.0);
            child->valueSum = value;
            child->visits = 1;
            for (Node *n = leaf; n != nullptr; n = n->parent) {
                n->valueSum += value;
                ++n->visits;
            }
            if (child->hops > best->hops)
                best = child.get();
            if (child->hops >= required && terminal == nullptr)
                terminal = child.get();
            leaf->children.push_back(std::move(child));
        }
        if (terminal != nullptr)
            break;

        // Simulation (rollout): greedily play the most promising new
        // child out toward a terminal state — LATS' MCTS simulation
        // phase. The rollout continues that branch's capability.
        Node *roll = nullptr;
        for (std::size_t i = leaf->children.size() -
                             static_cast<std::size_t>(width);
             i < leaf->children.size(); ++i) {
            Node *cand = leaf->children[i].get();
            if (roll == nullptr || cand->hops > roll->hops ||
                (cand->hops == roll->hops &&
                 cand->valueSum > roll->valueSum)) {
                roll = cand;
            }
        }
        int roll_budget = required - roll->hops + 1;
        int roll_step = 0;
        while (roll_budget-- > 0 && roll->hops < required) {
            serving::GenResult step = co_await callLlm(
                ctx, trace, rng, pathPrompt(head, roll).build(),
                prof.stepOutputMean, "lats.rollout",
                ctx.tools->meanLatencySeconds());
            tools::Tool &tool = ctx.tools->pick(rng);
            tools::ToolResult obs =
                co_await callTool(ctx, trace, rng, tool);

            auto node = std::make_unique<Node>();
            node->parent = roll;
            node->depth = roll->depth + 1;
            node->capability = roll->capability;
            node->llmTokens = step.tokens;
            node->obsTokens = ctx.toolObservationTokens(
                obs.observationTokens,
                (static_cast<std::uint64_t>(round) << 16) | 0x8000u |
                    static_cast<std::uint64_t>(roll_step++));
            node->hops =
                roll->hops + (attemptHop(rng, roll->capability,
                                         ctx.task.solveThreshold)
                                  ? 1
                                  : 0);
            node->visits = 1;
            node->valueSum = static_cast<double>(node->hops) /
                             static_cast<double>(required);

            Node *attach = roll;
            roll = node.get();
            const double v = node->valueSum;
            attach->children.push_back(std::move(node));
            for (Node *n = attach; n != nullptr; n = n->parent) {
                n->valueSum += v;
                ++n->visits;
            }
        }
        if (roll->hops > best->hops)
            best = roll;
        if (roll->hops >= required) {
            terminal = roll;
            break;
        }

        // A fruitless round triggers a verbal reflection (LATS keeps
        // Reflexion's mechanism, Table I).
        if (best->hops == prev_best_hops &&
            reflections < ctx.config.maxReflections) {
            serving::GenResult reflection = co_await callLlm(
                ctx, trace, rng, pathPrompt(head, best).build(),
                prof.reflectionOutputMean, "lats.reflect");
            head.add(SegmentKind::LlmHistory, reflection.tokens);
            episodic.addReflection(reflection.tokens);
            ++reflections;
        }

        // Round complete without a terminal: journal the tree. The
        // chain snapshot is the incumbent best path — the prefix the
        // resumed answer/rollout calls are most likely to reuse.
        if (ctx.checkpoints != nullptr &&
            ctx.checkpoints->policy().enabled &&
            ctx.checkpoints->shouldCheckpoint(ctx.episodeKey,
                                              rounds_used)) {
            auto state = std::make_shared<LatsEpisodeState>(rng, trace);
            state->root = cloneTree(*root, nullptr);
            int counter = 0;
            state->bestIndex =
                preorderIndexOf(root.get(), best, counter);
            state->reflections = reflections;
            state->roundsUsed = rounds_used;
            state->episodic = episodic;
            serving::EpisodeCheckpoint ckpt;
            ckpt.kindTag = static_cast<int>(AgentKind::Lats);
            ckpt.iteration = rounds_used;
            ckpt.takenTick = ctx.sim->now();
            ckpt.chain = pathPrompt(head, best).chain();
            ckpt.gpuSeconds = trace.cost().gpuSeconds();
            ckpt.state = std::move(state);
            ctx.checkpoints->put(ctx.episodeKey, std::move(ckpt),
                                 kvBytesPerToken(*ctx.engine));
        }
    }

    // Final answer from the terminal (or best) trajectory.
    Node *answer_node = terminal != nullptr ? terminal : best;
    co_await callLlm(ctx, trace, rng,
                     pathPrompt(head, answer_node).build(),
                     prof.finalOutputMean, "lats.answer");
    const bool solved = sampleAnswer(rng, answer_node->hops, required);

    trace.setIterations(rounds_used);
    trace.setReflections(reflections);
    co_return trace.finish(solved, ctx.sim->now());
}

} // namespace agentsim::agents
