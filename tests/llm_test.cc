/**
 * @file
 * Unit tests for the model specs, hardware descriptions, and the
 * roofline performance model, including calibration sanity checks
 * against publicly known Llama-3.1 / A100 figures.
 */

#include <gtest/gtest.h>

#include "llm/hardware.hh"
#include "llm/model_spec.hh"
#include "llm/perf_model.hh"
#include "sim/rng.hh"

namespace
{

using namespace agentsim;
using llm::ModelSpec;
using llm::NodeSpec;
using llm::PerfModel;
using llm::StepWork;

TEST(ModelSpec, Llama8bParameterCount)
{
    const auto m = llm::llama31_8b();
    // Llama-3.1-8B has ~8.03B parameters.
    EXPECT_NEAR(static_cast<double>(m.paramCount()), 8.03e9, 0.15e9);
}

TEST(ModelSpec, Llama70bParameterCount)
{
    const auto m = llm::llama31_70b();
    // Llama-3.1-70B has ~70.6B parameters.
    EXPECT_NEAR(static_cast<double>(m.paramCount()), 70.6e9, 1.5e9);
}

TEST(ModelSpec, KvBytesPerToken)
{
    // 2 (K,V) * layers * kv_heads * head_dim * 2 bytes.
    EXPECT_EQ(llm::llama31_8b().kvBytesPerToken(), 131072);
    EXPECT_EQ(llm::llama31_70b().kvBytesPerToken(), 327680);
}

TEST(ModelSpec, KvCompressionShrinksFootprint)
{
    auto m = llm::llama31_8b();
    const auto raw = m.kvBytesPerToken();
    m.kvCompression = 2.0;
    EXPECT_EQ(m.kvBytesPerToken(), raw / 2);
    m.kvCompression = 4.0;
    EXPECT_EQ(m.kvBytesPerToken(), raw / 4);
}

TEST(ModelSpec, DenseFlopsScaleWithParams)
{
    const auto m8 = llm::llama31_8b();
    const auto m70 = llm::llama31_70b();
    // ~2 FLOPs per parameter per token (embeddings excluded from GEMMs,
    // LM head included), so the ratio tracks the parameter ratio.
    const double ratio =
        m70.denseFlopsPerToken() / m8.denseFlopsPerToken();
    EXPECT_GT(ratio, 8.0);
    EXPECT_LT(ratio, 10.0);
}

TEST(ModelSpec, AttentionFlopsLinearInContext)
{
    const auto m = llm::llama31_8b();
    EXPECT_DOUBLE_EQ(m.attentionFlops(0), 0.0);
    EXPECT_DOUBLE_EQ(m.attentionFlops(2000),
                     2.0 * m.attentionFlops(1000));
}

TEST(Hardware, A100Spec)
{
    const auto g = llm::a100_40gb();
    EXPECT_DOUBLE_EQ(g.peakFlops, 312e12);
    EXPECT_DOUBLE_EQ(g.memBandwidth, 1555e9);
    EXPECT_GT(g.decodePower, g.idlePower);
    EXPECT_GE(g.tdp, g.prefillPower);
}

TEST(Hardware, H100OutclassesA100)
{
    const auto a100 = llm::a100_40gb();
    const auto h100 = llm::h100_80gb();
    EXPECT_GT(h100.peakFlops, 2.5 * a100.peakFlops);
    EXPECT_GT(h100.memBandwidth, 2.0 * a100.memBandwidth);
    EXPECT_EQ(h100.memCapacity, 2 * a100.memCapacity);
    EXPECT_GT(h100.tdp, a100.tdp);
    const auto node = llm::singleH100();
    EXPECT_EQ(node.numGpus, 1);
    // Faster silicon means faster decode for the same model.
    llm::PerfModel fast(llm::llama31_8b(), node);
    llm::PerfModel slow(llm::llama31_8b(), llm::singleA100());
    EXPECT_LT(fast.decodeSecondsSingle(1000),
              slow.decodeSecondsSingle(1000));
}

TEST(Hardware, NodeAggregation)
{
    const auto node = llm::octoA100();
    EXPECT_EQ(node.numGpus, 8);
    EXPECT_DOUBLE_EQ(node.totalMemory(), 8.0 * 40e9);
    // TP efficiency < 1 means less than linear scaling.
    const auto single = llm::singleA100();
    EXPECT_LT(node.effectiveBandwidth(),
              8.0 * single.effectiveBandwidth());
    EXPECT_GT(node.effectiveBandwidth(),
              4.0 * single.effectiveBandwidth());
}

TEST(PerfModel, ModelMustFit)
{
    // 70B weights (~141 GB) cannot fit one A100-40GB; the constructor
    // treats that as a fatal configuration error. Death test keeps us
    // honest about the check.
    EXPECT_DEATH(
        { PerfModel m(llm::llama31_70b(), llm::singleA100()); }, "fit");
}

class PerfModel8b : public ::testing::Test
{
  protected:
    PerfModel8b() : model(llm::llama31_8b(), llm::singleA100()) {}
    PerfModel model;
};

TEST_F(PerfModel8b, EmptyStepIsFree)
{
    const auto cost = model.stepCost({});
    EXPECT_DOUBLE_EQ(cost.seconds, 0.0);
    EXPECT_DOUBLE_EQ(cost.flops, 0.0);
}

TEST_F(PerfModel8b, DecodeIsMemoryBound)
{
    StepWork w;
    w.decodeContexts = {1000};
    const auto cost = model.stepCost(w);
    EXPECT_FALSE(cost.computeBound());
    // Single-token decode on an A100 should land in the 10-30 ms range
    // (weights streaming dominated).
    EXPECT_GT(cost.seconds, 0.010);
    EXPECT_LT(cost.seconds, 0.030);
}

TEST_F(PerfModel8b, LargePrefillIsComputeBound)
{
    StepWork w;
    w.prefills.push_back({4096, 0});
    const auto cost = model.stepCost(w);
    EXPECT_TRUE(cost.computeBound());
    // ~4k tokens of 8B prefill: a few hundred milliseconds.
    EXPECT_GT(cost.seconds, 0.1);
    EXPECT_LT(cost.seconds, 1.0);
}

TEST_F(PerfModel8b, BatchedDecodeAmortizesWeights)
{
    StepWork one;
    one.decodeContexts = {500};
    StepWork many;
    for (int i = 0; i < 32; ++i)
        many.decodeContexts.push_back(500);
    const double t1 = model.stepCost(one).seconds;
    const double t32 = model.stepCost(many).seconds;
    // 32 sequences decode nearly as fast as 1: weight streaming
    // dominates and is shared across the batch.
    EXPECT_LT(t32, 2.0 * t1);
}

TEST_F(PerfModel8b, PrefillFlopsArithmeticSeries)
{
    // Splitting a chunk must conserve FLOPs.
    const double whole = model.prefillFlops(100, 0);
    const double split =
        model.prefillFlops(60, 0) + model.prefillFlops(40, 60);
    EXPECT_NEAR(whole, split, whole * 1e-12);
}

TEST_F(PerfModel8b, CachedPrefixReducesPrefillTime)
{
    // Prefilling only the non-cached suffix is cheaper than the whole
    // prompt, even accounting for attention over the cached prefix.
    const double full = model.prefillSeconds(2000, 0);
    const double suffix_only = model.prefillSeconds(500, 1500);
    EXPECT_LT(suffix_only, 0.5 * full);
}

TEST_F(PerfModel8b, DecodeFlopsGrowWithContext)
{
    EXPECT_GT(model.decodeFlops(4000), model.decodeFlops(100));
}

// stepCost() prices the prefill-alone and decode-alone steps in the
// pass that prices the whole step; each must be the price of the
// phase-only StepWork bit for bit, since commitStep splits the step's
// time (and every ledger) by them.
TEST(PerfModel, PhaseSplitMatchesPhaseOnlyPricing)
{
    const PerfModel models[] = {
        PerfModel(llm::llama31_8b(), llm::singleA100()),
        PerfModel(llm::llama31_70b(), llm::octoA100()),
    };
    sim::Rng rng(2026, "perf.phase_split");
    for (int trial = 0; trial < 400; ++trial) {
        // Cycle empty, prefill-only, decode-only and mixed steps.
        const int shape = trial % 4;
        StepWork work;
        if (shape == 1 || shape == 3) {
            for (auto n = rng.uniformInt(1, 8); n > 0; --n) {
                work.prefills.push_back(
                    {rng.uniformInt(0, 8192), rng.uniformInt(0, 120000)});
            }
        }
        if (shape == 2 || shape == 3) {
            for (auto n = rng.uniformInt(1, 256); n > 0; --n)
                work.decodeContexts.push_back(rng.uniformInt(1, 120000));
        }
        StepWork prefill_only;
        prefill_only.prefills = work.prefills;
        StepWork decode_only;
        decode_only.decodeContexts = work.decodeContexts;
        for (const PerfModel &model : models) {
            SCOPED_TRACE(testing::Message() << "trial " << trial << " on "
                                            << model.model().name);
            const auto cost = model.stepCost(work);
            EXPECT_EQ(cost.prefillOnlySeconds,
                      model.stepCost(prefill_only).seconds);
            EXPECT_EQ(cost.decodeOnlySeconds,
                      model.stepCost(decode_only).seconds);
        }
    }
}

// prefillSeconds() prices its chunk without building a StepWork but
// must stay the stepCost() of that one-chunk step.
TEST_F(PerfModel8b, PrefillSecondsMatchesOneChunkStep)
{
    sim::Rng rng(4099, "perf.prefill_seconds");
    for (int trial = 0; trial < 200; ++trial) {
        const auto tokens = rng.uniformInt(0, 8192);
        const auto before = rng.uniformInt(0, 60000);
        StepWork prefill;
        prefill.prefills.push_back({tokens, before});
        EXPECT_EQ(model.prefillSeconds(tokens, before),
                  model.stepCost(prefill).seconds);
    }
}

TEST(PerfModel70b, DecodeSlowerThan8bDespite8Gpus)
{
    PerfModel m70(llm::llama31_70b(), llm::octoA100());
    PerfModel m8(llm::llama31_8b(), llm::singleA100());
    const double t70 = m70.decodeSecondsSingle(1000);
    const double t8 = m8.decodeSecondsSingle(1000);
    // 70B per-token decode is slower than 8B: ~9x the weights over
    // ~6x the effective bandwidth.
    EXPECT_GT(t70, t8);
    EXPECT_LT(t70, 3.0 * t8);
}

TEST(PerfModelCalibration, ShareGptLikeLatency)
{
    // A ~300-token prompt answered with ~250 tokens should take a few
    // seconds on the 8B/A100 configuration (paper: 4.23 s average).
    PerfModel m(llm::llama31_8b(), llm::singleA100());
    double total = m.prefillSeconds(300, 0);
    for (int i = 0; i < 250; ++i)
        total += m.decodeSecondsSingle(300 + i);
    EXPECT_GT(total, 2.0);
    EXPECT_LT(total, 8.0);
}

} // namespace
