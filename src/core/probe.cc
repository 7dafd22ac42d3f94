#include "core/probe.hh"

namespace agentsim::core
{

serving::EngineConfig
enginePreset8b()
{
    serving::EngineConfig cfg;
    cfg.model = llm::llama31_8b();
    cfg.node = llm::singleA100();
    cfg.enablePrefixCaching = true;
    return cfg;
}

serving::EngineConfig
enginePreset70b()
{
    serving::EngineConfig cfg;
    cfg.model = llm::llama31_70b();
    cfg.node = llm::octoA100();
    cfg.enablePrefixCaching = true;
    return cfg;
}

} // namespace agentsim::core
