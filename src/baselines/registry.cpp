#include "baselines/registry.h"

#include "baselines/cpu_engines.h"
#include "baselines/cuart.h"
#include "baselines/rowex_engine.h"
#include "dcart/accelerator.h"

namespace dcart {

std::unique_ptr<IndexEngine> MakeEngine(const std::string& name,
                                        const EngineOptions& options) {
  if (name == "ART") {
    return std::make_unique<baselines::ArtRowexEngine>(options.cpu_model);
  }
  if (name == "ART-OLC") return baselines::MakeArtOlcEngine(options.cpu_model);
  if (name == "Heart") return baselines::MakeHeartEngine(options.cpu_model);
  if (name == "SMART") return baselines::MakeSmartEngine(options.cpu_model);
  if (name == "CuART") {
    return std::make_unique<baselines::CuartEngine>(options.gpu_model);
  }
  if (name == "DCART-C") {
    return std::make_unique<dcartc::DcartCEngine>(options.cpu_model);
  }
  if (name == "DCART-CP") {
    return std::make_unique<dcartc::DcartCpEngine>();
  }
  if (name == "DCART-CP-FT") {
    return std::make_unique<resilience::ResilientEngine>(options.resilient);
  }
  if (name == "DCART-CP-HA") {
    return std::make_unique<resilience::ReplicatedEngine>(options.replication);
  }
  if (name == "DCART-CLUSTER") {
    return std::make_unique<cluster::ClusterEngine>(options.cluster);
  }
  if (name == "DCART") {
    return std::make_unique<accel::DcartEngine>(options.dcart,
                                                options.fpga_model);
  }
  return nullptr;
}

std::vector<std::string> ListEngines() {
  return {"ART",         "ART-OLC", "Heart",    "SMART",       "CuART",
          "DCART-C",     "DCART-CP", "DCART-CP-FT", "DCART-CP-HA",
          "DCART-CLUSTER", "DCART"};
}

}  // namespace dcart
