// Golden spec_digest values for every registry scenario — the pinned
// content addresses of the service result cache (service/digest.h).
//
// A digest names a cached probe result; if any digest here moves, every
// result cached by a previous build is silently unreachable (cache miss —
// annoying) or, far worse, a STALE result could be served as current if a
// semantic change failed to move the digest.  This table turns both into a
// loud tier-1 failure: it must change exactly when a semantic input
// changes — spec fields, run shape, probe resolution, header format, or
// the k_stream_derivation_id epoch — and never otherwise.
//
// The capture recipe (rerun ONLY on an intentional break, and say so in
// the commit message): for each registry scenario, hash with horizon 40 /
// 2 replications / seed 7 / no probe override, and replace the table.  The
// digest has no host-dependent field, so the table holds on every ISA
// (ctest runs this binary again under SGL_KERNEL=generic).  The agent-based
// entries were rebased once when the `kernel` field left the digest
// (DESIGN.md, "The one-time golden rebase").

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "core/experiment.h"
#include "scenario/registry.h"
#include "service/digest.h"

namespace {

using namespace sgl;

const std::map<std::string, std::string>& golden_digests() {
  static const std::map<std::string, std::string> golden{
      {"quickstart", "6f1c2e4bc09273e9bfb4a65daf966293"},
      {"theorem-infinite", "a94cda995c17cc035c63bcf4b998462c"},
      {"theorem-finite", "51b14c31cb69c09b8e7465f45e06fe68"},
      {"nonuniform-start", "02c6621df8e59007dfc8238fe0229ecb"},
      {"ef-exclusive", "d0e641bd195138effda525b8348a3b0b"},
      {"switching-stocks", "a8b9c088ad253a6bc5757fdbdcc1fd79"},
      {"drifting-crossover", "8f94b5a517c479025bb3eafdefff72fa"},
      {"ring", "26e3d2811f7c00679bda42430b736948"},
      {"small-world", "bec57febef9344b1b57ed78f18a36c32"},
      {"two-cliques", "973ab6075cb938296252c655367c2b09"},
      {"torus", "159a2190b1eb518028e55aa345580fc9"},
      {"network_ring_1e5", "67fbb7a8646462404d385fa14afecd84"},
      {"network_ba_1e6", "0034e4fd7faa831793871b8ed023f9ce"},
      {"network_smallworld_1e6", "7812d936df1fc01eb75fcf944948ec6a"},
      // Same fields as theorem-finite under another name: names are
      // documentation, so the digests MUST collide — the cache reuses the
      // result.
      {"mixed_baseline", "51b14c31cb69c09b8e7465f45e06fe68"},
      {"switching_recovery", "ef0c8ee284ced0890eee935911087da3"},
      {"two_cliques_consensus", "f269deef55cf1db323d7a4a895222c46"},
      {"drift_tracking_1e5", "9870cc78b261a2a08d2b53db829e8cc7"},
      {"gossip_sensor_1e4", "3739b11891ea728db72b4328dc3726e7"},
      {"gossip_lossy_sweep", "16029f113a2c6985cf62031c6e82e0dc"},
      {"gossip_crash_recovery", "2eb7a2820f0a3a58e10674cd444f3f0d"},
      {"gossip_ring_300", "7fed6872bb70d9f04caa0b783b92a18d"},
      {"gossip_sync_ideal", "66f10c65c7cd745c42cab3696848bdc3"},
      {"gossip_partition_heal", "7bd623a16b89c3efb26b433ff2ad1d81"},
      {"gossip_crash_waves", "32cf4481143cb4d291897c1c6730466b"},
      {"gossip_degraded_links", "46038315014415646d105eec0aa8af0a"},
      {"mixture-discernment", "5cbf7f1f68a5cab57bef20abaa2971cb"},
  };
  return golden;
}

core::run_config capture_config() {
  core::run_config config;
  config.horizon = 40;
  config.replications = 2;
  config.seed = 7;
  return config;
}

TEST(digest_golden, every_registry_scenario_is_pinned) {
  const auto& golden = golden_digests();
  std::size_t covered = 0;
  const std::vector<std::string> no_probes;
  for (auto spec : scenario::all_scenarios()) {
    const auto it = golden.find(spec.name);
    ASSERT_NE(it, golden.end())
        << "scenario '" << spec.name
        << "' has no golden digest; extend the table (capture recipe in "
           "this file's header)";
    ++covered;
    EXPECT_EQ(service::spec_digest(spec, capture_config(), no_probes).hex(),
              it->second)
        << "digest moved for scenario '" << spec.name
        << "' — every previously cached result for it is now unreachable. "
           "If the semantic change is intentional, recapture the table (and "
           "bump k_stream_derivation_id if a stream derivation changed).";
  }
  // Retiring a scenario must retire its golden entry too.
  EXPECT_EQ(covered, golden.size());
}

}  // namespace
