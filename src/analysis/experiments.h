// The experiment registry: every table, figure and side result ipscope
// reproduces (Figs 1-12, Tables 1-2, the §8 security and measurement
// results, the baselines and the ablations), each a function from shared
// Inputs to the text it prints, listed in one table in paper order.
//
// `ipscope_cli reproduce` builds Inputs once and runs the selected
// experiments; check::golden runs all of them at the canonical golden world
// and compares each output with tests/golden/experiments/<id>.txt. Every
// output is bit-deterministic (ordered-merge contract) and independent of
// the pool size.
#pragma once

#include <iosfwd>
#include <span>
#include <string_view>

#include "activity/store.h"
#include "bgp/table.h"
#include "cdn/observatory.h"
#include "sim/config.h"
#include "sim/world.h"

namespace ipscope::analysis {

// What the experiments share, built once per run from one WorldConfig: the
// world, its daily and weekly observatories and activity stores, the daily
// hit table, and the BGP feed. The observatories and the table hold
// references into `world`, so Inputs is neither copied nor moved.
// Experiments that need a different world (another seed or deactivation
// rate) build it from `config`.
struct Inputs {
  explicit Inputs(const sim::WorldConfig& world_config);
  Inputs(const Inputs&) = delete;
  Inputs& operator=(const Inputs&) = delete;

  sim::WorldConfig config;
  sim::World world;
  cdn::Observatory daily;
  cdn::Observatory weekly;
  activity::ActivityStore daily_store;
  activity::ActivityStore weekly_store;
  cdn::BlockHitTable daily_hits;  // rows aligned with daily_store's
  bgp::RoutingFeed feed;
};

struct Experiment {
  std::string_view id;  // e.g. "fig4_churn"; also its golden file's stem
  void (*run)(const Inputs& inputs, std::ostream& os);
};

// Every experiment, in reproduction order.
std::span<const Experiment> Experiments();

// The world-scale banner most experiments print first, so readers can
// interpret absolute counts.
void PrintWorldBanner(const sim::World& world, std::ostream& os);

}  // namespace ipscope::analysis
