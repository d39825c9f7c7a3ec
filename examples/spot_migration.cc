// Spot-price arbitrage: the paper's Section 9 sketch made real. A fleet
// of spot T4s trains ConvNextLarge for a simulated week while a
// SkyPilot-style migrator chases the cheapest GC zone hour by hour.
// Because the trainer is decentralized, migrations need no checkpoints:
// the old VM leaves, a replacement joins in the cheap zone and re-syncs
// within two hivemind epochs.
//
//   $ ./build/examples/spot_migration [days=7]

#include <iostream>

#include "cloud/spot_market.h"
#include "common/flags.h"
#include "common/strings.h"
#include "common/table_writer.h"
#include "common/units.h"
#include "core/migrator.h"
#include "net/profiles.h"
#include "sim/simulator.h"

int main(int argc, char** argv) {
  using namespace hivesim;

  double days = 7.0;
  if (argc > 1) {
    auto parsed = ParseDoubleArg("days", argv[1]);
    if (!parsed.ok()) {
      std::cerr << parsed.status().ToString() << "\n";
      return 1;
    }
    days = *parsed;
  }

  sim::Simulator sim;
  net::Topology topo = net::StandardWorld();
  net::Network network(&sim, &topo);
  cloud::SpotMarket market{Rng(7)};

  hivemind::TrainerConfig config;
  config.model = models::ModelId::kConvNextLarge;
  hivemind::Trainer trainer(&network, config);

  core::MigrationPolicy policy;
  policy.min_savings_frac = 0.10;
  core::SpotMigrator migrator(&sim, &topo, &trainer, &market,
                              cloud::VmTypeId::kGcT4, policy);

  for (int i = 0; i < 6; ++i) {
    hivemind::PeerSpec peer;
    peer.node = topo.AddNode(net::kGcUs, net::CloudVmNetConfig());
    if (auto s = trainer.AddPeer(peer); !s.ok()) {
      std::cerr << s.ToString() << "\n";
      return 1;
    }
    migrator.ManagePeer(peer, net::kGcUs);
  }

  std::cout << "Training ConvNextLarge on 6 spot T4s for "
            << StrFormat("%.0f", days)
            << " days, migrating toward the cheapest GC zone "
               "(>=10% savings trigger)...\n";
  if (auto s = trainer.Start(); !s.ok()) {
    std::cerr << s.ToString() << "\n";
    return 1;
  }
  migrator.Start();
  sim.RunUntil(days * 24 * kHour);
  migrator.Stop();
  trainer.Stop();

  const auto report = migrator.GetReport();
  const auto stats = trainer.Stats();
  TableWriter table({"Metric", "Value"});
  table.AddRow({"Throughput", StrFormat("%.1f SPS", stats.throughput_sps)});
  table.AddRow({"Hivemind epochs", StrFormat("%d", stats.epochs)});
  table.AddRow({"Migrations", StrFormat("%d", report.migrations)});
  table.AddRow({"Instance cost (migrating)",
                StrFormat("$%.2f", report.fleet_cost)});
  table.AddRow({"Instance cost (static fleet)",
                StrFormat("$%.2f", report.static_cost)});
  table.AddRow({"Savings", StrFormat("%.1f%%",
                                     report.SavingsFrac() * 100)});
  table.Print(std::cout);

  std::cout << "\nFinal zone placement: ";
  for (net::SiteId site : migrator.PeerSites()) {
    std::cout << topo.site(site).name << " ";
  }
  std::cout << "\nCaveat the paper teaches: chasing cheap zones across "
               "continents trades instance savings against egress cost "
               "and granularity - check `hivesim reproduce --figure=fig11`.\n";
  return 0;
}
