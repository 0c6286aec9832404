// Table 1: the scale-requirement growth from 2017 to 2024 — network size,
// prefixes, flows — and the run-time requirement dropping from hours to
// minutes. Reproduced by running the full pipeline at a "2017-scale"
// (hundreds of routers, O(10^4)-prefix-equivalent) and a "2024-scale"
// (larger network, all prefixes, flow simulation) and reporting how the
// distributed framework keeps the larger task *faster* than the small task
// was under the centralized engine.
#include "bench_util.h"
#include "dist/dist_sim.h"

using namespace hoyan;
using namespace hoyan::bench;

int main() {
  std::vector<std::vector<std::string>> rows = {
      {"era", "routers", "input routes", "flows", "engine", "time (s)"}};

  // 2017: hundreds of routers, high-priority prefixes only, no traffic
  // simulation, centralized engine.
  {
    WanSpec spec;
    spec.regions = 4;
    spec.coresPerRegion = 2;
    spec.bordersPerRegion = 1;
    spec.dcsPerRegion = 2;
    const GeneratedWan wan = generateWan(spec);
    const NetworkModel model = wan.buildModel();
    WorkloadSpec workload;
    workload.prefixesPerIsp = 64;  // The high-priority subset.
    workload.prefixesPerDc = 16;
    const std::vector<InputRoute> inputs = generateInputRoutes(wan, workload);
    Stopwatch stopwatch;
    simulateCentralized(model, inputs);
    rows.push_back({"2017", std::to_string(wan.topology.deviceCount()),
                    std::to_string(inputs.size()), "-", "centralized",
                    fmt(stopwatch.seconds())});
  }

  // 2024: the full WAN, all prefixes, plus flow simulation — on the
  // distributed framework with 10 workers.
  {
    const GeneratedWan wan = generateWan(wanSpec());
    const NetworkModel model = wan.buildModel();
    const std::vector<InputRoute> inputs = generateInputRoutes(wan, benchWorkload());
    const std::vector<Flow> flows = generateFlows(wan, benchWorkload(), 400000);
    DistSimOptions options;
    options.workers = 10;
    options.routeSubtasks = 100;
    options.trafficSubtasks = 128;
    DistributedSimulator simulator(model, options);
    Stopwatch stopwatch;
    const DistRouteResult routes = simulator.runRouteSimulation(inputs);
    const double routeSeconds = stopwatch.seconds();
    Stopwatch trafficStopwatch;
    const DistTrafficResult traffic = simulator.runTrafficSimulation(flows);
    const double trafficSeconds = trafficStopwatch.seconds();
    rows.push_back({"2024", std::to_string(wan.topology.deviceCount()),
                    std::to_string(inputs.size()), std::to_string(flows.size()),
                    "distributed x10",
                    fmt(routeSeconds + trafficSeconds)});
    rows.push_back({"", "", "", "", "  - route phase", fmt(routeSeconds)});
    rows.push_back({"", "", "", "", "  - traffic phase", fmt(trafficSeconds)});
  }

  printTable("Table 1 — scale growth and run-time requirement", rows);
  std::printf("\nShape target: between the eras the network grows ~5x in routers and\n"
              "~50x in simulated inputs, and gains a flow-simulation requirement the\n"
              "2017 system did not have — yet the full 2024-scale verification still\n"
              "completes within the 'minutes' requirement on the distributed\n"
              "framework (paper: the requirement tightened from hours to minutes\n"
              "while every scale axis grew; Fig. 5(a) compares the engines on the\n"
              "same workload).\n");
  return 0;
}
