// perfbench_workload: runs one benchmark workload in this process and
// prints its report as one JSON line. perfbench/run.py drives it (several
// set-up-only processes plus one measuring process per workload); run it
// by hand as
//
//   perfbench_workload --workload catalog-sweep --seed 1 --seconds 10
//                      [--trace] [--setup-only] [--repo DIR] [--dtpm BIN]
//                      [--reference FILE] [--record-reference]
//
// Exit status: 0 when every output check passed, 1 when one failed (the
// report is still printed), 2 on a usage error or a workload that threw.
#include <cstdio>
#include <cstring>
#include <exception>
#include <iostream>
#include <string>

#include "harness.hpp"

int main(int argc, char** argv) {
  perfbench::Options options;  // stamps the start time for setup_s
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      const auto value = [&]() -> std::string {
        if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
        return argv[++i];
      };
      if (arg == "--workload") {
        options.workload = value();
      } else if (arg == "--seed") {
        options.seed = std::stoull(value());
      } else if (arg == "--seconds") {
        options.seconds = std::stod(value());
      } else if (arg == "--trace") {
        options.trace = true;
      } else if (arg == "--setup-only") {
        options.setup_only = true;
      } else if (arg == "--repo") {
        options.repo_root = value();
      } else if (arg == "--dtpm") {
        options.dtpm_binary = value();
      } else if (arg == "--reference") {
        options.reference_path = value();
      } else if (arg == "--record-reference") {
        options.record_reference = true;
      } else {
        throw std::invalid_argument("unknown argument " + arg);
      }
    }
    if (options.seed == 0) throw std::invalid_argument("seeds start at 1");

    perfbench::Report report;
    if (options.workload == "catalog-sweep") {
      report = perfbench::run_catalog_sweep(options);
    } else if (options.workload == "fleet-10k") {
      report = perfbench::run_fleet_10k(options);
    } else if (options.workload == "serve-runs") {
      report = perfbench::run_serve_runs(options);
    } else {
      throw std::invalid_argument("unknown workload '" + options.workload +
                                  "'");
    }
    std::cout << dtpm::util::json_write(report.to_json(options), 0)
              << std::endl;
    return report.correct() ? 0 : 1;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench_workload: %s\n", error.what());
    return 2;
  }
}
