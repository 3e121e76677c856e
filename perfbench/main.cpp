// perfbench: the wifisense wire-to-decision benchmark program.
//
//   perfbench --workload serve_clean|serve_faulty|train --seed N
//             --seconds S --trace 0|1
//
// Prints the host record, the output checks and every metric with its
// unit, then, as the last line, one JSON object:
//   {"correct": bool, "attempted": n, "failed": n, "metrics": {...}}
// --trace 0 reports the end-to-end metrics (tracing off); --trace 1 the
// per-layer metrics from a run with spans around every layer call.
// Exit status 0 on a completed run (correct or not), 2 on bad arguments.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>

#include "aligner.hpp"
#include "common/parallel.hpp"
#include "nn/kernels/backend.hpp"
#include "report.hpp"
#include "workloads.hpp"

namespace {

int usage() {
    std::fprintf(stderr,
                 "usage: perfbench --workload serve_clean|serve_faulty|train "
                 "--seed N --seconds S --trace 0|1\n");
    return 2;
}

void print_result(const perfbench::Result& res) {
    std::printf("\n%-45s %16s  %s\n", "metric", "value", "unit");
    for (const auto& [name, m] : res.metrics)
        std::printf("%-45s %16.6g  %s\n", name.c_str(), m.value, m.unit.c_str());
    std::string json = "{\"correct\": ";
    json += res.correct() ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(res.attempted);
    json += ", \"failed\": " + std::to_string(res.failed);
    json += ", \"metrics\": {";
    bool first = true;
    for (const auto& [name, m] : res.metrics) {
        char buf[128];
        std::snprintf(buf, sizeof(buf), "%.17g", m.value);
        json += first ? "" : ", ";
        json += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" + m.unit + "\"}";
        first = false;
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
}

}  // namespace

int main(int argc, char** argv) {
    perfbench::RunConfig cfg;
    bool have_workload = false;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const char* val = argv[i + 1];
        char* end = nullptr;
        if (key == "--workload") {
            cfg.workload = val;
            have_workload = true;
        } else if (key == "--seed") {
            cfg.seed = std::strtoull(val, &end, 10);
        } else if (key == "--seconds") {
            cfg.seconds = std::strtod(val, &end);
        } else if (key == "--trace") {
            cfg.trace = std::strtol(val, &end, 10) != 0;
        } else {
            return usage();
        }
        if (end != nullptr && *end != '\0') return usage();
    }
    if (argc % 2 != 1 || !have_workload || cfg.seconds <= 0.0 ||
        (cfg.workload != "serve_clean" && cfg.workload != "serve_faulty" &&
         cfg.workload != "train"))
        return usage();

    using namespace wifisense;
    // The backend a deployment would pick. Up to four pool threads simulate
    // rooms; every timed phase runs on one thread (see RunConfig::threads).
    nn::kernels::set_kernel_backend("auto");
    cfg.threads = std::clamp<std::size_t>(std::thread::hardware_concurrency(), 1, 4);
    common::set_execution_config(common::ExecutionConfig{1});

    std::printf("host: %s\n", perfbench::host_record_json().c_str());
    std::printf("run: workload=%s seed=%llu seconds=%g trace=%d threads=%zu\n",
                cfg.workload.c_str(), static_cast<unsigned long long>(cfg.seed),
                cfg.seconds, cfg.trace ? 1 : 0, cfg.threads);

    perfbench::Result res;
    const std::string self_test = perfbench::aligner_self_test(cfg.seed);
    res.check(self_test.empty(),
              "aligner matches a brute-force sequence join under drops, "
              "duplicates, reorders, skew and lag" +
                  (self_test.empty() ? std::string() : ": " + self_test));
    int rc = 0;
    try {
        rc = cfg.workload == "train" ? perfbench::run_train(cfg, res)
                                     : perfbench::run_serve(cfg, res);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
    if (rc != 0) return rc;
    print_result(res);
    return 0;
}
