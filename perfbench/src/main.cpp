// perfbench: the repository's two-clock benchmark driver.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--out-dir DIR] [--wrong-reference]
//
// Prints "# "-prefixed detail lines (host fingerprint, per-metric medians
// and quartiles, layer tables) and, as its last line, one JSON object:
// {"correct", "attempted", "failed", "metrics"}. Traced runs write their
// spans under DIR. perfbench/run.py builds this binary and runs it.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "report.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_BUILD
#define PERFBENCH_BUILD "unknown"
#endif
#ifndef PERFBENCH_GATES
#define PERFBENCH_GATES "unknown"
#endif
#ifndef PERFBENCH_COMMIT
#define PERFBENCH_COMMIT "unknown"
#endif

namespace {

using perfbench::json_escape;

std::string fingerprint() {
  std::string model = "unknown";
  bool sha_ni = false;
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (model == "unknown" && line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) model = line.substr(colon + 2);
    }
    if (line.rfind("flags", 0) == 0 &&
        line.find(" sha_ni") != std::string::npos) {
      sha_ni = true;
    }
  }
  std::ostringstream os;
  os << "{\"cpu\": \"" << json_escape(model) << "\", \"nproc\": "
     << std::thread::hardware_concurrency()
     << ", \"sha_ni\": " << (sha_ni ? "true" : "false") << ", \"compiler\": \""
     << json_escape(PERFBENCH_COMPILER) << "\", \"build\": \""
     << json_escape(PERFBENCH_BUILD) << "\", \"gates\": \""
     << json_escape(PERFBENCH_GATES) << "\", \"commit\": \""
     << json_escape(PERFBENCH_COMMIT) << "\"}";
  return os.str();
}

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--out-dir DIR] "
               "[--wrong-reference]\nworkloads:",
               why.c_str());
  for (const std::string& w : perfbench::workload_names()) {
    std::fprintf(stderr, " %s", w.c_str());
  }
  std::fprintf(stderr, "\n");
  std::exit(2);
}

perfbench::Options parse(int argc, char** argv) {
  perfbench::Options opt;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + a);
      return argv[++i];
    };
    try {
      if (a == "--workload") {
        opt.workload = value();
        have_workload = true;
      } else if (a == "--seed") {
        opt.seed = std::stoull(value());
      } else if (a == "--seconds") {
        opt.seconds = std::stod(value());
        if (!(opt.seconds > 0)) usage("--seconds must be positive");
      } else if (a == "--trace") {
        const std::string v = value();
        if (v != "0" && v != "1") usage("--trace takes 0 or 1");
        opt.trace = v == "1";
      } else if (a == "--out-dir") {
        opt.out_dir = value();
      } else if (a == "--wrong-reference") {
        opt.wrong_reference = true;
      } else {
        usage("unknown argument " + a);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + a);
    }
  }
  if (!have_workload) usage("--workload is required");
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  const perfbench::Options opt = parse(argc, argv);
  std::printf("# fingerprint: %s\n", fingerprint().c_str());
  std::printf("# workload %s seed %llu seconds %g trace %d\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0);
  std::fflush(stdout);
  perfbench::Result res;
  try {
    res = perfbench::run_workload(opt);
  } catch (const std::invalid_argument& e) {
    usage(e.what());
  }
  std::printf("%s\n", perfbench::result_json(res).c_str());
  return 0;
}
