// Provenance and the shared main for the benchmark binaries. Every
// bench file records the project's own build type, compiler, CPU count
// and CPU model next to its numbers: google-benchmark's context reports the
// *library's* build type and the host's CPU clock, which says nothing
// about how the code under test was compiled.

#ifndef ACCLTL_BENCH_BENCH_CONTEXT_H_
#define ACCLTL_BENCH_BENCH_CONTEXT_H_

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

// Set per bench target by CMakeLists.txt.
#ifndef ACCLTL_BENCH_BUILD_TYPE
#define ACCLTL_BENCH_BUILD_TYPE ""
#endif
#ifndef ACCLTL_BENCH_COMPILER
#define ACCLTL_BENCH_COMPILER "unknown"
#endif

namespace accltl {
namespace bench {

/// The first "model name" of /proc/cpuinfo, or "unknown" where there
/// is none (non-Linux hosts, some ARM kernels).
inline std::string CpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.compare(0, 10, "model name") != 0) continue;
    size_t colon = line.find(':');
    if (colon == std::string::npos) break;
    size_t begin = line.find_first_not_of(" \t", colon + 1);
    if (begin == std::string::npos) break;
    return line.substr(begin);
  }
  return "unknown";
}

/// (key, value) provenance pairs: accltl_build_type, accltl_compiler,
/// nproc, cpu_model.
inline std::vector<std::pair<std::string, std::string>> BuildContext() {
  std::string build_type = ACCLTL_BENCH_BUILD_TYPE;
  return {
      {"accltl_build_type", build_type.empty() ? "none" : build_type},
      {"accltl_compiler", ACCLTL_BENCH_COMPILER},
      {"nproc", std::to_string(std::thread::hardware_concurrency())},
      {"cpu_model", CpuModel()},
  };
}

/// One header line for the table-printing benchmark binaries.
inline void PrintBuildContext() {
  std::string line = "# build:";
  for (const auto& kv : BuildContext()) {
    line += " " + kv.first + "=" + kv.second;
  }
  std::printf("%s\n\n", line.c_str());
}

/// Main of the google-benchmark binaries: records BuildContext() in the
/// run's context and writes machine-readable results to `default_out`
/// unless the command line names its own --benchmark_out.
inline int RunBenchmarks(int argc, char** argv, const char* default_out) {
  std::vector<char*> args(argv, argv + argc);
  std::string out_flag = std::string("--benchmark_out=") + default_out;
  static char fmt_flag[] = "--benchmark_out_format=json";
  bool has_out = false;
  bool has_fmt = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--benchmark_out=", 16) == 0) has_out = true;
    if (std::strncmp(argv[i], "--benchmark_out_format=", 23) == 0) {
      has_fmt = true;
    }
  }
  if (!has_out) args.push_back(&out_flag[0]);
  if (!has_out && !has_fmt) args.push_back(fmt_flag);
  int effective_argc = static_cast<int>(args.size());
  benchmark::Initialize(&effective_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(effective_argc, args.data())) {
    return 1;
  }
  for (const auto& kv : BuildContext()) {
    benchmark::AddCustomContext(kv.first, kv.second);
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

}  // namespace bench
}  // namespace accltl

#endif  // ACCLTL_BENCH_BENCH_CONTEXT_H_
