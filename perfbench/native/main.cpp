// perfbench_native — the benchmark's native half. run.py drives it:
//
//   perfbench_native load   --connect HOST:PORT --device small|virtex6 ...
//   perfbench_native replay --device virtex6 --seed N [--setup-only]
//   perfbench_native traced --device small|virtex6 --sessions N --group G
//   perfbench_native traced --device virtex6 --seed N --sessions N --replay
//   perfbench_native info
//
// load and replay run a closed loop until stdin closes, then print their
// timed batches as one JSON line; traced prints per-layer span totals.
#include <cstdio>
#include <cstring>
#include <string>

#include "common.hpp"
#include "crypto/aes.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

int info_main() {
  const sacha::crypto::Aes128 probe(sacha::crypto::AesKey{});
  std::printf(
      "{\"aes_tier\": \"%s\", \"compiler\": \"%s\", \"build_type\": \"%s\"}\n",
      sacha::crypto::to_string(probe.impl()), __VERSION__,
      PERFBENCH_BUILD_TYPE);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: perfbench_native load|replay|traced|info\n");
    return 2;
  }
  const std::string mode = argv[1];
  const perfbench::Args args(argc, argv, 2);
  if (mode == "load") return perfbench::load_main(args);
  if (mode == "replay") return perfbench::replay_main(args);
  if (mode == "traced") return perfbench::traced_main(args);
  if (mode == "info") return info_main();
  std::fprintf(stderr, "perfbench_native: unknown mode '%s'\n", mode.c_str());
  return 2;
}
