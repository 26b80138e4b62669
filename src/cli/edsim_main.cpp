// Entry point of the `edsim` command-line tool.
#include <iostream>
#include <string>
#include <vector>

#include "cli/cli.hpp"

int main(int argc, char** argv) {
  // Nothing here uses C stdio, so the standard streams need not stay in
  // step with it: unsynced, std::cin and std::cout buffer whole blocks,
  // and a worker reads its multi-megabyte job lines at memcpy speed.  The
  // worker still flushes after every line it writes.
  std::ios::sync_with_stdio(false);
  std::vector<std::string> args;
  args.reserve(static_cast<std::size_t>(argc > 0 ? argc - 1 : 0));
  for (int i = 1; i < argc; ++i) args.emplace_back(argv[i]);
  return eds::cli::run_cli(args, std::cin, std::cout, std::cerr);
}
