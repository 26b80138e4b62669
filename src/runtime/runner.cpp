#include "runtime/runner.hpp"

#include <algorithm>
#include <sstream>

#include "runtime/async.hpp"
#include "runtime/engine.hpp"
#include "runtime/plan_cache.hpp"

namespace eds::runtime {

namespace detail {

std::vector<std::unique_ptr<NodeProgram>> create_programs(
    const ProgramFactory& factory, std::size_t n, const char* caller) {
  std::vector<std::unique_ptr<NodeProgram>> programs;
  programs.reserve(n);
  for (std::size_t v = 0; v < n; ++v) {
    programs.push_back(factory.create());
    if (!programs.back()) {
      throw ExecutionError(std::string(caller) +
                           ": factory returned null program");
    }
  }
  return programs;
}

std::shared_ptr<const ExecutionPlan> resolve_plan(const port::PortGraph& g,
                                                  const ExecOptions& exec) {
  if (exec.plan_cache != nullptr) return exec.plan_cache->get(g);
  return std::make_shared<const ExecutionPlan>(g);
}

}  // namespace detail

RunMetrics& RunMetrics::operator+=(const RunMetrics& other) noexcept {
  exchange_ns += other.exchange_ns;
  receive_ns += other.receive_ns;
  scan_ns += other.scan_ns;
  rounds += other.rounds;
  workspace_reuses += other.workspace_reuses;
  workspace_growths += other.workspace_growths;
  workspace_bytes = std::max(workspace_bytes, other.workspace_bytes);
  return *this;
}

std::string format_transcript(const RunResult& result) {
  std::ostringstream os;
  if (!result.messages_collected) {
    os << "(no transcript: the run was executed without "
          "RunOptions::collect_messages)\n";
  } else if (result.message_log.empty()) {
    os << "(no messages were delivered)\n";
  }
  Round current = 0;
  for (const auto& m : result.message_log) {
    if (m.round != current) {
      current = m.round;
      os << "--- round " << current << " ---\n";
    }
    os << "  (" << m.from.node << ',' << m.from.port << ") -> (" << m.to.node
       << ',' << m.to.port << ")  tag=" << m.payload.tag << " ["
       << m.payload.arg[0] << ' ' << m.payload.arg[1] << ' '
       << m.payload.arg[2] << "]\n";
  }
  os << "rounds: " << result.stats.rounds
     << ", messages: " << result.stats.messages_sent << '\n';
  return os.str();
}

RunResult run_synchronous(const port::PortGraph& g,
                          const ProgramFactory& factory,
                          const RunOptions& options) {
  if (options.exec.async) {
    // Model dispatch: an ExecOptions::async turns this entry point into the
    // event-driven engine (see runtime/async.hpp for the full result).
    return run_asynchronous(g, factory, options, *options.exec.async).run;
  }
  auto programs =
      detail::create_programs(factory, g.num_nodes(), "run_synchronous");
  const auto plan = detail::resolve_plan(g, options.exec);
  const auto pool = make_policy(options.exec);
  return run_plan(*plan, programs, options, factory.name(), *pool);
}

RunResult run_synchronous_programs(
    const port::PortGraph& g,
    std::vector<std::unique_ptr<NodeProgram>> programs,
    const RunOptions& options, const std::string& name) {
  if (options.exec.async) {
    return run_asynchronous_programs(g, std::move(programs), options,
                                     *options.exec.async, name)
        .run;
  }
  if (programs.size() != g.num_nodes()) {
    throw InvalidArgument(
        "run_synchronous_programs: one program per node required");
  }
  for (const auto& p : programs) {
    if (!p) {
      throw InvalidArgument("run_synchronous_programs: null program");
    }
  }
  const auto plan = detail::resolve_plan(g, options.exec);
  const auto pool = make_policy(options.exec);
  return run_plan(*plan, programs, options, name, *pool);
}

}  // namespace eds::runtime
