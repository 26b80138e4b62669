#include "runtime/batch.hpp"

#include "util/error.hpp"

namespace eds::runtime {

BatchRunner::BatchRunner(unsigned threads)
    : owned_(std::make_unique<InProcessExecutor>(threads)),
      executor_(owned_.get()) {}

BatchRunner::BatchRunner(const Executor* executor) : executor_(executor) {
  if (executor_ == nullptr) {
    throw InvalidArgument("BatchRunner: executor must not be null");
  }
}

BatchRunner::~BatchRunner() = default;

std::vector<RunResult> BatchRunner::run(
    const std::vector<BatchJob>& jobs) const {
  return executor_->run(jobs);
}

void BatchRunner::run_streaming(const std::vector<BatchJob>& jobs,
                                const ResultCallback& on_result) const {
  executor_->run_streaming(jobs, on_result);
}

}  // namespace eds::runtime
