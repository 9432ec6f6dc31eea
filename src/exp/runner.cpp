#include "exp/runner.h"

#include <atomic>
#include <iostream>
#include <string>

#include "support/stopwatch.h"
#include "support/thread_pool.h"

namespace aheft::exp {

SweepOutcome run_sweep(std::vector<CaseSpec> specs, std::size_t threads,
                       bool progress) {
  SweepOutcome outcome;
  outcome.results.resize(specs.size());
  outcome.specs = std::move(specs);

  std::atomic<std::size_t> done{0};
  Stopwatch watch;
  const std::size_t total = outcome.specs.size();
  const std::size_t report_every = std::max<std::size_t>(1, total / 20);

  auto body = [&](std::size_t i) {
    outcome.results[i] = run_case(outcome.specs[i]);
    const std::size_t d = done.fetch_add(1) + 1;
    if (progress && d % report_every == 0) {
      // One insertion per line: workers report concurrently, and several
      // insertions from two of them would interleave mid-line.
      std::string line("  [sweep] ");
      line.append(std::to_string(d))
          .append("/")
          .append(std::to_string(total))
          .append(" cases (")
          .append(std::to_string(static_cast<int>(watch.seconds())))
          .append("s)\n");
      std::cerr << line;
    }
  };

  if (threads == 1 || total <= 1) {
    for (std::size_t i = 0; i < total; ++i) {
      body(i);
    }
  } else {
    ThreadPool pool(threads);
    parallel_for(&pool, total, body);
  }
  return outcome;
}

}  // namespace aheft::exp
