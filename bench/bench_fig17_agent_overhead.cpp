// Figure 17: agent CPU and memory over a container's lifetime converge to
// ~1% of a core and ~35 MB.
#include <cstdio>

#include "common/table.h"
#include "probe/overhead.h"

using namespace skh;
using namespace skh::probe;

int main() {
  print_banner("Figure 17: resource consumption of the agent");
  // A typical skeleton-optimized agent holds a few dozen active targets.
  constexpr std::size_t kTargets = 30;

  TablePrinter table({"t(min)", "cpu(%)", "memory(MB)"});
  for (double minutes : {0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 40.0, 60.0, 90.0}) {
    const auto s = agent_overhead(SimTime::minutes(minutes), kTargets);
    table.add_row({TablePrinter::num(minutes, 1),
                   TablePrinter::num(s.cpu_percent, 2),
                   TablePrinter::num(s.memory_mb, 1)});
  }
  table.print();
  const auto steady = agent_overhead(SimTime::hours(3), kTargets);
  std::printf("\nsteady state: %.2f%% CPU, %.1f MB"
              " (paper: converges to ~1%% and ~35 MB)\n",
              steady.cpu_percent, steady.memory_mb);
  return 0;
}
