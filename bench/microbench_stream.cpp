// Host STREAM-triad probe — the host-side analogue of the paper Table III
// "STREAM triad main/llc" row, which anchors every modeled bandwidth number.
// Prints a fresh stream_triad_probe() beside the process's host roof, the
// reading tune_host and host_machine(true) use.
#include <iostream>

#include "bench_common.hpp"
#include "common/table.hpp"
#include "machine/machine_spec.hpp"
#include "machine/stream_probe.hpp"

int main(int argc, char** argv) {
  using namespace sparta;
  bench::init(argc, argv);
  std::cout << "host STREAM triad probe (cf. paper Table III bandwidth row)\n"
            << "threads: " << bench::effective_threads() << " (set with --threads N)\n";
  const auto r = stream_triad_probe();
  const auto roof = host_roof();
  Table table{{"platform", "STREAM main (GB/s)", "STREAM llc (GB/s)", "kind"}};
  table.add_row({"host (measured)", Table::num(r.main_gbs, 1), Table::num(r.llc_gbs, 1),
                 "measured"});
  table.add_row({"host roof", Table::num(roof.main_gbs, 1), Table::num(roof.llc_gbs, 1),
                 "measured once per process"});
  for (const auto& m : paper_platforms()) {
    table.add_row({m.name, Table::num(m.stream_main_gbs, 1), Table::num(m.stream_llc_gbs, 1),
                   "modeled (Table III)"});
  }
  table.print(std::cout);
  return 0;
}
