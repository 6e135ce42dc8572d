// The node driver and the generic program main for double, compiled once
// with this library's OpenMP setting (driver.hpp and program.hpp declare
// them extern).  Each scalar type has its own file, so a program links
// only the one it runs.
#include "runtime/program.hpp"

namespace dpgen::runtime {

template RunStats run_node<double>(ProblemHooks<double>&, minimpi::Comm&,
                                   const RunOptions&,
                                   CheckpointStore<double>*);
template int program_main<double>(const GeneratedProblem<double>&, int,
                                  char**);

}  // namespace dpgen::runtime
