// The float twin of program.cpp.
#include "runtime/program.hpp"

namespace dpgen::runtime {

template RunStats run_node<float>(ProblemHooks<float>&, minimpi::Comm&,
                                  const RunOptions&, CheckpointStore<float>*);
template int program_main<float>(const GeneratedProblem<float>&, int, char**);

}  // namespace dpgen::runtime
