#pragma once
// The program generator (paper sections IV.C and V): assembles a complete,
// standalone hybrid OpenMP + message-passing C++ program for a problem.
//
// The emitted program contains, all specialised to the problem:
//   * the user's global / init / center-loop code, inserted verbatim,
//   * the tile-existence test (the FM-projected tile space as a C
//     conjunction),
//   * the Fig. 3 tile-calculation loop nest with mapping functions (loc,
//     loc_rj) and validity flags (is_valid_rj) in scope for the center code,
//   * pack and unpack functions for every tile edge,
//   * the initial-tile face scans,
//   * the load-balancing code (per-cell work counting loop nests — the role
//     of the paper's Ehrhart polynomials — plus the prefix-cut owner table),
//   * a main() that parses parameters/options, runs the ranks and prints
//     the probed results and run statistics.
//
// The program #includes the pre-written runtime library headers
// (runtime/driver.hpp, minimpi/world.hpp) exactly as the paper's generated
// code links its pre-written communication/memory-management libraries;
// compile with -I<repo>/src and link dpgen_runtime, dpgen_minimpi and
// dpgen_support.  With -fopenmp -DDPGEN_RUNTIME_USE_OPENMP the worker loop
// runs inside an OpenMP parallel region (the hybrid configuration).

#include <string>

#include "codegen/passes.hpp"
#include "tiling/model.hpp"

namespace dpgen::codegen {

struct GenOptions {
  /// Locations whose final values the program prints (default: the origin,
  /// the usual f(0) objective).
  std::vector<IntVec> probes;
  /// Also track and print the maximum value over all locations (the
  /// objective shape of local-alignment style problems): the program
  /// prints a "MAX (coords) = value" line.
  bool track_max = false;
  /// Optimization passes applied to the emitted center loop and tile
  /// buffer layout (docs/codegen.md).  Default: none — the paper's plain
  /// Fig. 3 emission, which is also the byte-identical reference a
  /// pass-enabled program is checked against.
  PassPipeline passes;
};

/// Returns the complete C++ source of the generated program.
std::string generate_program(const tiling::TilingModel& model,
                             const GenOptions& options = {});

/// Writes the generated program to `path`.
void write_program(const tiling::TilingModel& model, const std::string& path,
                   const GenOptions& options = {});

}  // namespace dpgen::codegen
