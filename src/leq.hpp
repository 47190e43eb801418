/// \file leq.hpp
/// \brief Umbrella header: the whole public API of the language-equation
/// library.
///
/// Typical flow:
///   1. obtain networks (read_blif_file / generators / your own builder)
///   2. split_latches / split_last_latches -> F and X_P
///   3. equation_problem(F, S) -> variable layout + partitioned functions
///   4. solve_partitioned (or solve_monolithic / solve_explicit) -> CSF
///   5. verify_particular_contained / verify_composition_contained
///   6. extract_fsm / select_small_subsolution / extract_moore_fsm ->
///      automaton_to_network -> compose_networks -> sweep_network ->
///      write_blif   (or just call resynthesize() for the whole loop)
#pragma once

#include "bdd/bdd.hpp"

#include "net/blif.hpp"
#include "net/compose.hpp"
#include "net/generator.hpp"
#include "net/latch_split.hpp"
#include "net/netbdd.hpp"
#include "net/network.hpp"
#include "net/sweep.hpp"

#include "rel/cluster.hpp"
#include "rel/relation.hpp"
#include "rel/schedule.hpp"

#include "img/image.hpp"

#include "automata/automaton.hpp"
#include "automata/automaton_io.hpp"
#include "automata/encode.hpp"
#include "automata/kiss.hpp"
#include "automata/stg.hpp"

#include "eq/kiss_flow.hpp"
#include "eq/problem.hpp"
#include "eq/reduce.hpp"
#include "eq/resynth.hpp"
#include "eq/solver.hpp"
#include "eq/subsolution.hpp"
#include "eq/topology.hpp"
#include "eq/verify.hpp"
