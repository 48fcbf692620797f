// The benchmark's three workloads, each generated from a seed.
//
//  zdock_hybrid  the 84 ZDock-like complexes in a seeded order, closed loop,
//                served at the paper's OCT_MPI+CILK shape (2 ranks x 2
//                workers, replicated, node-node division, persistent pool).
//  docking_mix   a docking service: a seeded open-loop stream of ligand
//                poses, re-anchoring poses, exact repeats, eps_epol
//                rescorings and new complexes, served serially.
//  cmv_owned     a seeded stream of distinct CMV-like shells, closed loop,
//                4 owned ranks with cross-rank stealing.
//
// The service under test sees only the generated molecules.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "serve/service.hpp"

namespace perfbench {

enum class Kind {
  kSuite,    // one ZDock-like complex
  kShell,    // one CMV-like shell
  kWarmup,   // the request served during set-up, outside the stream
  kAnchor,   // first geometry of a docking family (cold)
  kPose,     // ligand pose within the skin (delta route)
  kFarPose,  // ligand pose beyond the skin (delta route with a re-anchor)
  kRepeat,   // exact repeat of an earlier request (memo)
  kRescore,  // known geometry at another eps_epol (Prepared-cache hit)
  kNew,      // a complex never seen before (cold)
};
const char* kind_name(Kind kind);

struct Request {
  Kind kind = Kind::kSuite;
  // Docking family of the geometry (-1 outside docking_mix).
  int family = -1;
  // Requests with equal content ids carry the same molecule and parameters.
  std::uint64_t content = 0;
  std::shared_ptr<const gbpol::Molecule> mol;
  gbpol::ApproxParams params;
};

struct Workload {
  std::string name;
  bool open_loop = false;
  double arrival_rate = 0.0;  // open loop, requests per second
  double latency_limit_s = 0.0;
  // 0 requires bit-identical answers; > 0 is the relative tolerance used
  // where the run shape does not promise a fixed fold order.
  double answer_rel_tol = 0.0;

  gbpol::ServiceOptions service;
  gbpol::surface::QuadratureParams surface;
  gbpol::GBConstants constants;

  Request warmup;
  // The workload's smallest molecule, for the E_pol error against run_naive.
  Request smallest;

  // Request i of the stream; the same (seed, i) always gives the same bytes.
  std::function<Request(std::size_t)> request_at;
  // Requests in one run. It is fixed by --seconds (closed loops: whole
  // passes over the input set or its size cycle, at the pass time measured
  // when the benchmark was defined), never by how fast the program runs, so
  // two commits always do the same work.
  std::size_t requests = 0;

  gbpol::ServeRequest serve_request(const Request& request, const std::string& id) const;
};

const std::vector<std::string>& workload_names();

// Throws std::invalid_argument for an unknown name. `seconds` sizes the run.
Workload make_workload(const std::string& name, std::uint64_t seed, double seconds);

}  // namespace perfbench
