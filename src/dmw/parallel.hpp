// The pooled protocol engine.
//
// ParallelProtocol, its inline-executor form ProtocolRunner, and the
// run_honest_dmw / run_parallel_dmw conveniences all live in
// dmw/protocol.hpp: one stage table, one interpreter, and the executor is
// chosen by the constructor. This header only forwards there; dmw_bench/
// includes the engine by this name.
#pragma once

#include "dmw/protocol.hpp"
