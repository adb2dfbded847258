// Bytecode execution engine entry point.
//
// The engine executes the flat pre-decoded form produced by
// src/runtime/bytecode.h and is the default for rt::execute(); the
// tree-walking interpreter in interp.cpp remains available behind
// RunOptions::referenceInterp as the correctness oracle. Both must produce
// bit-identical RunResults (same RunLog, cycles, output, errors).
#pragma once

#include "runtime/interp.h"

namespace cb::rt {

/// `observer`, when set, receives every array allocation, named array
/// store, element access, agg.copy and spawn entry; regions then replay
/// sequentially so the observed order is the canonical one.
RunResult executeBytecode(const ir::Module& m, const RunOptions& opts,
                          an::loc::Collector* observer,
                          std::shared_ptr<const bc::CompiledModule> lowered);

}  // namespace cb::rt
