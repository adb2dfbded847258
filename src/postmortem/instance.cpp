#include "postmortem/instance.h"

namespace cb::pm {

namespace {

ResolvedFrame resolve(const ir::Module& m, const sampling::Frame& f) {
  ResolvedFrame out;
  out.func = f.func;
  out.instr = f.instr;
  const ir::Function& fn = m.function(f.func);
  out.funcName = fn.displayName;
  if (f.instr < fn.numInstrs()) {
    const SourceLoc& loc = fn.instrs[f.instr].loc;
    if (loc.valid()) {
      out.file = m.sourceManager().name(loc.file);
      out.line = loc.line;
    }
  }
  return out;
}

}  // namespace

void glueSpawnPrefix(const sampling::RunLog& log, uint64_t taskTag, const ConsolidateOptions& opts,
                     std::vector<sampling::Frame>& out) {
  out.clear();
  if (!opts.glueSpawns) return;
  std::vector<const sampling::SpawnRecord*> chain;
  for (uint64_t tag = taskTag; tag != 0 && chain.size() < log.spawns.size();) {
    auto it = log.spawns.find(tag);
    if (it == log.spawns.end()) break;
    chain.push_back(&it->second);
    tag = it->second.parentTag;
  }
  for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
    for (const sampling::Frame& f : (*it)->preSpawnStack) {
      // Trim redundancy: if the pre-spawn leaf repeats the previous glue
      // point, skip the duplicate.
      if (!out.empty() && out.back() == f) continue;
      out.push_back(f);
    }
  }
}

Instance consolidateSample(const ir::Module& m, const sampling::RunLog& log,
                           const sampling::RawSample& s, const ConsolidateOptions& opts) {
  Instance inst;
  inst.stream = s.stream;
  inst.accessKind = s.accessKind;
  inst.srcLocale = s.srcLocale;
  inst.dstLocale = s.dstLocale;
  if (s.runtimeFrame != sampling::RuntimeFrameKind::None) {
    inst.idle = true;
    inst.runtimeFrame = s.runtimeFrame;
    return inst;
  }

  std::vector<sampling::Frame> prefix;
  glueSpawnPrefix(log, s.taskTag, opts, prefix);
  inst.frames.reserve(prefix.size() + s.stack.size());
  for (const sampling::Frame& f : prefix) inst.frames.push_back(resolve(m, f));
  for (const sampling::Frame& f : s.stack) inst.frames.push_back(resolve(m, f));
  return inst;
}

std::vector<Instance> consolidate(const ir::Module& m, const sampling::RunLog& log,
                                  const ConsolidateOptions& opts) {
  std::vector<Instance> out;
  out.reserve(log.samples.size());
  for (const sampling::RawSample& s : log.samples)
    out.push_back(consolidateSample(m, log, s, opts));
  return out;
}

}  // namespace cb::pm
