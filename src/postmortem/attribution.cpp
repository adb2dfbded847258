#include "postmortem/attribution.h"

#include <algorithm>
#include <map>
#include <optional>
#include <unordered_map>

#include "support/common.h"
#include "support/interner.h"

namespace cb::pm {

using an::Entity;
using an::EntityId;
using an::EntityKey;
using an::FunctionBlame;
using an::kNoEntity;
using an::PathElem;
using an::RootKind;

namespace {

/// Aggregation key: interned (context, name, type) symbol ids. The seed
/// concatenated the three display strings with '\x01' separators and hashed
/// that composite per sample; interning hashes each distinct string once and
/// reduces the per-sample work to a 12-byte POD hash. Display strings are
/// materialized only when rows are emitted.
struct AttrKey {
  uint32_t context = 0;
  uint32_t name = 0;
  uint32_t type = 0;

  friend bool operator==(const AttrKey&, const AttrKey&) = default;
};

/// Sample tally of one row or one memoised path, split by comm classification
/// (sampling::AccessKind) — index order None/Local/RemoteGet/RemotePut —
/// plus the sparse locale-pair tally of the remote kinds (pairKey -> count;
/// a sorted map so emission order is deterministic).
struct AttrCounts {
  uint64_t byKind[4] = {0, 0, 0, 0};
  std::map<uint64_t, uint64_t> cells;

  uint64_t total() const { return byKind[0] + byKind[1] + byKind[2] + byKind[3]; }
};

/// Renders a sparse pairKey->count map as the sorted CommCell vector the
/// report structures carry.
std::vector<CommCell> cellsOf(const std::map<uint64_t, uint64_t>& m) {
  std::vector<CommCell> out;
  out.reserve(m.size());
  for (const auto& [k, n] : m)
    out.push_back(CommCell{sampling::RunLog::pairSrc(k), sampling::RunLog::pairDst(k), n});
  return out;
}

/// Accumulates `add` into `into`, both sorted by (src, dst): a two-pointer
/// merge with no per-cell map nodes. `scratch` is caller-provided so a long
/// sequence of merges (one per input report) reuses one buffer instead of
/// allocating per row.
void mergeSortedCells(std::vector<CommCell>& into, const std::vector<CommCell>& add,
                      std::vector<CommCell>& scratch) {
  if (add.empty()) return;
  if (into.empty()) {
    into = add;
    return;
  }
  scratch.clear();
  scratch.reserve(into.size() + add.size());
  auto key = [](const CommCell& c) { return sampling::RunLog::pairKey(c.src, c.dst); };
  size_t i = 0, j = 0;
  while (i < into.size() && j < add.size()) {
    uint64_t ka = key(into[i]), kb = key(add[j]);
    if (ka < kb) {
      scratch.push_back(into[i++]);
    } else if (kb < ka) {
      scratch.push_back(add[j++]);
    } else {
      CommCell c = into[i++];
      c.samples += add[j++].samples;
      scratch.push_back(c);
    }
  }
  scratch.insert(scratch.end(), into.begin() + i, into.end());
  scratch.insert(scratch.end(), add.begin() + j, add.end());
  into.swap(scratch);
}

struct AttrKeyHash {
  size_t operator()(const AttrKey& k) const {
    uint64_t h = k.context;
    h = (h ^ k.name) * 0x9E3779B97F4A7C15ull;
    h = (h ^ k.type) * 0x9E3779B97F4A7C15ull;
    return static_cast<size_t>(h ^ (h >> 32));
  }
};

/// Renders additional path elements appended below an already-rendered
/// entity (used when a callee's sub-object path lands on a caller variable).
std::string renderExtraPath(const std::vector<PathElem>& path, int indexDepth) {
  static const char* kIndexNames[] = {"i", "j", "k", "l", "m"};
  std::string out;
  for (const PathElem& pe : path) {
    switch (pe.kind) {
      case PathElem::Kind::Field:
        out += "." + (pe.fieldName.empty() ? ("f" + std::to_string(pe.idx)) : pe.fieldName);
        break;
      case PathElem::Kind::Index:
        out += std::string("[") + kIndexNames[std::min(indexDepth, 4)] + "]";
        ++indexDepth;
        break;
      case PathElem::Kind::TupleElem:
        out += pe.idx == ~0u ? "(i)" : "(" + std::to_string(pe.idx + 1) + ")";
        break;
    }
  }
  return out;
}

int indexDepthOf(const std::vector<PathElem>& path) {
  int n = 0;
  for (const PathElem& pe : path)
    if (pe.kind == PathElem::Kind::Index) ++n;
  return n;
}

/// Memo entry of one distinct glued path: the rows it blames and the
/// samples that took it.
struct PathEntry {
  std::vector<uint32_t> rows;  // row ids, sorted, deduplicated
  AttrCounts counts;
};

/// FNV-1a over the packed (func, instr) frames; exact vector equality
/// guards against collisions.
struct PathHash {
  size_t operator()(const std::vector<sampling::Frame>& v) const {
    uint64_t h = 1469598103934665603ull;
    for (const sampling::Frame& f : v) {
      h ^= sampling::RunLog::siteKey(f.func, f.instr);
      h *= 1099511628211ull;
    }
    return static_cast<size_t>(h);
  }
};

/// Heap bytes of one std::map / unordered_map node beyond its value.
constexpr size_t kNodeOverhead = 4 * sizeof(void*);

}  // namespace

struct Attributor::Impl {
  Impl(const an::ModuleBlame& mb, const AttributionOptions& opts)
      : mb_(mb), m_(*mb.mod), opts_(opts) {
    // One context name per function plus a name+type pair per displayable
    // entity is the steady-state symbol population; reserving it up front
    // keeps the interner from rehashing mid-attribution.
    size_t displayable = 0;
    for (const FunctionBlame& fb : mb.functions)
      for (const Entity& ent : fb.entities) displayable += ent.displayable ? 1 : 0;
    syms_.reserve(1 + m_.numFunctions() + 2 * displayable);
    mainSym_ = syms_.intern("main").id();
    contextSym_.assign(m_.numFunctions(), kUncached);
    entSym_.resize(m_.numFunctions());
    aliasKeys_.resize(m_.numGlobals());
  }

  void add(const std::vector<sampling::Frame>& path, sampling::AccessKind kind, int32_t src,
           int32_t dst) {
    ++totalRaw_;
    if (path.empty()) return;
    ++totalUser_;
    auto it = memo_.find(path);
    if (it == memo_.end()) it = memo_.emplace(path, blamePath(path)).first;
    // Each blamed row absorbs the sample under its comm classification, so
    // report() can emit the compute/local/remote split; remote samples also
    // land in the locale-pair cells and (once per sample) in the
    // report-global matrix.
    AttrCounts& c = it->second.counts;
    ++c.byKind[static_cast<size_t>(kind)];
    if (kind == sampling::AccessKind::RemoteGet || kind == sampling::AccessKind::RemotePut) {
      uint64_t pk = sampling::RunLog::pairKey(src, dst);
      ++c.cells[pk];
      ++totalComm_[pk];
    }
  }

  void add(const Instance& inst) {
    if (inst.idle) {
      ++totalRaw_;
      return;
    }
    path_.clear();
    for (const ResolvedFrame& fr : inst.frames) path_.push_back({fr.func, fr.instr});
    add(path_, inst.accessKind, inst.srcLocale, inst.dstLocale);
  }

  BlameReport report() const {
    BlameReport out;
    out.totalRawSamples = totalRaw_;
    out.totalUserSamples = totalUser_;
    std::vector<AttrCounts> counts = rowCounts();
    out.rows.reserve(counts.size());
    for (size_t id = 0; id < counts.size(); ++id) {
      VariableBlame row;
      setKey(row, rowKeys_[id]);
      row.computeSamples = counts[id].byKind[0];
      row.localSamples = counts[id].byKind[1];
      row.remoteGetSamples = counts[id].byKind[2];
      row.remotePutSamples = counts[id].byKind[3];
      row.commMatrix = cellsOf(counts[id].cells);
      row.sampleCount = counts[id].total();
      row.percent = totalUser_ ? 100.0 * static_cast<double>(row.sampleCount) / totalUser_ : 0.0;
      out.rows.push_back(std::move(row));
    }
    out.totalComm = cellsOf(totalComm_);
    std::sort(out.rows.begin(), out.rows.end(), blameRowLess);
    return out;
  }

  /// Causal bridge: the leaf frame of a path is where the overflow fired,
  /// i.e. the site whose charges the sample stands for (RunLog::siteKey
  /// space, same as taskSpan sites), so scaling a row's site set scales its
  /// measured code. Both the site and the blamed rows are functions of the
  /// path, so the memo alone holds every (site, row) pair.
  std::vector<VariableSiteSet> sites() const {
    std::vector<VariableSiteSet> out(rowKeys_.size());
    for (const auto& [path, e] : memo_) {
      uint64_t site = sampling::RunLog::siteKey(path.back().func, path.back().instr);
      for (uint32_t id : e.rows) out[id].sites.push_back(site);
    }
    std::vector<AttrCounts> counts = rowCounts();
    for (size_t id = 0; id < out.size(); ++id) {
      VariableSiteSet& row = out[id];
      setKey(row, rowKeys_[id]);
      row.sampleCount = counts[id].total();
      std::sort(row.sites.begin(), row.sites.end());
      row.sites.erase(std::unique(row.sites.begin(), row.sites.end()), row.sites.end());
    }
    // Same total order as blameRowLess, so row i lines up with the matching
    // BlameReport's rows[i].
    std::sort(out.begin(), out.end(), [](const VariableSiteSet& a, const VariableSiteSet& b) {
      if (a.sampleCount != b.sampleCount) return a.sampleCount > b.sampleCount;
      if (a.name != b.name) return a.name < b.name;
      if (a.context != b.context) return a.context < b.context;
      return a.type < b.type;
    });
    return out;
  }

  size_t approxMemoryBytes() const {
    size_t bytes = sizeof(*this) + syms_.approxMemoryBytes();
    bytes += memo_.bucket_count() * sizeof(void*);
    for (const auto& [path, e] : memo_) {
      bytes += sizeof(path) + sizeof(e) + kNodeOverhead;
      bytes += path.capacity() * sizeof(sampling::Frame) + e.rows.capacity() * sizeof(uint32_t);
      bytes += e.counts.cells.size() * (2 * sizeof(uint64_t) + kNodeOverhead);
    }
    bytes += rowKeys_.capacity() * sizeof(AttrKey);
    bytes += rowIds_.bucket_count() * sizeof(void*) +
             rowIds_.size() * (sizeof(AttrKey) + sizeof(uint32_t) + kNodeOverhead);
    bytes += contextSym_.capacity() * sizeof(uint32_t);
    for (const auto& table : entSym_) bytes += sizeof(table) + table.capacity() * sizeof(table[0]);
    for (const auto& keys : aliasKeys_)
      bytes += sizeof(keys) + (keys ? keys->capacity() * sizeof(AttrKey) : 0);
    bytes += totalComm_.size() * (2 * sizeof(uint64_t) + kNodeOverhead);
    bytes += blamed_.capacity() * sizeof(uint32_t) + path_.capacity() * sizeof(sampling::Frame);
    return bytes;
  }

 private:
  static constexpr uint32_t kUncached = ~0u;

  template <typename Row>
  void setKey(Row& row, const AttrKey& key) const {
    row.context = syms_.str(Symbol(key.context));
    row.name = syms_.str(Symbol(key.name));
    row.type = syms_.str(Symbol(key.type));
  }

  /// Per-row tallies: the sum over every memoised path that blames the row.
  std::vector<AttrCounts> rowCounts() const {
    std::vector<AttrCounts> counts(rowKeys_.size());
    for (const auto& [path, e] : memo_) {
      for (uint32_t id : e.rows) {
        for (size_t k = 0; k < 4; ++k) counts[id].byKind[k] += e.counts.byKind[k];
        for (const auto& [pk, n] : e.counts.cells) counts[id].cells[pk] += n;
      }
    }
    return counts;
  }

  /// Inclusive attribution of one new path: every frame of the call path is
  /// matched against its function's blame sets (a sample deep in a callee
  /// also blames caller variables whose blame lines include the callsite).
  PathEntry blamePath(const std::vector<sampling::Frame>& path) {
    blamed_.clear();
    for (size_t fi = 0; fi < path.size(); ++fi) {
      const FunctionBlame& fb = mb_.fn(path[fi].func);
      if (path[fi].instr >= fb.instrEntities.size()) continue;
      for (EntityId e : fb.instrEntities[path[fi].instr]) blameOne(path, fi, fb, e, {});
    }
    std::sort(blamed_.begin(), blamed_.end());
    blamed_.erase(std::unique(blamed_.begin(), blamed_.end()), blamed_.end());
    PathEntry entry;
    entry.rows = blamed_;
    return entry;
  }

  uint32_t rowId(const AttrKey& key) {
    auto [it, inserted] = rowIds_.try_emplace(key, static_cast<uint32_t>(rowKeys_.size()));
    if (inserted) rowKeys_.push_back(key);
    return it->second;
  }

  uint32_t contextSymOf(ir::FuncId f) {
    uint32_t& slot = contextSym_[f];
    if (slot == kUncached) slot = syms_.intern(userContextName(m_, f)).id();
    return slot;
  }

  /// Interned (name, type) of an entity's fixed display strings, cached per
  /// (function, entity) so repeated paths never re-hash the strings.
  std::pair<uint32_t, uint32_t> entitySyms(const FunctionBlame& fb, EntityId e) {
    auto& table = entSym_[fb.func];
    if (table.empty()) table.assign(fb.entities.size(), {kUncached, kUncached});
    auto& slot = table[e];
    if (slot.first == kUncached) {
      slot.first = syms_.intern(fb.entities[e].displayName).id();
      slot.second = syms_.intern(fb.entities[e].typeDisplay).id();
    }
    return slot;
  }

  void blameOne(const std::vector<sampling::Frame>& path, size_t frameIdx,
                const FunctionBlame& fb, EntityId e, std::vector<PathElem> extraPath) {
    if (depth_ > 64) return;  // cyclic transfer guard
    const Entity& ent = fb.entities[e];
    switch (ent.key.root) {
      case RootKind::Param:
        if (opts_.interprocedural && fb.exitViaCaller[e] && frameIdx > 0) {
          const sampling::Frame& caller = path[frameIdx - 1];
          const FunctionBlame& cfb = mb_.fn(caller.func);
          auto cs = cfb.callsites.find(caller.instr);
          if (cs != cfb.callsites.end() &&
              ent.key.rootId < cs->second.paramToCallerEntity.size()) {
            EntityId ce = cs->second.paramToCallerEntity[ent.key.rootId];
            if (ce != kNoEntity) {
              std::vector<PathElem> combined = ent.key.path;
              combined.insert(combined.end(), extraPath.begin(), extraPath.end());
              ++depth_;
              blameOne(path, frameIdx - 1, cfb, ce, std::move(combined));
              --depth_;
              return;
            }
          }
        }
        record(path, frameIdx, fb, e, extraPath);
        return;
      case RootKind::Ret:
        if (opts_.interprocedural && frameIdx > 0) {
          const sampling::Frame& caller = path[frameIdx - 1];
          const FunctionBlame& cfb = mb_.fn(caller.func);
          auto cs = cfb.callsites.find(caller.instr);
          if (cs != cfb.callsites.end()) {
            for (EntityId t : cs->second.resultTargets) {
              ++depth_;
              blameOne(path, frameIdx - 1, cfb, t, {});
              --depth_;
            }
          }
        }
        return;  // return values are never reported directly
      case RootKind::Global:
      case RootKind::Local:
      case RootKind::Unknown:
        record(path, frameIdx, fb, e, extraPath);
        return;
    }
  }

  void record(const std::vector<sampling::Frame>& path, size_t frameIdx, const FunctionBlame& fb,
              EntityId e, const std::vector<PathElem>& extraPath) {
    const Entity& ent = fb.entities[e];
    if (!ent.displayable && !opts_.includeHidden) return;

    uint32_t nameSym, typeSym;
    if (extraPath.empty()) {
      std::tie(nameSym, typeSym) = entitySyms(fb, e);
    } else {
      // Prefer the statically-known combined entity if the function formed
      // one (better type display); otherwise render the suffix by hand.
      EntityKey combined = ent.key;
      combined.path.insert(combined.path.end(), extraPath.begin(), extraPath.end());
      EntityId ce = fb.find(combined);
      if (ce != kNoEntity) {
        std::tie(nameSym, typeSym) = entitySyms(fb, ce);
      } else {
        std::string name = ent.displayName;
        if (ent.key.path.empty()) name = "->" + name;
        name += renderExtraPath(extraPath, indexDepthOf(ent.key.path));
        nameSym = syms_.intern(name).id();
        typeSym = syms_.intern("?").id();
      }
    }

    uint32_t context =
        ent.key.root == RootKind::Global ? mainSym_ : contextSymOf(path[frameIdx].func);
    blamed_.push_back(rowId(AttrKey{context, nameSym, typeSym}));

    // Module-scope aliases share their region: blaming RealPos blames Pos
    // (and vice versa) — §III: "writes to the memory region allocated to
    // the variable v, the aliases of v, ...".
    if (ent.key.root == RootKind::Global) {
      for (const AttrKey& k : aliasKeysOf(ent.key.rootId)) blamed_.push_back(rowId(k));
    }
  }

  const std::vector<AttrKey>& aliasKeysOf(ir::GlobalId g) {
    auto& cached = aliasKeys_[g];
    if (cached) return *cached;
    cached.emplace();
    for (ir::GlobalId sib : mb_.aliasSiblings(g)) {
      const ir::GlobalVar& gv = m_.global(sib);
      if (gv.debugVar == ir::kNone || !m_.debugVar(gv.debugVar).displayable()) continue;
      const ir::DebugVar& dv = m_.debugVar(gv.debugVar);
      uint32_t sname = syms_.intern(m_.interner().str(dv.name)).id();
      uint32_t stype = syms_
                           .intern(dv.typeDisplay.empty()
                                       ? m_.types().display(gv.type, m_.interner())
                                       : dv.typeDisplay)
                           .id();
      cached->push_back(AttrKey{mainSym_, sname, stype});
    }
    return *cached;
  }

  const an::ModuleBlame& mb_;
  const ir::Module& m_;
  AttributionOptions opts_;
  uint64_t totalRaw_ = 0;
  uint64_t totalUser_ = 0;
  StringInterner syms_;
  uint32_t mainSym_ = 0;
  std::vector<uint32_t> contextSym_;  // FuncId -> interned context name
  std::vector<std::vector<std::pair<uint32_t, uint32_t>>> entSym_;  // per func, per entity
  std::vector<std::optional<std::vector<AttrKey>>> aliasKeys_;      // per global
  std::vector<AttrKey> rowKeys_;                                    // row id -> key
  std::unordered_map<AttrKey, uint32_t, AttrKeyHash> rowIds_;       // key -> row id
  std::unordered_map<std::vector<sampling::Frame>, PathEntry, PathHash> memo_;
  std::map<uint64_t, uint64_t> totalComm_;  // once-per-remote-sample pairs
  std::vector<uint32_t> blamed_;            // scratch of blamePath
  std::vector<sampling::Frame> path_;       // scratch of add(Instance)
  int depth_ = 0;
};

Attributor::Attributor(const an::ModuleBlame& mb, const AttributionOptions& opts)
    : impl_(std::make_unique<Impl>(mb, opts)) {}
Attributor::~Attributor() = default;
Attributor::Attributor(Attributor&&) noexcept = default;
Attributor& Attributor::operator=(Attributor&&) noexcept = default;

void Attributor::add(const std::vector<sampling::Frame>& path, sampling::AccessKind kind,
                     int32_t srcLocale, int32_t dstLocale) {
  impl_->add(path, kind, srcLocale, dstLocale);
}

void Attributor::addIdle() { impl_->add({}, sampling::AccessKind::None, 0, 0); }

void Attributor::add(const Instance& inst) { impl_->add(inst); }

BlameReport Attributor::report() const { return impl_->report(); }

std::vector<VariableSiteSet> Attributor::sites() const { return impl_->sites(); }

size_t Attributor::approxMemoryBytes() const { return impl_->approxMemoryBytes(); }

namespace {
}  // namespace

const VariableBlame* BlameReport::find(const std::string& name) const {
  for (const VariableBlame& r : rows)
    if (r.name == name) return &r;
  return nullptr;
}

bool blameRowLess(const VariableBlame& a, const VariableBlame& b) {
  // sampleCount descending is percent descending: within one report every
  // row shares the denominator, so comparing counts avoids float ties.
  if (a.sampleCount != b.sampleCount) return a.sampleCount > b.sampleCount;
  if (a.name != b.name) return a.name < b.name;
  if (a.context != b.context) return a.context < b.context;
  return a.type < b.type;
}

std::string userContextName(const ir::Module& m, ir::FuncId f) {
  ir::FuncId cur = f;
  int guard = 0;
  while (cur != ir::kNone && m.function(cur).isTaskFn() && guard++ < 64)
    cur = m.function(cur).spawnParent;
  if (cur == ir::kNone) return "?";
  const std::string& n = m.function(cur).displayName;
  return n == "_module_init" ? "main" : n;
}

/// Holds the attributor that primed the cache, plus the blame map it ran
/// against (identity-checked before reuse — a cache primed for one module
/// must never answer for another).
struct AttributionCache::Impl {
  std::optional<Attributor> attributor;
  const an::ModuleBlame* mb = nullptr;
};

AttributionCache::AttributionCache() : impl_(std::make_unique<Impl>()) {}
AttributionCache::~AttributionCache() = default;
AttributionCache::AttributionCache(AttributionCache&&) noexcept = default;
AttributionCache& AttributionCache::operator=(AttributionCache&&) noexcept = default;

void AttributionCache::clear() {
  impl_->attributor.reset();
  impl_->mb = nullptr;
}

BlameReport attribute(const an::ModuleBlame& mb, const std::vector<Instance>& instances,
                      const AttributionOptions& opts, AttributionCache* cache) {
  std::optional<Attributor> local;
  Attributor& a = cache ? cache->impl()->attributor.emplace(mb, opts) : local.emplace(mb, opts);
  if (cache) cache->impl()->mb = &mb;
  for (const Instance& inst : instances) a.add(inst);
  return a.report();
}

BlameReport attribute(const an::ModuleBlame& mb, const std::vector<const Instance*>& instances,
                      const AttributionOptions& opts) {
  Attributor a(mb, opts);
  for (const Instance* inst : instances)
    if (inst) a.add(*inst);
  return a.report();
}

std::vector<VariableSiteSet> attributionSites(const an::ModuleBlame& mb,
                                              const std::vector<Instance>& instances,
                                              const AttributionOptions& opts,
                                              const AttributionCache* cache) {
  if (cache != nullptr && cache->impl()->attributor.has_value() && cache->impl()->mb == &mb)
    return cache->impl()->attributor->sites();
  Attributor a(mb, opts);
  for (const Instance& inst : instances) a.add(inst);
  return a.sites();
}

namespace {

/// Shared accumulator behind both the batch and the streaming reductions.
/// Keys on (context, name, type) — the same key the attributor aggregates
/// per sample — so a merge of per-shard partial reports is row-for-row
/// identical to attributing the union sequentially. Strings are interned
/// once per distinct value, comm matrices merge as sorted CommCell vectors
/// via two-pointer passes (no per-cell map nodes), and percentages plus the
/// final row order are applied only in finish() — every fold is a
/// commutative sum, so arrival order cannot change the result.
struct AggAccum {
  StringInterner syms;
  std::unordered_map<AttrKey, VariableBlame, AttrKeyHash> agg;
  std::vector<CommCell> totalComm;
  std::vector<CommCell> scratch;
  uint64_t totalUserSamples = 0;
  uint64_t totalRawSamples = 0;
  uint64_t reports = 0;

  void add(const BlameReport& r) {
    ++reports;
    totalUserSamples += r.totalUserSamples;
    totalRawSamples += r.totalRawSamples;
    mergeSortedCells(totalComm, r.totalComm, scratch);
    // Rehash at most once per input report, never per row — in the row
    // table and in the interner alike (3 symbols per row upper-bounds the
    // distinct context/name/type strings this report can introduce).
    if (agg.size() + r.rows.size() > agg.bucket_count() * agg.max_load_factor())
      agg.reserve(agg.size() + r.rows.size());
    syms.reserve(3 * r.rows.size() + syms.size());
    for (const VariableBlame& row : r.rows) {
      AttrKey key{syms.intern(row.context).id(), syms.intern(row.name).id(),
                  syms.intern(row.type).id()};
      auto [it, inserted] = agg.emplace(key, row);
      if (!inserted) {
        it->second.sampleCount += row.sampleCount;
        it->second.computeSamples += row.computeSamples;
        it->second.localSamples += row.localSamples;
        it->second.remoteGetSamples += row.remoteGetSamples;
        it->second.remotePutSamples += row.remotePutSamples;
        mergeSortedCells(it->second.commMatrix, row.commMatrix, scratch);
      }
    }
  }

  BlameReport finish() {
    BlameReport out;
    out.totalUserSamples = totalUserSamples;
    out.totalRawSamples = totalRawSamples;
    out.totalComm = std::move(totalComm);
    out.rows.reserve(agg.size());
    for (auto& [key, row] : agg) {
      row.percent = totalUserSamples
                        ? 100.0 * static_cast<double>(row.sampleCount) / totalUserSamples
                        : 0.0;
      out.rows.push_back(std::move(row));
    }
    agg.clear();
    std::sort(out.rows.begin(), out.rows.end(), blameRowLess);
    return out;
  }

  size_t approxMemoryBytes() const {
    size_t bytes = sizeof(*this);
    // Arena-backed interner: owned characters once, map keys are views.
    bytes += syms.approxMemoryBytes();
    bytes += agg.bucket_count() * sizeof(void*);
    for (const auto& [key, row] : agg) {
      bytes += sizeof(key) + sizeof(row) + 2 * sizeof(void*);
      bytes += row.name.capacity() + row.type.capacity() + row.context.capacity();
      bytes += row.commMatrix.capacity() * sizeof(CommCell);
    }
    bytes += (totalComm.capacity() + scratch.capacity()) * sizeof(CommCell);
    return bytes;
  }
};

}  // namespace

BlameReport aggregateAcrossLocales(const std::vector<const BlameReport*>& perLocale) {
  AggAccum acc;
  for (const BlameReport* r : perLocale)
    if (r) acc.add(*r);
  return acc.finish();
}

struct StreamingAggregator::Impl {
  AggAccum acc;
};

StreamingAggregator::StreamingAggregator() : impl_(std::make_unique<Impl>()) {}
StreamingAggregator::~StreamingAggregator() = default;
StreamingAggregator::StreamingAggregator(StreamingAggregator&&) noexcept = default;
StreamingAggregator& StreamingAggregator::operator=(StreamingAggregator&&) noexcept = default;

void StreamingAggregator::add(const BlameReport& report) { impl_->acc.add(report); }

BlameReport StreamingAggregator::finish() { return impl_->acc.finish(); }

uint64_t StreamingAggregator::reportsAdded() const { return impl_->acc.reports; }

size_t StreamingAggregator::approxMemoryBytes() const { return impl_->acc.approxMemoryBytes(); }

}  // namespace cb::pm
