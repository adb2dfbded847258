#include "analysis/race.h"

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <unordered_map>
#include <utility>

namespace cb::an::race {

using ir::BinKind;
using ir::BuiltinKind;
using ir::FuncId;
using ir::Instr;
using ir::InstrId;
using ir::Opcode;
using ir::TypeId;
using ir::TypeKind;
using ir::ValueRef;

namespace {

bool typeOwnsArrays(const ir::Module& m, TypeId t) {
  const ir::Type& ty = m.types().get(t);
  switch (ty.kind) {
    case TypeKind::Array: return true;
    case TypeKind::Tuple:
      for (TypeId e : ty.elems)
        if (typeOwnsArrays(m, e)) return true;
      return false;
    case TypeKind::Record:
      for (const ir::RecordField& f : ty.fields)
        if (typeOwnsArrays(m, f.type)) return true;
      return false;
    default: return false;
  }
}

constexpr uint32_t kArbSig = ~0u;
// Inlined call sites per task function; past this the region is MayRace.
constexpr size_t kMaxFrames = 256;

// An instruction of the task function or of an inlined callee.
struct Site {
  FuncId fn = ir::kNone;
  InstrId instr = ir::kNone;
};

// The abstract interpreter. The task function is frame 0; every call site
// reachable from it (up to kMaxCallDepth) gets its own frame holding the
// callee's abstract state, with the formals bound to the caller's abstract
// actuals. The fixpoint iterates all frames together, so values flow into a
// callee through its bindings and back out through its return value and
// through stores to the caller's locals via `ref` formals. Every way the
// proof can fail records a human-readable reason and the first offending
// instruction(s) into the Verdict.
struct Analyzer {
  const ir::Module& m;
  FuncId taskFid;

  struct VC {
    enum K : uint8_t { Bot, Uni, Ind, Aff, AffN, CLo, CHi, Vary };
    K k = Bot;
    uint32_t s = 0;
    bool operator==(const VC&) const = default;
  };
  struct RC {
    enum K : uint8_t { NotRef, Local, LocalField, TaskElem, Elem, Cap, Glob, Vary };
    K k = NotRef;
    uint32_t a = 0;      // alloca id / root id / arg index / global id
    uint32_t sig = 0;    // Elem only
    uint32_t frame = 0;  // Local / LocalField: the frame owning alloca `a`
    std::vector<uint32_t> path;  // Cap/Glob only
    bool operator==(const RC&) const = default;
  };
  struct AC {
    // Sub: every element of this array belongs to the element of `root` at
    // signature `sig`: an array owned by that element (an array of arrays,
    // or an array-typed record field), or, with sig == kArbSig, a view.
    enum K : uint8_t { NotArr, Root, Sub, TaskLocal, Vary };
    K k = NotArr;
    uint32_t root = 0;
    uint32_t sig = 0;  // Sub only
    bool operator==(const AC&) const = default;
  };

  struct AllocaState {
    VC v;
    AC a;
  };
  struct Frame {
    const ir::Function* fn = nullptr;
    FuncId fid = ir::kNone;
    bool isTask = false;
    std::vector<VC> vc;
    std::vector<RC> rc;
    std::vector<AC> ac;
    std::vector<AllocaState> allocaSt;
    std::vector<bool> isInduction;
    // Callee frames: the caller's abstract actuals (values for value
    // formals, references for `ref`, array and domain formals), and the join
    // of every returned value.
    std::vector<VC> argV;
    std::vector<RC> argR;
    VC ret;
    std::map<InstrId, uint32_t> callee;       // Call instr -> inlined frame
    std::map<InstrId, std::string> callBail;  // Call instr -> why it is not inlined
  };
  std::vector<Frame> frames;

  // Symbolic identities of task-uniform values, interned structurally: a
  // symbol is (kind, a, b), where a and b are constants or other symbols.
  enum class Sym : uint8_t {
    Int, Real, Bool, Str, Arg, Glob, Cap, Field, Bin, Un, AddAff, AddAffN, NegInd, SubAff,
    SubAffN, SubAffNU, Tuple, TupleElem, Imm, TupleGet, Domain, DomainElem, RootDomain,
    DomainQuery, Config, Here, NumLocales,
  };
  struct SymKey {
    Sym tag;
    uint64_t a, b;
    bool operator==(const SymKey&) const = default;
  };
  struct SymHash {
    size_t operator()(const SymKey& k) const {
      uint64_t h = static_cast<uint64_t>(k.tag);
      h = (h * 0x9e3779b97f4a7c15ull) ^ k.a;
      h = (h * 0x9e3779b97f4a7c15ull) ^ k.b;
      return static_cast<size_t>(h ^ (h >> 32));
    }
  };
  std::unordered_map<SymKey, uint32_t, SymHash> symIds;
  std::map<std::tuple<bool, bool, uint32_t, std::vector<uint32_t>>, uint32_t> rootIds;
  std::vector<RootRef> rootRefs;
  static constexpr uint8_t kAnySig = 4;
  struct SigElem {
    uint8_t k;  // 0 Uni, 1 Ind, 2 Aff, 3 AffN, kAnySig any value
    uint32_t s;
  };
  std::vector<std::pair<bool, std::vector<SigElem>>> sigs;
  std::map<std::vector<uint64_t>, uint32_t> sigIds;

  struct RootInfo {
    std::set<uint32_t> wsigs, rsigs;
    bool arbW = false, arbR = false;
    bool sub = false;  // some access goes through an element-owned sub-array
    // Diagnostics only: first instruction seen per signature / arbitrary
    // access (never consulted by the eligibility decision).
    std::map<uint32_t, Site> wAt, rAt;
    Site arbWAt, arbRAt;
  };
  std::map<uint32_t, RootInfo> rootInfo;

  bool fatal = false;
  bool anyUnknownRead = false;
  Site unknownReadAt;
  bool changed = false;
  bool record = false;

  Verdict verdict;

  Analyzer(const ir::Module& mod, FuncId taskFn) : m(mod), taskFid(taskFn) {
    std::vector<FuncId> chain{taskFn};
    buildFrame(taskFn, chain);
  }

  // -- frames -----------------------------------------------------------------
  uint32_t buildFrame(FuncId fid, std::vector<FuncId>& chain) {
    uint32_t id = static_cast<uint32_t>(frames.size());
    frames.emplace_back();
    {
      Frame& f = frames.back();
      f.fn = &m.function(fid);
      f.fid = fid;
      f.isTask = id == 0;
      size_t n = f.fn->numInstrs();
      f.vc.resize(n);
      f.rc.resize(n);
      f.ac.resize(n);
      f.allocaSt.resize(n);
      f.isInduction.assign(n, false);
      if (f.isTask) findInductionAllocas(f);
      size_t np = f.fn->params.size();
      f.argV.resize(np);
      f.argR.resize(np);
    }
    const ir::Function& fn = m.function(fid);
    for (InstrId i = 0; i < fn.numInstrs(); ++i) {
      const Instr& in = fn.instrs[i];
      if (in.op != Opcode::Call) continue;
      FuncId callee = in.extra.func;
      std::string why;
      if (callee >= m.numFunctions() ||
          m.function(callee).params.size() != in.ops.size()) {
        why = "the region calls a procedure with a mismatched signature";
      } else if (std::find(chain.begin(), chain.end(), callee) != chain.end()) {
        why = "the region calls a recursive procedure";
      } else if (chain.size() > kMaxCallDepth) {
        why = "the region's call chain is deeper than " + std::to_string(kMaxCallDepth) +
              " procedures";
      } else if (returnsHandle(m.function(callee))) {
        why = "a called procedure returns an array, a reference or a record holding arrays";
      } else if (frames.size() >= kMaxFrames) {
        why = "the region makes more than " + std::to_string(kMaxFrames) + " distinct calls";
      }
      if (!why.empty()) {
        frames[id].callBail.emplace(i, std::move(why));
        continue;
      }
      chain.push_back(callee);
      uint32_t child = buildFrame(callee, chain);
      chain.pop_back();
      frames[id].callee.emplace(i, child);
    }
    return id;
  }

  bool returnsHandle(const ir::Function& fn) const {
    TypeId t = fn.returnType;
    if (t == ir::kInvalidType) return false;
    TypeKind k = m.types().kindOf(t);
    return k == TypeKind::Ref || typeOwnsArrays(m, t);
  }

  uint32_t sym(Sym tag, uint64_t a = 0, uint64_t b = 0) {
    auto [it, fresh] = symIds.emplace(SymKey{tag, a, b}, static_cast<uint32_t>(symIds.size()));
    return it->second;
  }

  uint32_t rootId(bool fromGlobal, bool deref, uint32_t index,
                  const std::vector<uint32_t>& path) {
    auto [it, fresh] = rootIds.emplace(std::make_tuple(fromGlobal, deref, index, path),
                                       static_cast<uint32_t>(rootRefs.size()));
    if (fresh) rootRefs.push_back(RootRef{fromGlobal, deref, index, path, false, false});
    return it->second;
  }

  uint32_t internSig(bool linear, const std::vector<SigElem>& elems) {
    std::vector<uint64_t> key{linear ? 1u : 0u};
    for (const SigElem& e : elems) key.push_back((uint64_t{e.k} << 32) | e.s);
    auto [it, fresh] = sigIds.emplace(std::move(key), static_cast<uint32_t>(sigs.size()));
    if (fresh) sigs.emplace_back(linear, elems);
    return it->second;
  }

  static void findInductionAllocas(Frame& f) {
    // The chunk loop's counter: an alloca with exactly two stores, one of
    // the chunk_lo argument (arg 0) and one of (load(self) + 1).
    const ir::Function& fn = *f.fn;
    std::vector<std::vector<InstrId>> storesTo(fn.numInstrs());
    for (InstrId i = 0; i < fn.numInstrs(); ++i) {
      const Instr& in = fn.instrs[i];
      if (in.op != Opcode::Store || in.ops.size() != 2) continue;
      if (in.ops[1].isReg() && fn.instrs[in.ops[1].reg].op == Opcode::Alloca)
        storesTo[in.ops[1].reg].push_back(i);
    }
    for (InstrId a = 0; a < fn.numInstrs(); ++a) {
      if (fn.instrs[a].op != Opcode::Alloca || storesTo[a].size() != 2) continue;
      bool init = false, inc = false;
      for (InstrId s : storesTo[a]) {
        const ValueRef& v = fn.instrs[s].ops[0];
        if (v.kind == ValueRef::Kind::Arg && v.arg == 0) { init = true; continue; }
        if (!v.isReg()) continue;
        const Instr& add = fn.instrs[v.reg];
        if (add.op != Opcode::Bin || add.extra.bin != BinKind::Add || add.ops.size() != 2)
          continue;
        for (int side = 0; side < 2; ++side) {
          const ValueRef& x = add.ops[side];
          const ValueRef& y = add.ops[1 - side];
          if (y.kind != ValueRef::Kind::ConstInt || y.i != 1) continue;
          if (x.isReg() && fn.instrs[x.reg].op == Opcode::Load &&
              fn.instrs[x.reg].ops[0].isReg() && fn.instrs[x.reg].ops[0].reg == a)
            inc = true;
        }
      }
      if (init && inc) f.isInduction[a] = true;
    }
  }

  // -- joins ----------------------------------------------------------------
  static VC joinVC(const VC& a, const VC& b) {
    if (a.k == VC::Bot) return b;
    if (b.k == VC::Bot) return a;
    if (a == b) return a;
    return VC{VC::Vary, 0};
  }
  static AC joinAC(const AC& a, const AC& b) {
    if (a.k == AC::NotArr) return b;
    if (b.k == AC::NotArr) return a;
    if (a == b) return a;
    return AC{AC::Vary, 0, 0};
  }

  void setVC(Frame& f, InstrId i, VC v) {
    if (f.vc[i] != v) { f.vc[i] = v; changed = true; }
  }
  void setRC(Frame& f, InstrId i, RC r) {
    if (f.rc[i] != r) { f.rc[i] = std::move(r); changed = true; }
  }
  void setAC(Frame& f, InstrId i, AC a) {
    if (f.ac[i] != a) { f.ac[i] = a; changed = true; }
  }
  void joinAlloca(Frame& f, InstrId a, const VC& v, const AC& arr) {
    AllocaState& st = f.allocaSt[a];
    VC nv = joinVC(st.v, v);
    AC na = joinAC(st.a, arr);
    if (nv != st.v || na != st.a) {
      st.v = nv;
      st.a = na;
      changed = true;
    }
  }

  // -- operand classification ----------------------------------------------
  static bool isRefParam(const Frame& f, const ValueRef& v) {
    return v.kind == ValueRef::Kind::Arg && v.arg < f.fn->params.size() &&
           f.fn->params[v.arg].byRef;
  }
  VC vcOf(const Frame& f, const ValueRef& v) {
    switch (v.kind) {
      case ValueRef::Kind::ConstInt: return VC{VC::Uni, sym(Sym::Int, static_cast<uint64_t>(v.i))};
      case ValueRef::Kind::ConstReal: {
        uint64_t bits;
        static_assert(sizeof(bits) == sizeof(v.r));
        __builtin_memcpy(&bits, &v.r, sizeof(bits));
        return VC{VC::Uni, sym(Sym::Real, bits)};
      }
      case ValueRef::Kind::ConstBool: return VC{VC::Uni, sym(Sym::Bool, v.b ? 1 : 0)};
      case ValueRef::Kind::ConstString: return VC{VC::Uni, sym(Sym::Str, v.stringId)};
      case ValueRef::Kind::Arg:
        if (isRefParam(f, v) || v.arg >= f.fn->params.size()) return VC{VC::Vary, 0};
        if (!f.isTask) return f.argV[v.arg];
        if (v.arg == 0) return VC{VC::CLo, 0};
        if (v.arg == 1) return VC{VC::CHi, 0};
        return VC{VC::Uni, sym(Sym::Arg, v.arg)};
      case ValueRef::Kind::Reg: return f.vc[v.reg];
      default: return VC{VC::Vary, 0};
    }
  }
  RC rcOf(const Frame& f, const ValueRef& v) {
    if (v.isReg()) return f.rc[v.reg];
    if (isRefParam(f, v)) {
      if (f.isTask) return RC{RC::Cap, v.arg, 0, 0, {}};
      return f.argR[v.arg];
    }
    if (v.kind == ValueRef::Kind::GlobalAddr) return RC{RC::Glob, v.global, 0, 0, {}};
    return RC{};
  }
  AC acOf(const Frame& f, const ValueRef& v) {
    if (v.isReg()) return f.ac[v.reg];
    // Byval array arguments exist only on task functions (iterands): a
    // callee receives arrays by reference.
    if (f.isTask && v.kind == ValueRef::Kind::Arg && v.arg < f.fn->params.size() &&
        !isRefParam(f, v) && m.types().kindOf(f.fn->params[v.arg].type) == TypeKind::Array)
      return AC{AC::Root, rootId(false, false, v.arg, {}), 0};
    return AC{};
  }
  bool operandIsRefValue(const Frame& f, const ValueRef& v) {
    return rcOf(f, v).k != RC::NotRef;
  }
  TypeId operandType(const Frame& f, const ValueRef& v) {
    if (v.isReg()) return f.fn->instrs[v.reg].type;
    if (v.kind == ValueRef::Kind::Arg && v.arg < f.fn->params.size())
      return f.fn->params[v.arg].type;
    return ir::kInvalidType;
  }

  void markRead(uint32_t root, uint32_t sig, Site at) {
    if (!record) return;
    RootInfo& info = rootInfo[root];
    if (sig == kArbSig) {
      info.arbR = true;
      if (info.arbRAt.instr == ir::kNone) info.arbRAt = at;
    } else {
      info.rsigs.insert(sig);
      info.rAt.emplace(sig, at);
    }
  }
  void markWrite(uint32_t root, uint32_t sig, Site at) {
    if (!record) return;
    RootInfo& info = rootInfo[root];
    if (sig == kArbSig) {
      info.arbW = true;
      if (info.arbWAt.instr == ir::kNone) info.arbWAt = at;
    } else {
      info.wsigs.insert(sig);
      info.wAt.emplace(sig, at);
    }
  }
  void markSub(uint32_t root) {
    if (record) rootInfo[root].sub = true;
  }
  void noteUnknownRead(Site at) {
    if (!record) return;
    anyUnknownRead = true;
    if (unknownReadAt.instr == ir::kNone) unknownReadAt = at;
  }
  /// A whole-array read (writeln, array copy source) of array value `a`.
  void readWhole(const AC& a, Site at) {
    switch (a.k) {
      case AC::Root: markRead(a.root, kArbSig, at); break;
      case AC::Sub: markRead(a.root, a.sig, at); break;
      case AC::Vary: noteUnknownRead(at); break;
      default: break;
    }
  }
  /// The analysis hit something outside its abstraction: record why (first
  /// obstruction wins) and force the sequential fallback.
  void bail(Site at, const std::string& what) {
    if (!record) return;
    fatal = true;
    if (verdict.reason.empty()) {
      verdict.reason = what;
      verdict.offenders.push_back(Offender{at.fn, at.instr, false, what});
    }
  }

  /// Binds the callee frame's formals to the caller's abstract actuals.
  void bindCall(const Frame& caller, const Instr& in, Frame& callee) {
    for (size_t k = 0; k < in.ops.size(); ++k) {
      bool byRef = callee.fn->params[k].byRef;
      VC v = byRef ? VC{VC::Vary, 0} : vcOf(caller, in.ops[k]);
      RC r = byRef ? rcOf(caller, in.ops[k]) : RC{};
      if (byRef && r.k == RC::NotRef) r.k = RC::Vary;
      if (callee.argV[k] != v) { callee.argV[k] = v; changed = true; }
      if (callee.argR[k] != r) { callee.argR[k] = std::move(r); changed = true; }
    }
  }

  // -- transfer -------------------------------------------------------------
  void transfer(Frame& f, InstrId i) {
    const Instr& in = f.fn->instrs[i];
    const Site at{f.fid, i};
    switch (in.op) {
      case Opcode::Alloca:
        setRC(f, i, RC{RC::Local, i, 0, static_cast<uint32_t>(&f - frames.data()), {}});
        break;
      case Opcode::Load: {
        RC r = rcOf(f, in.ops[0]);
        bool isArr = in.type != ir::kInvalidType &&
                     m.types().kindOf(in.type) == TypeKind::Array;
        bool owns = in.type != ir::kInvalidType && !isArr && typeOwnsArrays(m, in.type);
        if (owns && r.k != RC::Local)
          bail(at, "a record-of-arrays handle escapes task-local storage");
        switch (r.k) {
          case RC::Local: {
            const Frame& home = frames[r.frame];
            setVC(f, i, home.isInduction[r.a] ? VC{VC::Ind, 0} : home.allocaSt[r.a].v);
            if (isArr) setAC(f, i, home.allocaSt[r.a].a);
            break;
          }
          case RC::LocalField:
            if (isArr || owns)
              bail(at, "an array handle is loaded through a record field");
            setVC(f, i, VC{VC::Vary, 0});
            break;
          case RC::TaskElem:
            if (isArr) setAC(f, i, AC{AC::TaskLocal, 0, 0});
            setVC(f, i, VC{VC::Vary, 0});
            break;
          case RC::Elem:
            markRead(r.a, r.sig, at);
            if (isArr) {
              // An array owned by the element: accesses through it are
              // accesses to the element (sub-array rule).
              markSub(r.a);
              setAC(f, i, AC{AC::Sub, r.a, r.sig});
            }
            setVC(f, i, VC{VC::Vary, 0});
            break;
          case RC::Cap:
          case RC::Glob: {
            bool g = r.k == RC::Glob;
            uint32_t id = sym(g ? Sym::Glob : Sym::Cap, r.a);
            for (uint32_t p : r.path) id = sym(Sym::Field, id, p);
            if (isArr) setAC(f, i, AC{AC::Root, rootId(g, !g, r.a, r.path), 0});
            setVC(f, i, VC{VC::Uni, id});
            break;
          }
          default:
            noteUnknownRead(at);
            if (isArr) setAC(f, i, AC{AC::Vary, 0, 0});
            setVC(f, i, VC{VC::Vary, 0});
            break;
        }
        break;
      }
      case Opcode::Store: {
        RC r = rcOf(f, in.ops[1]);
        VC v = vcOf(f, in.ops[0]);
        AC av = acOf(f, in.ops[0]);
        TypeId vt = operandType(f, in.ops[0]);
        bool vIsArr = vt != ir::kInvalidType && m.types().kindOf(vt) == TypeKind::Array;
        bool vOwns = vt != ir::kInvalidType && !vIsArr && typeOwnsArrays(m, vt);
        bool vIsRef = operandIsRefValue(f, in.ops[0]) ||
                      in.ops[0].kind == ValueRef::Kind::GlobalAddr;
        switch (r.k) {
          case RC::Local: {
            Frame& home = frames[r.frame];
            if (home.isInduction[r.a] && &home != &f)
              bail(at, "a called procedure writes the chunk-loop counter");
            joinAlloca(home, r.a, vIsArr ? VC{VC::Vary, 0} : v,
                       vIsArr ? av : AC{AC::NotArr, 0, 0});
            if (vOwns || vIsRef)
              bail(at, "a reference or array-owning value is stored to a local");
            break;
          }
          case RC::LocalField:
            // A partial store leaves the variable's whole value unknown.
            joinAlloca(frames[r.frame], r.a, VC{VC::Vary, 0}, AC{});
            [[fallthrough]];
          case RC::TaskElem:
            if (vOwns || vIsRef || (vIsArr && av.k != AC::TaskLocal))
              bail(at, "a shared handle is stored through a record field or element");
            break;
          case RC::Elem:
            markWrite(r.a, r.sig, at);
            if (vOwns || vIsArr || vIsRef)
              bail(at, "a reference or array value is stored into an array element");
            break;
          default:
            bail(at, "a store through an unresolved reference (capture or global write)");
            break;
        }
        break;
      }
      case Opcode::FieldAddr:
      case Opcode::TupleAddr: {
        RC r = rcOf(f, in.ops[0]);
        bool dyn = in.op == Opcode::TupleAddr && in.ops.size() == 2;
        switch (r.k) {
          case RC::Local:
          case RC::LocalField: setRC(f, i, RC{RC::LocalField, r.a, 0, r.frame, {}}); break;
          case RC::TaskElem: setRC(f, i, RC{RC::TaskElem, 0, 0, 0, {}}); break;
          case RC::Elem: setRC(f, i, RC{RC::Elem, r.a, r.sig, 0, {}}); break;
          case RC::Cap:
          case RC::Glob:
            if (dyn) { setRC(f, i, RC{RC::Vary, 0, 0, 0, {}}); break; }
            {
              RC nr = r;
              nr.path.push_back(in.imm);
              setRC(f, i, std::move(nr));
            }
            break;
          default: setRC(f, i, RC{RC::Vary, 0, 0, 0, {}}); break;
        }
        break;
      }
      case Opcode::IndexAddr: {
        AC base = acOf(f, in.ops[0]);
        switch (base.k) {
          case AC::Root: {
            bool linear = (in.imm & 1) != 0;
            std::vector<SigElem> elems;
            bool arb = false, disjoint = false;
            for (size_t k = 1; k < in.ops.size(); ++k) {
              VC c = vcOf(f, in.ops[k]);
              switch (c.k) {
                case VC::Uni: elems.push_back({0, c.s}); break;
                case VC::Ind: elems.push_back({1, 0}); disjoint = true; break;
                case VC::Aff: elems.push_back({2, c.s}); disjoint = true; break;
                case VC::AffN: elems.push_back({3, c.s}); disjoint = true; break;
                default: elems.push_back({kAnySig, 0}); arb = true; break;
              }
            }
            // A multi-dimensional index with one disjoint coordinate confines
            // each task to its own slab whatever the other coordinates are
            // (each coordinate is bounds-checked separately).
            if (arb && disjoint && !linear) arb = false;
            setRC(f, i,
                  RC{RC::Elem, base.root, arb ? kArbSig : internSig(linear, elems), 0, {}});
            break;
          }
          // Any element of a sub-array belongs to the owning element.
          case AC::Sub: setRC(f, i, RC{RC::Elem, base.root, base.sig, 0, {}}); break;
          case AC::TaskLocal: setRC(f, i, RC{RC::TaskElem, 0, 0, 0, {}}); break;
          default: setRC(f, i, RC{RC::Vary, 0, 0, 0, {}}); break;
        }
        break;
      }
      case Opcode::Bin: {
        TypeKind rk = m.types().kindOf(in.type);
        VC a = vcOf(f, in.ops[0]), b = vcOf(f, in.ops[1]);
        BinKind k = in.extra.bin;
        auto uni2 = [&] {
          return VC{VC::Uni, sym(Sym::Bin, (uint64_t{static_cast<uint8_t>(k)} << 32) | a.s, b.s)};
        };
        if (rk != TypeKind::Int) {
          setVC(f, i, (a.k == VC::Uni && b.k == VC::Uni) ? uni2() : VC{VC::Vary, 0});
          break;
        }
        VC out{VC::Vary, 0};
        uint32_t lo = std::min(a.s, b.s), hi = std::max(a.s, b.s);
        if (a.k == VC::Uni && b.k == VC::Uni) {
          out = uni2();
        } else if (k == BinKind::Add) {
          if ((a.k == VC::Uni && b.k == VC::Ind) || (a.k == VC::Ind && b.k == VC::Uni))
            out = VC{VC::Aff, a.k == VC::Uni ? a.s : b.s};
          else if ((a.k == VC::Uni && b.k == VC::Aff) || (a.k == VC::Aff && b.k == VC::Uni))
            out = VC{VC::Aff, sym(Sym::AddAff, lo, hi)};
          else if ((a.k == VC::Uni && b.k == VC::AffN) || (a.k == VC::AffN && b.k == VC::Uni))
            out = VC{VC::AffN, sym(Sym::AddAffN, lo, hi)};
        } else if (k == BinKind::Sub) {
          if (a.k == VC::Ind && b.k == VC::Uni)
            out = VC{VC::Aff, sym(Sym::NegInd, b.s)};
          else if (a.k == VC::Aff && b.k == VC::Uni)
            out = VC{VC::Aff, sym(Sym::SubAff, a.s, b.s)};
          else if (a.k == VC::Uni && b.k == VC::Ind)
            out = VC{VC::AffN, a.s};
          else if (a.k == VC::Uni && b.k == VC::Aff)
            out = VC{VC::AffN, sym(Sym::SubAffN, a.s, b.s)};
          else if (a.k == VC::AffN && b.k == VC::Uni)
            out = VC{VC::AffN, sym(Sym::SubAffNU, a.s, b.s)};
        }
        setVC(f, i, out);
        break;
      }
      case Opcode::Un: {
        VC a = vcOf(f, in.ops[0]);
        setVC(f, i, a.k == VC::Uni
                        ? VC{VC::Uni, sym(Sym::Un, static_cast<uint8_t>(in.extra.un), a.s)}
                        : VC{VC::Vary, 0});
        break;
      }
      case Opcode::TupleMake: {
        bool allUni = true;
        uint32_t id = sym(Sym::Tuple);
        for (const ValueRef& o : in.ops) {
          if (record && (operandIsRefValue(f, o) || acOf(f, o).k != AC::NotArr))
            bail(at, "a tuple captures a reference or array handle");
          VC c = vcOf(f, o);
          if (c.k != VC::Uni) allUni = false;
          else if (allUni) id = sym(Sym::TupleElem, id, c.s);
        }
        if (in.type != ir::kInvalidType && typeOwnsArrays(m, in.type))
          bail(at, "a tuple owning array storage is constructed");
        setVC(f, i, allUni ? VC{VC::Uni, id} : VC{VC::Vary, 0});
        break;
      }
      case Opcode::TupleGet: {
        if (in.type != ir::kInvalidType && typeOwnsArrays(m, in.type))
          bail(at, "an array handle is extracted from a tuple");
        VC t = vcOf(f, in.ops[0]);
        bool dyn = in.ops.size() == 2;
        VC idx = dyn ? vcOf(f, in.ops[1]) : VC{VC::Uni, sym(Sym::Imm, in.imm)};
        setVC(f, i, (t.k == VC::Uni && idx.k == VC::Uni)
                        ? VC{VC::Uni, sym(Sym::TupleGet, t.s, idx.s)}
                        : VC{VC::Vary, 0});
        break;
      }
      case Opcode::RecordNew:
        if (typeOwnsArrays(m, in.type))
          bail(at, "a record owning array storage is constructed (runs domain thunks)");
        setVC(f, i, VC{VC::Vary, 0});
        break;
      case Opcode::DomainMake:
      case Opcode::DomainExpand: {
        bool allUni = true;
        uint32_t id = sym(Sym::Domain, static_cast<uint8_t>(in.op));
        for (const ValueRef& o : in.ops) {
          VC c = vcOf(f, o);
          if (c.k != VC::Uni) { allUni = false; break; }
          id = sym(Sym::DomainElem, id, c.s);
        }
        setVC(f, i, allUni ? VC{VC::Uni, id} : VC{VC::Vary, 0});
        break;
      }
      case Opcode::DomainSize:
      case Opcode::DomainDim: {
        // Size and bounds are different values: the query kind is part of
        // the symbol.
        AC base = acOf(f, in.ops[0]);
        uint64_t query = (uint64_t{in.imm} << 1) | (in.op == Opcode::DomainSize ? 1 : 0);
        if (base.k == AC::Root) {
          setVC(f, i, VC{VC::Uni, sym(Sym::RootDomain, base.root, query)});
        } else {
          VC d = vcOf(f, in.ops[0]);
          setVC(f, i, d.k == VC::Uni ? VC{VC::Uni, sym(Sym::DomainQuery, d.s, query)}
                                     : VC{VC::Vary, 0});
        }
        break;
      }
      case Opcode::ArrayNew:
        setAC(f, i, AC{AC::TaskLocal, 0, 0});
        break;
      case Opcode::ArrayView: {
        // A view remaps coordinates, so accesses through it are not
        // comparable with direct signatures: they count as arbitrary-index
        // accesses of the viewed root. Reads are fine; a store makes the
        // root written at an arbitrary index, which the root rule rejects.
        AC base = acOf(f, in.ops[0]);
        bool known = base.k == AC::Root || base.k == AC::Sub;
        setAC(f, i, known ? AC{AC::Sub, base.root, kArbSig} : AC{AC::Vary, 0, 0});
        break;
      }
      case Opcode::Call: {
        auto why = f.callBail.find(i);
        if (why != f.callBail.end()) {
          bail(at, why->second);
          setVC(f, i, VC{VC::Vary, 0});
          break;
        }
        Frame& callee = frames[f.callee.at(i)];
        bindCall(f, in, callee);
        setVC(f, i, callee.ret);
        break;
      }
      case Opcode::Ret:
        if (!f.isTask && !in.ops.empty()) {
          if (record && (operandIsRefValue(f, in.ops[0]) || acOf(f, in.ops[0]).k != AC::NotArr))
            bail(at, "a called procedure returns a reference or an array");
          VC nv = joinVC(f.ret, vcOf(f, in.ops[0]));
          if (nv != f.ret) { f.ret = nv; changed = true; }
        }
        break;
      case Opcode::Spawn:
        bail(at, "the region contains a nested forall/coforall");
        setVC(f, i, VC{VC::Vary, 0});
        break;
      case Opcode::Builtin:
        switch (in.extra.builtin) {
          case BuiltinKind::Random:
            bail(at, "the region draws from the shared random stream");
            break;
          case BuiltinKind::Writeln:
            for (const ValueRef& o : in.ops) {
              if (operandIsRefValue(f, o))
                bail(at, "writeln prints through a reference");
              readWhole(acOf(f, o), at);
            }
            break;
          case BuiltinKind::ArrayFill:
          case BuiltinKind::ArrayCopy: {
            AC dst = acOf(f, in.ops[0]);
            if (dst.k != AC::TaskLocal)
              bail(at, "a whole-array fill/copy targets a shared array");
            if (in.extra.builtin == BuiltinKind::ArrayCopy) readWhole(acOf(f, in.ops[1]), at);
            break;
          }
          case BuiltinKind::ConfigGet:
            setVC(f, i, vcOf(f, in.ops[1]).k == VC::Uni ? VC{VC::Uni, sym(Sym::Config, f.fid, i)}
                                                          : VC{VC::Vary, 0});
            break;
          case BuiltinKind::Dmapped:
          case BuiltinKind::OnBegin:
          case BuiltinKind::OnEnd:
            // Locale switches mutate shared runtime state (current locale,
            // comm counters follow task order): keep such regions sequential.
            bail(at, "the region switches locales (`on` block)");
            setVC(f, i, VC{VC::Vary, 0});
            break;
          case BuiltinKind::AggOpen:
          case BuiltinKind::AggCopy:
          case BuiltinKind::AggClose:
            // Aggregator buffers are per-task mutable runtime state whose
            // flush points depend on copy order: keep such regions
            // sequential so replay stays deterministic.
            bail(at, "the region uses a remote-access aggregator (flush order)");
            setVC(f, i, VC{VC::Vary, 0});
            break;
          case BuiltinKind::HereId:
            setVC(f, i, VC{VC::Uni, sym(Sym::Here)});
            break;
          case BuiltinKind::NumLocales:
            setVC(f, i, VC{VC::Uni, sym(Sym::NumLocales)});
            break;
          default:  // Clock / Yield / HeapHint
            setVC(f, i, VC{VC::Vary, 0});
            break;
        }
        break;
      default:  // Br / CondBr / IterOverhead
        break;
    }
  }

  Verdict mayRace(std::string reason, std::vector<Offender> offenders) {
    Verdict v;
    v.raceFree = false;
    v.reason = std::move(reason);
    v.offenders = std::move(offenders);
    return v;
  }

  std::string rootName(uint32_t root) const {
    return describeRoot(m, m.function(taskFid), rootRefs[root]);
  }

  static Offender offender(Site at, bool isWrite, std::string what) {
    return Offender{at.fn, at.instr, isWrite, std::move(what)};
  }

  bool pass() {
    changed = false;
    for (Frame& f : frames)
      for (InstrId i = 0; i < f.fn->numInstrs(); ++i) {
        transfer(f, i);
        if (fatal) return false;
      }
    return true;
  }

  Verdict run() {
    constexpr int kMaxPasses = 64;
    for (int iter = 0;; ++iter) {
      pass();
      if (!changed) break;
      if (iter == kMaxPasses - 1)
        return mayRace("the abstract interpretation did not converge", {});
    }
    record = true;
    if (!pass()) {
      verdict.raceFree = false;
      return std::move(verdict);
    }
    bool anyWrite = false;
    for (auto& [root, info] : rootInfo) {
      rootRefs[root].subArrays = info.sub;
      bool w = info.arbW || !info.wsigs.empty();
      if (!w) continue;
      anyWrite = true;
      rootRefs[root].written = true;
      if (info.arbW || info.arbR) {
        std::vector<Offender> off;
        if (info.arbWAt.instr != ir::kNone)
          off.push_back(offender(info.arbWAt, true, "non-affine write index"));
        if (info.arbRAt.instr != ir::kNone)
          off.push_back(offender(info.arbRAt, false, "non-affine read index"));
        return mayRace("`" + rootName(root) +
                           "` is written and indexed by a non-affine (task-varying) "
                           "expression, so tasks may collide",
                       std::move(off));
      }
      std::set<uint32_t> all = info.wsigs;
      all.insert(info.rsigs.begin(), info.rsigs.end());
      if (all.size() != 1) {
        std::vector<Offender> off;
        for (const auto& [sig, at] : info.wAt)
          off.push_back(offender(at, true, "write signature " + std::to_string(sig)));
        for (const auto& [sig, at] : info.rAt)
          off.push_back(offender(at, false, "read signature " + std::to_string(sig)));
        return mayRace("`" + rootName(root) + "` is accessed through " +
                           std::to_string(all.size()) +
                           " distinct index expressions, which may overlap across tasks",
                       std::move(off));
      }
      bool disjoint = false;
      for (const SigElem& e : sigs[*all.begin()].second)
        if (e.k != 0 && e.k != kAnySig) disjoint = true;
      if (!disjoint) {
        std::vector<Offender> off;
        if (!info.wAt.empty())
          off.push_back(offender(info.wAt.begin()->second, true, "task-uniform write index"));
        return mayRace("every task writes `" + rootName(root) +
                           "` at the same task-uniform indices",
                       std::move(off));
      }
    }
    if (anyUnknownRead && anyWrite) {
      std::vector<Offender> off;
      if (unknownReadAt.instr != ir::kNone)
        off.push_back(offender(unknownReadAt, false, "read through an unresolved reference"));
      return mayRace(
          "a read through an unresolved reference may alias a written array",
          std::move(off));
    }
    verdict.raceFree = true;
    verdict.reason.clear();
    verdict.offenders.clear();
    verdict.roots = rootRefs;
    return std::move(verdict);
  }
};

}  // namespace

Verdict analyzeTaskFunction(const ir::Module& m, ir::FuncId taskFn) {
  Analyzer an(m, taskFn);
  return an.run();
}

std::string describeRoot(const ir::Module& m, const ir::Function& taskFn, const RootRef& r) {
  std::string s;
  if (r.fromGlobal) {
    s = m.interner().str(m.global(r.index).name);
  } else if (r.index < taskFn.params.size()) {
    s = m.interner().str(taskFn.params[r.index].name);
  } else {
    s = "arg" + std::to_string(r.index);
  }
  for (uint32_t p : r.path) s += ".field" + std::to_string(p);
  return s;
}

}  // namespace cb::an::race
