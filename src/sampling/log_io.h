// Run-log (de)serialization — the "raw sample data" files the paper's
// monitoring process writes to disk between step 2 and the post-mortem
// step 3 (6-20 MB per run at the paper's scale).
//
// Two formats, auto-detected on load:
//   - Text ("cblog 6 ..."): the portable line-based fallback, human-readable
//     and diff-friendly.
//   - Binary (magic 0x89 'C' 'B' 'L'): a versioned compact encoding —
//     LEB128 varints throughout, zigzag-delta compression for sample
//     timestamps and for the func/instr pairs within each stack, records
//     sorted by tag/site key so the bytes are deterministic. Typically
//     several times smaller than the text form.
// Both round-trip losslessly and interchangeably (text -> binary -> text is
// the identity on the parsed structure).
#pragma once

#include <string>

#include "sampling/sample.h"

namespace cb::sampling {

enum class RunLogFormat {
  Text,    // "cblog 6 ..." line format (portable fallback)
  Binary,  // compact varint/delta format (see serializeRunLogBinary)
};

/// Serializes a run log in the line-based text format. The loader accepts
/// exactly this grammar, for versions 1 to 6 (older versions lack the
/// fields marked v2+ ... v6; they load with those fields defaulted):
///
///   log     := header '\n' (record '\n')* [record]
///   header  := "cblog" SP version SP threshold SP streams SP totalCycles
///              [SP commGets SP commPuts SP commOnForks]              v2+
///              [SP commAggGets SP commAggPuts SP commAggFlushes]     v3+
///              [SP memStall SP netStall SP contention]               v4+
///              [SP raceFallbackRegions]                              v5+
///   record  := sample | spawn | alloc | matrix | span
///   sample  := "S" SP stream SP tag SP cycle SP runtimeFrameKind
///              [SP accessKind]                                       v2+
///              [SP srcLocale SP dstLocale]                           v3+
///              SP n (SP func ":" instr){n}
///   spawn   := "W" SP tag SP parentTag SP taskFn SP spawnInstr
///              SP n (SP func ":" instr){n}
///   alloc   := "A" SP siteKey SP bytes
///   matrix  := "M" SP srcLocale SP dstLocale SP count                v3+
///   span    := "T" SP tag SP chunk SP stream SP startCycle SP endCycle
///              SP n (SP site ":" raw ":" s125 ":" s2 ":" s4){n}      v6+
///
/// SP is exactly one space. Every field is decimal digits that fit the
/// field's type; srcLocale and dstLocale are signed 32-bit and may carry a
/// leading '-', every other field is unsigned and may not. accessKind is at
/// most 3, runtimeFrameKind at most 255, endCycle >= startCycle, and a
/// frame or site count larger than the bytes left on its line is rejected.
/// Empty lines, other whitespace, unknown record kinds and trailing tokens
/// make the whole log malformed.
std::string serializeRunLog(const RunLog& log);

/// Serializes a run log in the compact binary format (version-1/2 files
/// still deserialize with the newer fields defaulted):
///   magic(4) = 89 43 42 4C ("\x89CBL"), version(1) = 0x03
///   varint threshold, streams, totalCycles, commGets, commPuts, commOnForks,
///   varint commAggGets, commAggPuts, commAggFlushes
///   varint nSamples, then per sample:
///     varint stream, taskTag, zigzag(atCycle - prevAtCycle),
///     varint runtimeFrameKind, varint accessKind,
///     [varint srcLocale, dstLocale — only when accessKind is remote],
///     varint stackLen,
///     per frame: zigzag(func - prevFunc), zigzag(instr - prevInstr)
///     (prev func/instr reset to 0 at each stack; prevAtCycle spans samples)
///   varint nSpawns (sorted by tag), per record:
///     varint tag - prevTag, parentTag, taskFn, spawnInstr, stack as above
///   varint nAllocSites (sorted by key): varint key - prevKey, bytes
///   varint nMatrixCells (sorted by pair key): varint key - prevKey, count
///   varint nTaskSpans (version 6, canonical emission order), per span:
///     varint tag, chunk, stream, zigzag(start - prevStart), end - start,
///     varint nSites (sorted by site), per site:
///       zigzag(site - prevSite), raw, raw - s125, raw - s2, raw - s4
std::string serializeRunLogBinary(const RunLog& log);

/// Parses a serialized log in EITHER format (auto-detected from the leading
/// magic). Returns false (leaving `out` unspecified) on malformed input,
/// truncation, trailing garbage, or an unsupported format version.
bool deserializeRunLog(const std::string& data, RunLog& out);

/// File convenience wrappers; return false on I/O or format errors.
/// `loadRunLog` auto-detects the on-disk format.
bool saveRunLog(const RunLog& log, const std::string& path,
                RunLogFormat format = RunLogFormat::Text);
bool loadRunLog(const std::string& path, RunLog& out);

}  // namespace cb::sampling
