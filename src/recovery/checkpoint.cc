#include "recovery/checkpoint.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <deque>
#include <span>

#include "recovery/atomic_file.h"

namespace exdl::recovery {

namespace {

constexpr char kMagic[8] = {'E', 'X', 'D', 'L', 'S', 'N', 'A', 'P'};
constexpr size_t kHeaderSize = 8 + 4 + 4 + 8;  // magic, version, flags, len
constexpr size_t kTrailerSize = 4;             // CRC32C

// Section tags. Unknown tags are skipped on decode (a same-version writer
// may append new optional sections); the four below are mandatory.
constexpr uint32_t kTagContext = 1;
constexpr uint32_t kTagDatabase = 2;
constexpr uint32_t kTagCursor = 3;
constexpr uint32_t kTagFingerprint = 4;

// ---- little-endian writer --------------------------------------------

constexpr size_t kSectionHeaderSize = 4 + 8;  // tag, length

/// Appends little-endian fields to one buffer. A section is written in
/// place: BeginSection writes its tag and a zero length, EndSection
/// back-patches the length once the body is down.
class Writer {
 public:
  void Reserve(size_t more) { out_.reserve(out_.size() + more); }

  void U32(uint32_t v) {
    const char b[4] = {static_cast<char>(v), static_cast<char>(v >> 8),
                       static_cast<char>(v >> 16), static_cast<char>(v >> 24)};
    out_.append(b, sizeof b);
  }

  void U64(uint64_t v) {
    U32(static_cast<uint32_t>(v));
    U32(static_cast<uint32_t>(v >> 32));
  }

  void F64(double v) { U64(std::bit_cast<uint64_t>(v)); }

  void Bytes(std::string_view bytes) { out_.append(bytes); }

  /// A relation arena as consecutive u32s: one bulk copy where the host
  /// byte order already is the file's.
  void Values(std::span<const Value> values) {
    if constexpr (std::endian::native == std::endian::little) {
      out_.append(reinterpret_cast<const char*>(values.data()),
                  values.size_bytes());
    } else {
      for (Value v : values) U32(v);
    }
  }

  size_t BeginSection(uint32_t tag) {
    U32(tag);
    const size_t length_at = out_.size();
    U64(0);
    return length_at;
  }

  void EndSection(size_t length_at) {
    PatchU64(length_at, out_.size() - length_at - 8);
  }

  void PatchU64(size_t at, uint64_t v) {
    for (int i = 0; i < 8; ++i) out_[at + i] = static_cast<char>(v >> (8 * i));
  }

  size_t size() const { return out_.size(); }
  const std::string& bytes() const { return out_; }
  std::string Take() { return std::move(out_); }

 private:
  std::string out_;
};

/// Bounds-checked forward reader over a byte range. Every accessor sets
/// `ok` false (and returns 0/empty) on overrun instead of reading past the
/// end, so decoding can run to completion and fail once at the end.
struct Reader {
  const uint8_t* p;
  size_t n;
  size_t off = 0;
  bool ok = true;

  Reader(const void* data, size_t size)
      : p(static_cast<const uint8_t*>(data)), n(size) {}

  size_t remaining() const { return ok ? n - off : 0; }

  uint32_t U32() {
    if (!ok || n - off < 4) {
      ok = false;
      return 0;
    }
    uint32_t v = static_cast<uint32_t>(p[off]) |
                 (static_cast<uint32_t>(p[off + 1]) << 8) |
                 (static_cast<uint32_t>(p[off + 2]) << 16) |
                 (static_cast<uint32_t>(p[off + 3]) << 24);
    off += 4;
    return v;
  }

  uint64_t U64() {
    const uint64_t lo = U32();
    const uint64_t hi = U32();
    return lo | (hi << 32);
  }

  double F64() { return std::bit_cast<double>(U64()); }

  std::string_view Bytes(size_t len) {
    if (!ok || n - off < len) {
      ok = false;
      return {};
    }
    std::string_view v(reinterpret_cast<const char*>(p + off), len);
    off += len;
    return v;
  }

  void Skip(size_t len) { (void)Bytes(len); }
};

Status Corrupt(const std::string& what) {
  return Status::CorruptCheckpoint("corrupt snapshot: " + what);
}

// ---- section encoders -------------------------------------------------

/// Relations sorted by PredId: the unordered_map iteration order must not
/// leak into the bytes (two checkpoints of the same state must be
/// identical).
std::vector<std::pair<PredId, const Relation*>> SortedRelations(
    const Database& db) {
  std::vector<std::pair<PredId, const Relation*>> rels;
  rels.reserve(db.relations().size());
  for (const auto& [pred, rel] : db.relations()) rels.emplace_back(pred, &rel);
  std::sort(rels.begin(), rels.end());
  return rels;
}

/// Writes the context section from one consistent read of the interning
/// tables: the counts are taken once, under the same lock as the entries,
/// so a concurrent intern cannot make the section disagree with itself.
/// `more` is what the rest of the snapshot needs, reserved together with
/// this section so the whole blob lands in one allocation.
void PutContext(Writer& w, const Context& ctx, size_t more) {
  ctx.ReadTables([&](const std::deque<std::string>& symbols,
                     const std::deque<PredicateInfo>& preds) {
    size_t bytes = kSectionHeaderSize + 8 + 8;
    for (const std::string& name : symbols) bytes += 4 + name.size();
    for (const PredicateInfo& info : preds) {
      bytes += 12 + info.adornment.str().size();
    }
    w.Reserve(bytes + more);
    const size_t section = w.BeginSection(kTagContext);
    w.U64(symbols.size());
    for (const std::string& name : symbols) {
      w.U32(static_cast<uint32_t>(name.size()));
      w.Bytes(name);
    }
    w.U64(preds.size());
    for (const PredicateInfo& info : preds) {
      w.U32(info.name);
      w.U32(info.arity);
      w.U32(static_cast<uint32_t>(info.adornment.str().size()));
      w.Bytes(info.adornment.str());
    }
    w.EndSection(section);
  });
}

void PutDatabase(Writer& w,
                 std::span<const std::pair<PredId, const Relation*>> rels) {
  const size_t section = w.BeginSection(kTagDatabase);
  w.U64(rels.size());
  for (const auto& [pred, rel] : rels) {
    w.U32(pred);
    w.U32(rel->arity());
    w.U64(rel->size());
    w.Values(rel->view().Raw());
  }
  w.EndSection(section);
}

void PutCursor(Writer& w, const EvalCursor& cursor) {
  const size_t section = w.BeginSection(kTagCursor);
  const EvalStats& stats = cursor.stats;
  w.U32(cursor.stratum);
  w.U64(stats.rounds);
  w.U64(stats.rule_firings);
  w.U64(stats.tuples_inserted);
  w.U64(stats.duplicate_inserts);
  w.U64(stats.index_probes);
  w.U64(stats.rows_matched);
  w.U64(stats.rules_retired);
  w.F64(stats.eval_seconds);
  w.F64(stats.max_round_seconds);
  w.U64(cursor.delta.entries().size());
  for (const auto& [pred, lo] : cursor.delta.entries()) {
    w.U32(pred);
    w.U32(lo);
  }
  w.U64(cursor.retired_rules.size());
  for (uint32_t r : cursor.retired_rules) w.U32(r);
  w.EndSection(section);
}

// ---- section decoders -------------------------------------------------

Status DecodeContextSection(Reader r, Snapshot* snap) {
  const uint64_t num_symbols = r.U64();
  // Every symbol costs at least its 4-byte length prefix: a count larger
  // than that bound cannot be honest, so reject it before reserving.
  if (!r.ok || num_symbols > r.remaining() / 4) {
    return Corrupt("symbol table overruns section");
  }
  snap->symbols.reserve(num_symbols);
  for (uint64_t i = 0; i < num_symbols; ++i) {
    const uint32_t len = r.U32();
    std::string_view name = r.Bytes(len);
    if (!r.ok) return Corrupt("truncated symbol name");
    snap->symbols.emplace_back(name);
  }
  const uint64_t num_preds = r.U64();
  if (!r.ok || num_preds > r.remaining() / 12) {
    return Corrupt("predicate table overruns section");
  }
  snap->preds.reserve(num_preds);
  for (uint64_t i = 0; i < num_preds; ++i) {
    SnapshotPred pred;
    pred.name = r.U32();
    pred.arity = r.U32();
    const uint32_t alen = r.U32();
    std::string_view adornment = r.Bytes(alen);
    if (!r.ok) return Corrupt("truncated predicate entry");
    if (pred.name >= num_symbols) return Corrupt("predicate name id out of range");
    pred.adornment = std::string(adornment);
    if (!pred.adornment.empty()) {
      Result<Adornment> parsed = Adornment::Parse(pred.adornment);
      if (!parsed.ok()) return Corrupt("invalid adornment string");
    }
    snap->preds.push_back(std::move(pred));
  }
  if (r.remaining() != 0) return Corrupt("trailing bytes in context section");
  return Status::Ok();
}

Status DecodeDatabaseSection(Reader r, Snapshot* snap) {
  const uint64_t num_relations = r.U64();
  if (!r.ok || num_relations > r.remaining() / 16) {
    return Corrupt("relation table overruns section");
  }
  std::vector<Value> values;  // Reused across relations.
  for (uint64_t i = 0; i < num_relations; ++i) {
    const PredId pred = r.U32();
    const uint32_t arity = r.U32();
    const uint64_t num_rows = r.U64();
    if (!r.ok) return Corrupt("truncated relation header");
    if (pred >= snap->preds.size()) return Corrupt("relation predicate id out of range");
    if (arity != snap->preds[pred].arity) {
      return Corrupt("relation arity disagrees with predicate table");
    }
    if (snap->db.Find(pred) != nullptr) return Corrupt("duplicate relation entry");
    const uint64_t num_values = num_rows * arity;
    if (arity != 0 && num_values / arity != num_rows) {
      return Corrupt("relation row count overflows");
    }
    if (num_values > r.remaining() / 4) {
      return Corrupt("relation rows overrun section");
    }
    if (arity == 0 && num_rows > 1) {
      return Corrupt("0-ary relation with more than one row");
    }
    std::string_view bytes = r.Bytes(num_values * 4);
    if (!r.ok) return Corrupt("truncated relation rows");
    values.resize(num_values);
    if constexpr (std::endian::native == std::endian::little) {
      if (!bytes.empty()) std::memcpy(values.data(), bytes.data(), bytes.size());
    } else {
      Reader rows(bytes.data(), bytes.size());
      for (Value& value : values) value = rows.U32();
    }
    // One pass for the maximum, then one comparison: the same "every value
    // names an interned symbol" check, without a branch per value.
    Value max_value = 0;
    for (Value value : values) max_value = std::max(max_value, value);
    if (!values.empty() && max_value >= snap->symbols.size()) {
      return Corrupt("tuple value out of range");
    }
    Relation& rel = snap->db.GetOrCreate(pred, arity);
    if (!rel.LoadRows(values, num_rows)) {
      return Corrupt("duplicate tuple in relation");
    }
  }
  if (r.remaining() != 0) return Corrupt("trailing bytes in database section");
  return Status::Ok();
}

Status DecodeCursorSection(Reader r, Snapshot* snap) {
  EvalCursor& cursor = snap->cursor;
  EvalStats& stats = cursor.stats;
  cursor.stratum = r.U32();
  stats.rounds = r.U64();
  stats.rule_firings = r.U64();
  stats.tuples_inserted = r.U64();
  stats.duplicate_inserts = r.U64();
  stats.index_probes = r.U64();
  stats.rows_matched = r.U64();
  stats.rules_retired = r.U64();
  stats.eval_seconds = r.F64();
  stats.max_round_seconds = r.F64();
  const uint64_t num_delta = r.U64();
  if (!r.ok || num_delta > r.remaining() / 8) {
    return Corrupt("delta watermarks overrun section");
  }
  for (uint64_t i = 0; i < num_delta; ++i) {
    const PredId pred = r.U32();
    const uint32_t lo = r.U32();
    if (!r.ok) return Corrupt("truncated delta watermark");
    if (pred >= snap->preds.size()) return Corrupt("watermark predicate id out of range");
    const std::vector<Watermarks::Entry>& marks = cursor.delta.entries();
    if (!marks.empty() && pred <= marks.back().first) {
      return Corrupt("delta watermarks not strictly sorted");
    }
    const Relation* rel = snap->db.Find(pred);
    const uint32_t size = rel == nullptr ? 0 : static_cast<uint32_t>(rel->size());
    if (lo > size) return Corrupt("delta watermark past relation size");
    cursor.delta.Set(pred, lo);
  }
  const uint64_t num_retired = r.U64();
  if (!r.ok || num_retired > r.remaining() / 4) {
    return Corrupt("retired rules overrun section");
  }
  cursor.retired_rules.reserve(num_retired);
  for (uint64_t i = 0; i < num_retired; ++i) {
    const uint32_t rule = r.U32();
    if (!r.ok) return Corrupt("truncated retired rule list");
    if (!cursor.retired_rules.empty() && rule <= cursor.retired_rules.back()) {
      return Corrupt("retired rules not strictly sorted");
    }
    cursor.retired_rules.push_back(rule);
  }
  if (stats.rules_retired != cursor.retired_rules.size()) {
    return Corrupt("retired-rule count disagrees with list");
  }
  if (r.remaining() != 0) return Corrupt("trailing bytes in cursor section");
  return Status::Ok();
}

}  // namespace

std::string EncodeSnapshot(const Context& ctx, const Database& db,
                           const EvalCursor& cursor, uint64_t fingerprint) {
  const std::vector<std::pair<PredId, const Relation*>> rels =
      SortedRelations(db);
  // Everything after the context section, for the one up-front reserve.
  size_t more = kSectionHeaderSize + 8;  // database section, relation count
  for (const auto& [pred, rel] : rels) {
    more += 16 + rel->view().Raw().size_bytes();
  }
  more += kSectionHeaderSize + 128 + 8 * cursor.delta.entries().size() +
          4 * cursor.retired_rules.size();  // cursor (fixed part < 128)
  more += kSectionHeaderSize + 8 + kTrailerSize;  // fingerprint, CRC

  Writer w;
  w.Bytes(std::string_view(kMagic, sizeof(kMagic)));
  w.U32(kSnapshotVersion);
  w.U32(0);  // flags
  w.U64(0);  // payload length, patched below
  PutContext(w, ctx, more);
  PutDatabase(w, rels);
  PutCursor(w, cursor);
  const size_t fp = w.BeginSection(kTagFingerprint);
  w.U64(fingerprint);
  w.EndSection(fp);
  w.PatchU64(kHeaderSize - 8, w.size() - kHeaderSize);
  w.U32(Crc32c(w.bytes().data(), w.size()));
  return w.Take();
}

Result<Snapshot> DecodeSnapshot(std::string_view bytes) {
  if (bytes.size() < kHeaderSize + kTrailerSize) {
    return Corrupt("shorter than header + checksum");
  }
  if (std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0) {
    return Corrupt("bad magic");
  }
  Reader header(bytes.data() + sizeof(kMagic),
                kHeaderSize - sizeof(kMagic));
  const uint32_t version = header.U32();
  const uint32_t flags = header.U32();
  const uint64_t payload_len = header.U64();
  if (version != kSnapshotVersion) {
    return Corrupt("unsupported version " + std::to_string(version));
  }
  if (flags != 0) return Corrupt("unknown flags");
  if (payload_len != bytes.size() - kHeaderSize - kTrailerSize) {
    return Corrupt("payload length disagrees with file size");
  }
  const size_t checked = kHeaderSize + payload_len;
  Reader trailer(bytes.data() + checked, kTrailerSize);
  const uint32_t stored_crc = trailer.U32();
  const uint32_t actual_crc = Crc32c(bytes.data(), checked);
  if (stored_crc != actual_crc) return Corrupt("checksum mismatch");

  Snapshot snap;
  bool have[5] = {};
  Reader payload(bytes.data() + kHeaderSize, payload_len);
  while (payload.remaining() > 0) {
    const uint32_t tag = payload.U32();
    const uint64_t len = payload.U64();
    std::string_view body = payload.Bytes(len);
    if (!payload.ok) return Corrupt("truncated section");
    if (tag >= 1 && tag <= 4) {
      if (have[tag]) return Corrupt("duplicate section");
      have[tag] = true;
    }
    Reader r(body.data(), body.size());
    switch (tag) {
      case kTagContext:
        EXDL_RETURN_IF_ERROR(DecodeContextSection(r, &snap));
        break;
      case kTagDatabase:
        if (!have[kTagContext]) return Corrupt("database before context");
        EXDL_RETURN_IF_ERROR(DecodeDatabaseSection(r, &snap));
        break;
      case kTagCursor:
        if (!have[kTagContext] || !have[kTagDatabase]) {
          return Corrupt("cursor before context/database");
        }
        EXDL_RETURN_IF_ERROR(DecodeCursorSection(r, &snap));
        break;
      case kTagFingerprint:
        if (r.remaining() != 8) return Corrupt("bad fingerprint section");
        snap.program_fingerprint = r.U64();
        break;
      default:
        break;  // unknown optional section: skip (forward compat)
    }
  }
  for (uint32_t tag = 1; tag <= 4; ++tag) {
    if (!have[tag]) {
      return Corrupt("missing section " + std::to_string(tag));
    }
  }
  return snap;
}

Result<Snapshot> ReadSnapshotFile(const std::string& path) {
  EXDL_ASSIGN_OR_RETURN(std::string bytes, ReadFileToString(path));
  Result<Snapshot> snap = DecodeSnapshot(bytes);
  if (!snap.ok()) {
    return Status(snap.status().code(),
                  snap.status().message() + " (" + path + ")");
  }
  return snap;
}

std::string Checkpointer::PathIn(const std::string& directory) {
  return directory + "/checkpoint.exdl";
}

Checkpointer::Checkpointer(std::string directory, uint64_t program_fingerprint)
    : path_(PathIn(directory)), fingerprint_(program_fingerprint) {}

Result<uint64_t> Checkpointer::Write(const Context& ctx, const Database& db,
                                     const EvalCursor& cursor) {
  std::string bytes = EncodeSnapshot(ctx, db, cursor, fingerprint_);
  EXDL_RETURN_IF_ERROR(AtomicWriteFile(path_, bytes, WriteFaults::kSnapshot));
  return static_cast<uint64_t>(bytes.size());
}

}  // namespace exdl::recovery
