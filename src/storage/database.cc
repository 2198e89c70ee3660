#include "storage/database.h"

#include <algorithm>

namespace exdl {

Relation& Database::GetOrCreate(PredId pred, uint32_t arity) {
  auto it = relations_.find(pred);
  if (it != relations_.end()) return it->second;
  return relations_.emplace(pred, Relation(arity)).first->second;
}

const Relation* Database::Find(PredId pred) const {
  auto it = relations_.find(pred);
  return it == relations_.end() ? nullptr : &it->second;
}

Relation* Database::FindMutable(PredId pred) {
  auto it = relations_.find(pred);
  return it == relations_.end() ? nullptr : &it->second;
}

Status Database::AddFact(const Atom& atom) {
  if (!atom.IsGround()) {
    return Status::InvalidArgument("AddFact requires a ground atom");
  }
  std::vector<Value> row;
  row.reserve(atom.args.size());
  for (const Term& t : atom.args) row.push_back(t.id());
  GetOrCreate(atom.pred, static_cast<uint32_t>(atom.args.size()))
      .Insert(row);
  return Status::Ok();
}

bool Database::AddTuple(PredId pred, std::span<const Value> row) {
  return GetOrCreate(pred, static_cast<uint32_t>(row.size())).Insert(row);
}

size_t Database::TotalTuples() const {
  size_t n = 0;
  for (const auto& [pred, rel] : relations_) n += rel.size();
  return n;
}

size_t Database::TotalArenaBytes() const {
  size_t n = 0;
  for (const auto& [pred, rel] : relations_) n += rel.arena_bytes();
  return n;
}

uint64_t Database::TotalRehashes() const {
  uint64_t n = 0;
  for (const auto& [pred, rel] : relations_) n += rel.rehash_count();
  return n;
}

size_t Database::Count(PredId pred) const {
  const Relation* rel = Find(pred);
  return rel == nullptr ? 0 : rel->size();
}

std::vector<Atom> Database::FactsOf(PredId pred) const {
  std::vector<Atom> out;
  const Relation* rel = Find(pred);
  if (rel == nullptr) return out;
  for (size_t i = 0; i < rel->size(); ++i) {
    std::span<const Value> row = rel->view().Scan(i);
    std::vector<Term> args;
    args.reserve(row.size());
    for (Value v : row) args.push_back(Term::Const(v));
    out.emplace_back(pred, std::move(args));
  }
  return out;
}

Database Database::Clone() const {
  // Relation's copy constructor shares the tuple payload (copy-on-write),
  // so this is a map copy — no tuples move.
  Database copy;
  copy.relations_ = relations_;
  return copy;
}

Watermarks Watermarks::Capture(const Database& db) {
  Watermarks marks;
  marks.entries_.reserve(db.relations().size());
  for (const auto& [pred, rel] : db.relations()) {
    marks.entries_.emplace_back(pred, static_cast<uint32_t>(rel.size()));
  }
  std::sort(marks.entries_.begin(), marks.entries_.end());
  return marks;
}

uint64_t Watermarks::RowsSince(const Database& db) const {
  uint64_t rows = 0;
  for (const auto& [pred, rel] : db.relations()) {
    const uint32_t mark = Of(pred);
    if (rel.size() > mark) rows += rel.size() - mark;
  }
  return rows;
}

}  // namespace exdl
