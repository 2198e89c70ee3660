#include "ast/context.h"

#include <cassert>
#include <mutex>

namespace exdl {

SymbolId Context::InternSymbolLocked(std::string_view name) {
  auto it = symbol_ids_.find(name);
  if (it != symbol_ids_.end()) return it->second;
  SymbolId id = static_cast<SymbolId>(symbols_.size());
  symbols_.emplace_back(name);
  // Key the map on a view into the deque-stored string: deque growth never
  // moves existing elements, so the view stays valid.
  symbol_ids_.emplace(std::string_view(symbols_.back()), id);
  return id;
}

SymbolId Context::InternSymbol(std::string_view name) {
  std::unique_lock lock(mu_);
  return InternSymbolLocked(name);
}

std::optional<SymbolId> Context::FindSymbol(std::string_view name) const {
  std::shared_lock lock(mu_);
  auto it = symbol_ids_.find(name);
  if (it == symbol_ids_.end()) return std::nullopt;
  return it->second;
}

const std::string& Context::SymbolName(SymbolId id) const {
  std::shared_lock lock(mu_);
  assert(id < symbols_.size());
  return symbols_[id];
}

size_t Context::NumSymbols() const {
  std::shared_lock lock(mu_);
  return symbols_.size();
}

PredId Context::InternPredicateLocked(SymbolId name, uint32_t arity,
                                      const Adornment& adornment) {
  PredKey key{name, arity, adornment.str()};
  auto it = pred_ids_.find(key);
  if (it != pred_ids_.end()) return it->second;
  PredId id = static_cast<PredId>(preds_.size());
  preds_.push_back(PredicateInfo{name, arity, adornment});
  pred_ids_.emplace(std::move(key), id);
  return id;
}

PredId Context::InternPredicate(SymbolId name, uint32_t arity,
                                const Adornment& adornment) {
  std::unique_lock lock(mu_);
  return InternPredicateLocked(name, arity, adornment);
}

PredId Context::InternPredicate(std::string_view name, uint32_t arity,
                                const Adornment& adornment) {
  std::unique_lock lock(mu_);
  return InternPredicateLocked(InternSymbolLocked(name), arity, adornment);
}

std::optional<PredId> Context::FindPredicate(SymbolId name, uint32_t arity,
                                             const Adornment& adornment) const {
  std::shared_lock lock(mu_);
  auto it = pred_ids_.find(PredKey{name, arity, adornment.str()});
  if (it == pred_ids_.end()) return std::nullopt;
  return it->second;
}

const PredicateInfo& Context::predicate(PredId id) const {
  std::shared_lock lock(mu_);
  assert(id < preds_.size());
  return preds_[id];
}

size_t Context::NumPredicates() const {
  std::shared_lock lock(mu_);
  return preds_.size();
}

bool Context::MayHoldBaseFacts(PredId id) const {
  std::shared_lock lock(mu_);
  assert(id < preds_.size());
  const PredicateInfo& info = preds_[id];
  return info.adornment.empty() &&
         symbols_[info.name].find('$') == std::string::npos;
}

std::string Context::PredicateDisplayName(PredId id) const {
  std::shared_lock lock(mu_);
  assert(id < preds_.size());
  const PredicateInfo& info = preds_[id];
  assert(info.name < symbols_.size());
  std::string out = symbols_[info.name];
  if (!info.adornment.empty()) {
    out += "@";
    out += info.adornment.str();
  }
  if (info.IsProjected()) {
    out += "/";
    out += std::to_string(info.arity);
  }
  return out;
}

}  // namespace exdl
