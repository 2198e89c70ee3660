#include "grammar/equivalence.h"

#include <algorithm>
#include <map>
#include <set>

#include "grammar/chain.h"
#include "grammar/dfa.h"
#include "grammar/nfa.h"
#include "grammar/regularity.h"
#include "util/string_util.h"

namespace exdl {
namespace {

/// Maps a grammar's terminal ids into a shared union alphabet (by name).
std::vector<int> TerminalMap(const Cfg& grammar,
                             std::map<std::string, uint32_t>* alphabet) {
  std::vector<int> out(grammar.NumTerminals());
  for (uint32_t t = 0; t < grammar.NumTerminals(); ++t) {
    auto [it, inserted] = alphabet->emplace(
        grammar.TerminalName(t), static_cast<uint32_t>(alphabet->size()));
    out[t] = static_cast<int>(it->second);
  }
  return out;
}

Nfa RemapSymbols(const Nfa& nfa, const std::vector<int>& map) {
  Nfa out = nfa;
  for (std::vector<Nfa::Edge>& edges : out.states) {
    for (Nfa::Edge& e : edges) {
      if (e.symbol != kEpsilon) e.symbol = map[static_cast<size_t>(e.symbol)];
    }
  }
  return out;
}

/// Renders one (extended) word with symbol names.
std::string RenderWord(const std::vector<std::string>& word) {
  return word.empty() ? "ε" : Join(word, " ");
}

/// First element of the symmetric difference, if any.
std::optional<std::vector<std::string>> FirstDifference(
    const std::set<std::vector<std::string>>& a,
    const std::set<std::vector<std::string>>& b) {
  for (const auto& w : a) {
    if (b.find(w) == b.end()) return w;
  }
  for (const auto& w : b) {
    if (a.find(w) == a.end()) return w;
  }
  return std::nullopt;
}

}  // namespace

Result<bool> ChainQueryEquivalent(const Program& p1, const Program& p2) {
  EXDL_ASSIGN_OR_RETURN(Cfg g1, ChainProgramToGrammar(p1));
  EXDL_ASSIGN_OR_RETURN(Cfg g2, ChainProgramToGrammar(p2));
  if (!IsStronglyRegular(g1) || !IsStronglyRegular(g2)) {
    return Status::FailedPrecondition(
        "exact chain query equivalence needs strongly regular grammars "
        "(use the bounded refutation otherwise)");
  }
  std::map<std::string, uint32_t> alphabet;
  std::vector<int> map1 = TerminalMap(g1, &alphabet);
  std::vector<int> map2 = TerminalMap(g2, &alphabet);
  EXDL_ASSIGN_OR_RETURN(Nfa n1, StronglyRegularToNfa(g1, g1.start()));
  EXDL_ASSIGN_OR_RETURN(Nfa n2, StronglyRegularToNfa(g2, g2.start()));
  uint32_t size = static_cast<uint32_t>(alphabet.size());
  Dfa d1 = Dfa::FromNfa(RemapSymbols(n1, map1), size);
  Dfa d2 = Dfa::FromNfa(RemapSymbols(n2, map2), size);
  return Dfa::Equivalent(d1, d2);
}

Result<BoundedComparison> BoundedChainQueryEquivalence(
    const Program& p1, const Program& p2, const LanguageOptions& options) {
  EXDL_ASSIGN_OR_RETURN(Cfg g1, ChainProgramToGrammar(p1));
  EXDL_ASSIGN_OR_RETURN(Cfg g2, ChainProgramToGrammar(p2));
  auto named = [&](const Cfg& g,
                   const std::set<std::vector<uint32_t>>& words) {
    std::set<std::vector<std::string>> out;
    for (const auto& w : words) {
      std::vector<std::string> names;
      names.reserve(w.size());
      for (uint32_t t : w) names.push_back(g.TerminalName(t));
      out.insert(std::move(names));
    }
    return out;
  };
  EXDL_ASSIGN_OR_RETURN(auto w1, EnumerateLanguage(g1, g1.start(), options));
  EXDL_ASSIGN_OR_RETURN(auto w2, EnumerateLanguage(g2, g2.start(), options));
  BoundedComparison result;
  result.bound = options.max_length;
  std::optional<std::vector<std::string>> witness =
      FirstDifference(named(g1, w1), named(g2, w2));
  if (witness) {
    result.separated = true;
    result.witness = RenderWord(*witness);
  }
  return result;
}

Result<BoundedComparison> BoundedChainUniformQueryEquivalence(
    const Program& p1, const Program& p2, const LanguageOptions& options) {
  EXDL_ASSIGN_OR_RETURN(Cfg g1, ChainProgramToGrammar(p1));
  EXDL_ASSIGN_OR_RETURN(Cfg g2, ChainProgramToGrammar(p2));
  auto named = [&](const Cfg& g, const std::set<std::vector<GSym>>& forms) {
    std::set<std::vector<std::string>> out;
    for (const auto& form : forms) {
      std::vector<std::string> names;
      names.reserve(form.size());
      for (const GSym& s : form) {
        names.push_back(s.terminal ? g.TerminalName(s.id)
                                   : g.NonterminalName(s.id));
      }
      out.insert(std::move(names));
    }
    return out;
  };
  EXDL_ASSIGN_OR_RETURN(auto f1,
                        EnumerateExtendedLanguage(g1, g1.start(), options));
  EXDL_ASSIGN_OR_RETURN(auto f2,
                        EnumerateExtendedLanguage(g2, g2.start(), options));
  BoundedComparison result;
  result.bound = options.max_length;
  // The start symbols themselves may differ by name (they are the two
  // query predicates); compare the forms with each start rendered as "?".
  auto canonical = [&](std::set<std::vector<std::string>> forms,
                       const std::string& start_name) {
    std::set<std::vector<std::string>> out;
    for (std::vector<std::string> f : forms) {
      for (std::string& s : f) {
        if (s == start_name) s.assign(1, '?');
      }
      out.insert(std::move(f));
    }
    return out;
  };
  std::optional<std::vector<std::string>> witness = FirstDifference(
      canonical(named(g1, f1), g1.NonterminalName(g1.start())),
      canonical(named(g2, f2), g2.NonterminalName(g2.start())));
  if (witness) {
    result.separated = true;
    result.witness = RenderWord(*witness);
  }
  return result;
}

}  // namespace exdl

namespace exdl {
namespace {

/// Shared driver for the per-nonterminal bounded comparisons of
/// Lemma 4.1(1) and 4.1(3).
Result<BoundedComparison> PerNonterminalComparison(
    const Program& p1, const Program& p2, const LanguageOptions& options,
    bool extended) {
  EXDL_ASSIGN_OR_RETURN(Cfg g1, ChainProgramToGrammar(p1));
  EXDL_ASSIGN_OR_RETURN(Cfg g2, ChainProgramToGrammar(p2));
  BoundedComparison result;
  result.bound = options.max_length;
  // Nonterminal vocabularies must agree.
  for (uint32_t n = 0; n < g1.NumNonterminals(); ++n) {
    if (!g2.FindNonterminal(g1.NonterminalName(n))) {
      result.separated = true;
      result.witness = "nonterminal only on one side: " +
                       g1.NonterminalName(n);
      return result;
    }
  }
  for (uint32_t n = 0; n < g2.NumNonterminals(); ++n) {
    if (!g1.FindNonterminal(g2.NonterminalName(n))) {
      result.separated = true;
      result.witness = "nonterminal only on one side: " +
                       g2.NonterminalName(n);
      return result;
    }
  }
  auto render = [&](const Cfg& g, const std::vector<GSym>& form) {
    std::vector<std::string> names;
    for (const GSym& s : form) {
      names.push_back(s.terminal ? g.TerminalName(s.id)
                                 : g.NonterminalName(s.id));
    }
    return names;
  };
  for (uint32_t n = 0; n < g1.NumNonterminals(); ++n) {
    uint32_t m = *g2.FindNonterminal(g1.NonterminalName(n));
    std::set<std::vector<std::string>> w1;
    std::set<std::vector<std::string>> w2;
    if (extended) {
      EXDL_ASSIGN_OR_RETURN(auto f1,
                            EnumerateExtendedLanguage(g1, n, options));
      EXDL_ASSIGN_OR_RETURN(auto f2,
                            EnumerateExtendedLanguage(g2, m, options));
      for (const auto& f : f1) w1.insert(render(g1, f));
      for (const auto& f : f2) w2.insert(render(g2, f));
    } else {
      EXDL_ASSIGN_OR_RETURN(auto f1, EnumerateLanguage(g1, n, options));
      EXDL_ASSIGN_OR_RETURN(auto f2, EnumerateLanguage(g2, m, options));
      for (const auto& f : f1) {
        std::vector<std::string> names;
        for (uint32_t t : f) names.push_back(g1.TerminalName(t));
        w1.insert(std::move(names));
      }
      for (const auto& f : f2) {
        std::vector<std::string> names;
        for (uint32_t t : f) names.push_back(g2.TerminalName(t));
        w2.insert(std::move(names));
      }
    }
    std::optional<std::vector<std::string>> witness =
        FirstDifference(w1, w2);
    if (witness) {
      result.separated = true;
      result.witness =
          g1.NonterminalName(n) + ": " + RenderWord(*witness);
      return result;
    }
  }
  return result;
}

}  // namespace

Result<BoundedComparison> BoundedChainDbEquivalence(
    const Program& p1, const Program& p2, const LanguageOptions& options) {
  return PerNonterminalComparison(p1, p2, options, /*extended=*/false);
}

Result<BoundedComparison> BoundedChainUniformEquivalence(
    const Program& p1, const Program& p2, const LanguageOptions& options) {
  return PerNonterminalComparison(p1, p2, options, /*extended=*/true);
}

}  // namespace exdl
