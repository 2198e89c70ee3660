// Canonical text rendering of query answers.
//
// Every surface that prints answers — `exdlc run`, the batch service mode,
// and the exdld daemon shipping results over the wire — renders through
// this one function, so the bytes a client receives from a socket are
// identical to what an in-process Session run would have printed for the
// same submission sequence: one row per line, values joined by a single
// tab, each symbol spelled by Context::SymbolName.

#ifndef EXDL_SERVICE_ANSWER_TEXT_H_
#define EXDL_SERVICE_ANSWER_TEXT_H_

#include <string>
#include <vector>

#include "ast/context.h"
#include "storage/relation.h"

namespace exdl {

std::string RenderAnswerRows(const Context& ctx,
                             const std::vector<std::vector<Value>>& answers);

}  // namespace exdl

#endif  // EXDL_SERVICE_ANSWER_TEXT_H_
