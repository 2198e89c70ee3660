// Canonical text rendering of query answers.
//
// Every surface that prints answers — `exdlc run`, the batch service mode,
// and the exdld daemon shipping results over the wire — renders through
// this one function, so the bytes a client receives from a socket are
// identical to what an in-process Session run would have printed for the
// same submission sequence: one row per line, values joined by a single
// tab, each symbol spelled by its Context name. A render takes one
// Context::ReadTables lock, not one per symbol, holds it only to look the
// names up, and sizes its output once.

#ifndef EXDL_SERVICE_ANSWER_TEXT_H_
#define EXDL_SERVICE_ANSWER_TEXT_H_

#include <string>

#include "ast/context.h"
#include "eval/answer_rows.h"

namespace exdl {

std::string RenderAnswerRows(const Context& ctx, const AnswerRows& answers);

}  // namespace exdl

#endif  // EXDL_SERVICE_ANSWER_TEXT_H_
