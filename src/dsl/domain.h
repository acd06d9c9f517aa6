// Legal domains L(g) of Definition B.1. A combiner is only defined on
// operands in its domain; plausibility (Definition 3.9) requires every
// observation to fall inside the domain *and* evaluate to the serial
// output, so domain checks are the first elimination filter.
//
// Two documented deviations from the appendix text (see DESIGN.md §6):
//  * stitch2 requires at least one padding character per line (the
//    `uniq -c` table shape the operator models);
//  * offset accepts zero padding (the `wc -l FILE` shape it models).
#pragma once

#include <string_view>

#include "dsl/ast.h"

namespace kq::dsl {

// True iff `y` ∈ L(b) for a RecOp subtree `b`.
bool legal_rec(const Node& b, std::string_view y);

// True iff `y` ∈ L(g) for any combiner node (RecOp, StructOp, or RunOp;
// `merge_spec` supplies the comparator for kMerge).
bool legal(const Combiner& g, std::string_view y);

// A line of the form  pad ++ head ++ d ++ tail  with head ∈ L(b1) and
// d ∉ head; used by stitch2/offset legality and evaluation.
struct TableLine {
  bool ok = false;
  std::size_t pad = 0;          // columns of padding before head
  std::string_view head;
  std::string_view tail;
};
// `require_padding` asks for the right-aligned count column of GNU
// `uniq -c` ("%7lu "): a line must be padded, unless its head alone fills
// kCountFieldWidth columns (a count of 10^6 or more prints unpadded).
inline constexpr std::size_t kCountFieldWidth = 7;
TableLine parse_table_line(std::string_view line, char d,
                           bool require_padding);

}  // namespace kq::dsl
