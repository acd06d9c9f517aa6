#include "dsl/domain.h"

#include "text/numbers.h"
#include "text/padding.h"
#include "text/streams.h"
#include "text/strings.h"

namespace kq::dsl {

TableLine parse_table_line(std::string_view line, char d,
                           bool require_padding) {
  text::Unpadded unpadded = text::del_pad(line);
  auto split = text::split_first(unpadded.rest, d);
  if (!split.tail.has_value()) return {};
  if (require_padding && unpadded.pad == 0 &&
      split.head.size() < kCountFieldWidth)
    return {};
  TableLine out;
  out.ok = true;
  out.pad = unpadded.pad;
  out.head = split.head;
  out.tail = *split.tail;
  return out;
}

bool legal_rec(const Node& b, std::string_view y) {
  switch (b.op) {
    case Op::kAdd:
      return text::is_all_digits(y);
    case Op::kConcat:
    case Op::kFirst:
    case Op::kSecond:
      return true;
    case Op::kFront:
      return !y.empty() && y.front() == b.delim &&
             legal_rec(*b.child1, y.substr(1));
    case Op::kBack:
      return !y.empty() && y.back() == b.delim &&
             legal_rec(*b.child1, y.substr(0, y.size() - 1));
    case Op::kFuse: {
      auto parts = text::split(y, b.delim);
      if (parts.size() < 2) return false;
      if (parts.front().empty() || parts.back().empty()) return false;
      for (std::string_view p : parts)
        if (!legal_rec(*b.child1, p)) return false;
      return true;
    }
    default:
      return false;  // not a RecOp
  }
}

namespace {

bool legal_struct(const Node& s, std::string_view y) {
  if (y == "\n") return true;
  if (!text::is_stream(y)) return false;
  auto ls = text::lines(y);
  switch (s.op) {
    case Op::kStitch:
      for (std::string_view l : ls)
        if (!legal_rec(*s.child1, l)) return false;
      return true;
    case Op::kStitch2:
      for (std::string_view l : ls) {
        TableLine t = parse_table_line(l, s.delim, /*require_padding=*/true);
        if (!t.ok) return false;
        if (!legal_rec(*s.child1, t.head)) return false;
        if (!legal_rec(*s.child2, t.tail)) return false;
      }
      return true;
    case Op::kOffset:
      for (std::string_view l : ls) {
        if (l.empty()) continue;  // nil lines are allowed
        TableLine t = parse_table_line(l, s.delim, /*require_padding=*/false);
        if (!t.ok) return false;
        if (!legal_rec(*s.child1, t.head)) return false;
      }
      return true;
    default:
      return false;
  }
}

}  // namespace

bool legal(const Combiner& g, std::string_view y) {
  switch (op_class(g.node->op)) {
    case OpClass::kRec:
      return legal_rec(*g.node, y);
    case OpClass::kStruct:
      return legal_struct(*g.node, y);
    case OpClass::kRun:
      if (g.node->op == Op::kRerun) return true;
      // merge: legal inputs are streams already sorted under the flags.
      if (!g.merge_spec) return false;
      if (y.empty()) return true;
      if (!text::is_stream(y)) return false;
      return g.merge_spec->is_sorted_stream(y);
  }
  return false;
}

}  // namespace kq::dsl
