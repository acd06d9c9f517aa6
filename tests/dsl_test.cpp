// Tests for the combiner DSL: sizes, printing, legal domains, the big-step
// semantics of every operator (Figure 6), candidate enumeration (including
// the paper's exact space sizes), and k-way generalization.

#include <gtest/gtest.h>

#include "dsl/domain.h"
#include "dsl/enumerate.h"
#include "dsl/eval.h"
#include "dsl/kway.h"
#include "unixcmd/registry.h"

namespace kq::dsl {
namespace {

std::optional<std::string> ev(const Combiner& g, std::string_view y1,
                              std::string_view y2) {
  return eval(g, y1, y2);
}

// ------------------------------------------------------------- size -----

TEST(Size, MatchesPaperExamples) {
  // Example 2 of the appendix: |add| = 3, |fbfa| = 6, |saf| = 5.
  EXPECT_EQ(size(combiner_add()), 3);
  Combiner fbfa{make_unary(Op::kFront, ' ',
                           make_unary(Op::kBack, ',',
                                      make_unary(Op::kFuse, '\t',
                                                 make_leaf(Op::kAdd)))),
                false, nullptr, ""};
  EXPECT_EQ(size(fbfa), 6);
  EXPECT_EQ(size(combiner_stitch2_add_first(' ')), 5);
}

TEST(Size, OtherRepresentatives) {
  EXPECT_EQ(size(combiner_concat()), 3);
  EXPECT_EQ(size(combiner_back_add('\n')), 4);
  EXPECT_EQ(size(combiner_stitch_first()), 4);
  EXPECT_EQ(size(combiner_offset_add(' ')), 4);
  EXPECT_EQ(size(combiner_rerun()), 3);
}

// ------------------------------------------------------------ printing --

TEST(Print, Table10Style) {
  EXPECT_EQ(to_string(combiner_concat()), "(concat a b)");
  EXPECT_EQ(to_string(swapped(combiner_concat())), "(concat b a)");
  EXPECT_EQ(to_string(combiner_back_add('\n')), "((back '\\n' add) a b)");
  EXPECT_EQ(to_string(combiner_stitch2_add_first(' ')),
            "((stitch2 ' ' add first) a b)");
  EXPECT_EQ(to_string(combiner_merge("-rn")), "(merge('-rn') a b)");
  EXPECT_EQ(to_string(combiner_rerun()), "(rerun a b)");
}

TEST(Print, Classification) {
  EXPECT_EQ(combiner_concat().cls(), OpClass::kRec);
  EXPECT_EQ(combiner_stitch_first().cls(), OpClass::kStruct);
  EXPECT_EQ(combiner_merge("").cls(), OpClass::kRun);
}

// -------------------------------------------------------------- domains --

TEST(Domain, Add) {
  EXPECT_TRUE(legal(combiner_add(), "042"));
  EXPECT_FALSE(legal(combiner_add(), ""));
  EXPECT_FALSE(legal(combiner_add(), "42\n"));
}

TEST(Domain, BackAdd) {
  EXPECT_TRUE(legal(combiner_back_add('\n'), "42\n"));
  EXPECT_FALSE(legal(combiner_back_add('\n'), "4\n2\n"));
  EXPECT_FALSE(legal(combiner_back_add('\n'), "42"));
}

TEST(Domain, Fuse) {
  Combiner fa = combiner_fuse_add(' ');
  EXPECT_TRUE(legal(fa, "1 2 3"));
  EXPECT_FALSE(legal(fa, "123"));     // k must be >= 2
  EXPECT_FALSE(legal(fa, " 1 2"));    // first element empty
  EXPECT_FALSE(legal(fa, "1 2 "));    // last element empty
  EXPECT_FALSE(legal(fa, "1 x"));     // element outside L(add)
}

TEST(Domain, Stitch2RequiresPaddedTable) {
  Combiner saf = combiner_stitch2_add_first(' ');
  EXPECT_TRUE(legal(saf, "      2 apple\n      1 pear\n"));
  EXPECT_FALSE(legal(saf, "2 apple\n"));   // no padding
  // A count of 10^6 or more fills GNU's 7-column field: no padding left.
  EXPECT_TRUE(legal(saf, "1000000 a\n"));
  EXPECT_FALSE(legal(saf, "999999 a\n"));  // six digits still pad
  EXPECT_FALSE(legal(saf, "      x apple\n"));  // head not numeric
  EXPECT_TRUE(legal(saf, "\n"));
}

TEST(Domain, OffsetAcceptsUnpaddedLines) {
  Combiner oa = combiner_offset_add(' ');
  EXPECT_TRUE(legal(oa, "3 file1\n10 file2\n"));
  EXPECT_TRUE(legal(oa, "3 a\n\n4 b\n"));  // nil lines allowed
  EXPECT_FALSE(legal(oa, "x file\n"));
}

TEST(Domain, MergeRequiresSortedInput) {
  Combiner m = combiner_merge("");
  EXPECT_TRUE(legal(m, "a\nb\n"));
  EXPECT_FALSE(legal(m, "b\na\n"));
  EXPECT_TRUE(legal(m, ""));
}

// ------------------------------------------------------------ semantics --

TEST(Eval, AddCanonicalizes) {
  EXPECT_EQ(ev(combiner_add(), "2", "3").value(), "5");
  EXPECT_EQ(ev(combiner_add(), "09", "1").value(), "10");
  EXPECT_FALSE(ev(combiner_add(), "x", "1").has_value());
}

TEST(Eval, ConcatFirstSecond) {
  EXPECT_EQ(ev(combiner_concat(), "ab", "cd").value(), "abcd");
  EXPECT_EQ(ev(combiner_first(), "ab", "cd").value(), "ab");
  EXPECT_EQ(ev(combiner_second(), "ab", "cd").value(), "cd");
}

TEST(Eval, SwappedArguments) {
  EXPECT_EQ(ev(swapped(combiner_concat()), "ab", "cd").value(), "cdab");
  EXPECT_EQ(ev(swapped(combiner_first()), "ab", "cd").value(), "cd");
}

TEST(Eval, FrontBack) {
  Combiner fc = combiner_front_concat(',');
  EXPECT_EQ(ev(fc, ",ab", ",cd").value(), ",abcd");
  EXPECT_FALSE(ev(fc, "ab", ",cd").has_value());

  Combiner ba = combiner_back_add('\n');
  EXPECT_EQ(ev(ba, "2\n", "40\n").value(), "42\n");
  EXPECT_FALSE(ev(ba, "2", "40\n").has_value());
}

TEST(Eval, WcCombinerShape) {
  // wc -l: (back '\n' add) combines the two counts.
  Combiner ba = combiner_back_add('\n');
  EXPECT_EQ(ev(ba, "3\n", "4\n").value(), "7\n");
}

TEST(Eval, FusePiecewise) {
  // wc (multi-column) shape: fuse applies add per column.
  Combiner fa = combiner_fuse_add(' ');
  EXPECT_EQ(ev(fa, "1 2 3", "10 20 30").value(), "11 22 33");
  EXPECT_FALSE(ev(fa, "1 2", "1 2 3").has_value());  // mismatched k
}

TEST(Eval, NestedBackFuse) {
  Combiner bfa{make_unary(Op::kBack, '\n',
                          make_unary(Op::kFuse, ' ', make_leaf(Op::kAdd))),
               false, nullptr, ""};
  EXPECT_EQ(ev(bfa, "1 2\n", "3 4\n").value(), "4 6\n");
}

TEST(Eval, StitchMergesEqualBoundaryLines) {
  // uniq: (stitch first).
  Combiner sf = combiner_stitch_first();
  EXPECT_EQ(ev(sf, "a\nb\n", "b\nc\n").value(), "a\nb\nc\n");
}

TEST(Eval, StitchConcatenatesDistinctBoundaryLines) {
  Combiner sf = combiner_stitch_first();
  EXPECT_EQ(ev(sf, "a\nb\n", "c\nd\n").value(), "a\nb\nc\nd\n");
}

TEST(Eval, StitchSingleLineOperands) {
  Combiner sf = combiner_stitch_first();
  EXPECT_EQ(ev(sf, "b\n", "b\n").value(), "b\n");
  EXPECT_EQ(ev(sf, "a\n", "b\n").value(), "a\nb\n");
}

TEST(Eval, StitchEmptyLineStream) {
  Combiner sf = combiner_stitch_first();
  EXPECT_EQ(ev(sf, "\n", "a\n").value(), "\na\n");
}

TEST(Eval, Stitch2CombinesCounts) {
  // uniq -c: (stitch2 ' ' add first). Boundary rows with the same word
  // merge, counts add, padding stays aligned to the left column.
  Combiner saf = combiner_stitch2_add_first(' ');
  EXPECT_EQ(
      ev(saf, "      2 apple\n      1 pear\n", "      3 pear\n      1 fig\n")
          .value(),
      "      2 apple\n      4 pear\n      1 fig\n");
}

TEST(Eval, Stitch2DistinctTailsConcatenate) {
  Combiner saf = combiner_stitch2_add_first(' ');
  EXPECT_EQ(ev(saf, "      1 a\n", "      1 b\n").value(),
            "      1 a\n      1 b\n");
}

TEST(Eval, Stitch2PaddingShrinksWithWiderCounts) {
  Combiner saf = combiner_stitch2_add_first(' ');
  EXPECT_EQ(ev(saf, "      9 x\n", "      9 x\n").value(), "     18 x\n");
  // Past 999999 the count fills GNU's 7-column field and loses its
  // padding; the fold must keep accepting it on either side.
  EXPECT_EQ(ev(saf, " 999999 a\n", "      1 a\n").value(), "1000000 a\n");
  EXPECT_EQ(ev(saf, "1000000 a\n", " 524288 a\n").value(), "1524288 a\n");
  EXPECT_EQ(ev(saf, "      1 b\n", "10000000 b\n").value(), "10000001 b\n");
}

TEST(Eval, OffsetAdjustsFirstFields) {
  // xargs -L1 wc -l shape with add: offset line counts.
  Combiner oa = combiner_offset_add(' ');
  EXPECT_EQ(ev(oa, "5 f1\n", "3 f2\n1 f3\n").value(), "5 f1\n8 f2\n6 f3\n");
}

TEST(Eval, OffsetSecondIsConcat) {
  Combiner os{make_unary(Op::kOffset, ' ', make_leaf(Op::kSecond)), false,
              nullptr, ""};
  EXPECT_EQ(ev(os, "5 f1\n", "3 f2\n").value(), "5 f1\n3 f2\n");
}

TEST(Eval, MergeInterleavesSorted) {
  Combiner m = combiner_merge("");
  EXPECT_EQ(ev(m, "a\nc\n", "b\nd\n").value(), "a\nb\nc\nd\n");
  EXPECT_FALSE(ev(m, "c\na\n", "b\n").has_value());
}

TEST(Eval, MergeNumericFlags) {
  Combiner m = combiner_merge("-n");
  EXPECT_EQ(ev(m, "2\n10\n", "3\n").value(), "2\n3\n10\n");
}

TEST(Eval, RerunInvokesCommand) {
  cmd::CommandPtr sort = cmd::make_command_line("sort");
  ASSERT_NE(sort, nullptr);
  EvalContext ctx{sort.get()};
  EXPECT_EQ(eval(combiner_rerun(), "b\n", "a\n", ctx).value(), "a\nb\n");
  EXPECT_FALSE(eval(combiner_rerun(), "b\n", "a\n", {}).has_value());
}

// ---------------------------------------------------------- enumeration --

TEST(Enumerate, PaperSpaceSizesExactly) {
  // Table 10: 2700 = 968 + 1728 + 4 (one delimiter), 26404 = 12440 +
  // 13960 + 4 (two), 110444 = 59048 + 51392 + 4 (three).
  SpaceCounts d1 = count_candidates(1, 5);
  EXPECT_EQ(d1.rec, 968u);
  EXPECT_EQ(d1.strct, 1728u);
  EXPECT_EQ(d1.run, 4u);
  EXPECT_EQ(d1.total(), 2700u);

  SpaceCounts d2 = count_candidates(2, 5);
  EXPECT_EQ(d2.rec, 12440u);
  EXPECT_EQ(d2.strct, 13960u);
  EXPECT_EQ(d2.total(), 26404u);

  SpaceCounts d3 = count_candidates(3, 5);
  EXPECT_EQ(d3.rec, 59048u);
  EXPECT_EQ(d3.strct, 51392u);
  EXPECT_EQ(d3.total(), 110444u);
}

TEST(Enumerate, GeneratorMatchesClosedForm) {
  for (std::size_t d = 1; d <= 3; ++d) {
    SpaceSpec spec;
    spec.delims.assign(kDelims, kDelims + d);
    CandidateSpace space = enumerate_candidates(spec);
    SpaceCounts counts = count_candidates(d, spec.max_ops);
    EXPECT_EQ(space.rec_count, counts.rec) << "D=" << d;
    EXPECT_EQ(space.struct_count, counts.strct) << "D=" << d;
    EXPECT_EQ(space.run_count, counts.run) << "D=" << d;
    EXPECT_EQ(space.candidates.size(), counts.total()) << "D=" << d;
  }
}

TEST(Enumerate, AllCandidatesWithinSizeBound) {
  SpaceSpec spec;
  spec.delims = {'\n', ' '};
  CandidateSpace space = enumerate_candidates(spec);
  for (const Combiner& g : space.candidates)
    EXPECT_LE(size(g), spec.max_ops + 2) << to_string(g);
}

TEST(Enumerate, CandidatesAreDistinct) {
  SpaceSpec spec;  // one delimiter: 2700 candidates
  CandidateSpace space = enumerate_candidates(spec);
  std::set<std::string> seen;
  for (const Combiner& g : space.candidates)
    EXPECT_TRUE(seen.insert(to_string(g)).second) << to_string(g);
}

// ---------------------------------------------------------------- k-way --

TEST(KWay, ConcatJoins) {
  EXPECT_EQ(combine_k(combiner_concat(), {"a\n", "b\n", "c\n"}).value(),
            "a\nb\nc\n");
}

TEST(KWay, MergeAllAtOnce) {
  EXPECT_EQ(combine_k(combiner_merge(""), {"a\nd\n", "b\n", "c\ne\n"}).value(),
            "a\nb\nc\nd\ne\n");
}

TEST(KWay, RerunConcatenatesOnceThenRuns) {
  cmd::CommandPtr sort = cmd::make_command_line("sort");
  EvalContext ctx{sort.get()};
  EXPECT_EQ(combine_k(combiner_rerun(), {"c\n", "a\n", "b\n"}, ctx).value(),
            "a\nb\nc\n");
}

TEST(KWay, PairwiseFoldForStructOps) {
  Combiner saf = combiner_stitch2_add_first(' ');
  EXPECT_EQ(combine_k(saf, {"      1 x\n", "      1 x\n", "      1 x\n"})
                .value(),
            "      3 x\n");
}

TEST(KWay, SingletonAndEmpty) {
  EXPECT_EQ(combine_k(combiner_concat(), {}).value(), "");
  EXPECT_EQ(combine_k(combiner_stitch_first(), {"a\n"}).value(), "a\n");
}

}  // namespace
}  // namespace kq::dsl
