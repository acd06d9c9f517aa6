#include "compile/pipeline.h"

#include "text/shellwords.h"
#include "text/strings.h"

namespace kq::compile {

std::optional<ParsedPipeline> parse_pipeline(std::string_view script,
                                             std::string* error) {
  auto stage_lines = text::split_pipeline(script);
  if (!stage_lines) {
    if (error) *error = "unterminated quote in pipeline";
    return std::nullopt;
  }
  ParsedPipeline out;
  for (std::size_t i = 0; i < stage_lines->size(); ++i) {
    auto words = text::shell_split((*stage_lines)[i]);
    if (!words) {
      if (error) *error = "unterminated quote in stage";
      return std::nullopt;
    }
    if (words->empty()) {
      if (error) *error = "empty pipeline stage";
      return std::nullopt;
    }
    if (i == 0 && (*words)[0] == "cat" && words->size() <= 2) {
      out.had_leading_cat = true;
      if (words->size() == 2) out.leading_cat_operand = (*words)[1];
      continue;
    }
    ParsedStage stage;
    stage.display = std::string(text::trim((*stage_lines)[i]));
    stage.argv = std::move(*words);
    out.stages.push_back(std::move(stage));
  }
  // A lone `cat` is the identity pipeline: no stages, input passes through.
  if (out.stages.empty() && !out.had_leading_cat) {
    if (error) *error = "pipeline has no processing stages";
    return std::nullopt;
  }
  return out;
}

}  // namespace kq::compile
