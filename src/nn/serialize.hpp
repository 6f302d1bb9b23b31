// Model checkpointing: a small framed binary format with magic, format
// version, and a caller-supplied architecture tag so mismatched models fail
// fast instead of silently loading garbage.
#pragma once

#include <string>

#include "nn/module.hpp"

namespace lithogan::nn {

/// Writes `module` state to `path`. `arch_tag` should encode the
/// architecture hyperparameters (e.g. "cgan-g:base16:img64").
void save_module(const Module& module, const std::string& arch_tag,
                 const std::string& path);

/// Restores state saved by save_module(). Throws FormatError if the file is
/// not a lithogan checkpoint or `arch_tag` differs from the saved tag.
void load_module(Module& module, const std::string& arch_tag, const std::string& path);

}  // namespace lithogan::nn
