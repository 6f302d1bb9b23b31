// Binary/text file I/O helpers with explicit error reporting.
#pragma once

#include <cstdint>
#include <istream>
#include <ostream>
#include <string>
#include <vector>

namespace lithogan::util {

/// Reads an entire file into a string. Throws IoError on failure.
std::string read_file(const std::string& path);

/// Writes `content` to `path`, replacing any existing file. Throws IoError.
void write_file(const std::string& path, const std::string& content);

/// True if a regular file exists at `path`.
bool file_exists(const std::string& path);

/// Creates `path` and any missing parents (like `mkdir -p`). Throws IoError.
void make_directories(const std::string& path);

// Little-endian binary primitives used by model/dataset serialization.
// All throw FormatError on truncated input.
void write_u32(std::ostream& os, std::uint32_t value);
void write_u64(std::ostream& os, std::uint64_t value);
void write_f64(std::ostream& os, double value);
void write_string(std::ostream& os, const std::string& value);
void write_f32_array(std::ostream& os, const float* data, std::size_t count);

std::uint32_t read_u32(std::istream& is);
std::uint64_t read_u64(std::istream& is);
double read_f64(std::istream& is);
std::string read_string(std::istream& is);
void read_f32_array(std::istream& is, float* data, std::size_t count);

}  // namespace lithogan::util
