// Matrix Market (.mtx) I/O.
//
// The paper's suite comes from the University of Florida (SuiteSparse)
// collection, which is distributed in this format. The offline container has
// no network access, so experiments default to generated analogues, but the
// reader lets users run the full pipeline on real downloaded matrices.
//
// Supported: "matrix coordinate {real|integer|pattern} {general|symmetric}".
#pragma once

#include <iosfwd>
#include <string>

#include "sparse/coo.hpp"
#include "sparse/csr.hpp"

namespace sparta::mm {

/// Parse a Matrix Market stream into COO. Symmetric inputs are expanded to
/// general form (both triangles; the diagonal is not duplicated). Pattern
/// inputs get value 1.0. Throws std::runtime_error, with a message starting
/// "matrix market: " that names the first bad line, on malformed input.
///
/// The body is parsed in blocks of at most 16 MiB, each split at newlines
/// across `threads` threads (0 means omp_get_max_threads(), as for the
/// builders). The result is bit-identical at any thread count. The stream is
/// consumed to the end of the block holding the last declared entry, not to
/// that entry's line.
CooMatrix read_coo(std::istream& is, int threads = 0);

/// Convenience: read a file straight to CSR, parsing and building with
/// `threads` threads.
CsrMatrix read_csr_file(const std::string& path, int threads = 0);

/// Write `m` as "matrix coordinate real general" with 17 significant digits
/// (lossless double round-trip).
void write(std::ostream& os, const CsrMatrix& m);
void write_file(const std::string& path, const CsrMatrix& m);

}  // namespace sparta::mm
