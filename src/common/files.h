// Whole-file reads for the bytes the ledger keeps on disk: sealed segment
// files, snapshots and the replica's checkpoint sidecar.
#ifndef SRC_COMMON_FILES_H_
#define SRC_COMMON_FILES_H_

#include <string>

#include "src/common/bytes.h"
#include "src/common/outcome.h"

namespace votegral {

// Reads the regular file at `path`: fstat sizes the buffer and one read
// fills it. Fails kUnavailable, naming the path, when the file cannot be
// opened, is not a regular file (a directory, a FIFO) or cannot be read.
Outcome<Bytes> ReadFileBytes(const std::string& path);

}  // namespace votegral

#endif  // SRC_COMMON_FILES_H_
