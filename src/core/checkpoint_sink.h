// CheckpointSink: the write-path counterpart of Monarch's read API.
//
// MONARCH (§II, §V) manages only the read path; real training jobs also
// write periodic model checkpoints, and on a shared cluster that write
// burst lands on the same contended PFS the reads are fleeing. This
// interface is what the trainer (dlsim) programs against: `Save` must
// make the checkpoint recoverable (crash-consistent commit), `Flush`
// must make everything saved so far durable on the PFS.
//
// Implementations live in src/ckpt/ — `CheckpointManager` (write-back:
// land on the fastest local tier, drain to the PFS asynchronously) and
// `DirectPfsSink` (write-through baseline the benches compare against).
// The interface lives in core so a caller that only saves and restores
// (the trainer, a test double) does not depend on src/ckpt.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "util/status.h"

namespace monarch::core {

class CheckpointSink {
 public:
  virtual ~CheckpointSink() = default;

  /// Persist one checkpoint under `name`. On return the checkpoint is
  /// committed: a crash at any later point leaves either this checkpoint
  /// or a previously committed one restorable, never a torn mix.
  /// Durability on the PFS may still be pending (see Flush).
  virtual Status Save(const std::string& name,
                      std::span<const std::byte> data) = 0;

  /// Read back a committed checkpoint, CRC-verified.
  virtual Result<std::vector<std::byte>> Restore(const std::string& name) = 0;

  /// Block until every checkpoint saved so far is durable on the PFS.
  virtual Status Flush() = 0;
};

}  // namespace monarch::core
