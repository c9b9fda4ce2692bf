// The worker side of the pre-forked pool: one process, one socketpair fd.
//
// Each 'J' frame carries one raw request line that the supervisor has
// already admitted, scheduled and checked for cancellation and deadline;
// the worker only executes it, on a serve::Executor of its own, and sends
// the one response line back as an 'R' frame. Budgeted runs checkpoint a
// snapshot into the shared store's migrate/ directory after every
// run_until chunk — if this process is SIGKILLed mid-run, the supervisor
// re-queues the job and the next worker resumes from that snapshot,
// returning the byte-identical response the uncrashed run would have
// produced.
#pragma once

#include <cstdint>
#include <string>

#include "serve/supervisor.hpp"

namespace dim::serve {

// The migration snapshot of one job under a store directory.
std::string checkpoint_path(const std::string& store_dir, uint64_t job_id);

// Runs the frame loop until the supervisor closes its end (EOF) or the fd
// breaks. Returns the process exit code; the forked child must pass it to
// _exit (not exit) so atexit handlers and sanitizer leak checks of the
// parent image don't run twice.
int worker_main(int fd, const SupervisorOptions& options);

}  // namespace dim::serve
