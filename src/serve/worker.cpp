#include "serve/worker.hpp"

#include <filesystem>
#include <sstream>
#include <system_error>
#include <vector>

#include "serve/executor.hpp"
#include "serve/ipc.hpp"

namespace dim::serve {

std::string checkpoint_path(const std::string& store_dir, uint64_t job_id) {
  return store_dir + "/migrate/job-" + std::to_string(job_id) + ".snap";
}

int worker_main(int fd, const SupervisorOptions& options) {
  Executor executor(options.store_dir, options.engine_threads,
                    options.checkpoint_interval);

  std::string payload;
  while (recv_frame(fd, payload)) {
    std::vector<Executor::Job> batch(1);
    Executor::Job& job = batch[0];
    uint64_t job_id = 0;
    std::string line;
    if (!decode_job_frame(payload, job_id, line)) return 2;
    ParseOutcome parsed = parse_request(line);
    std::string response;
    if (parsed.ok) {
      job.request = std::move(parsed.request);
      job.respond = [&response](std::string out) { response = std::move(out); };
      if (!options.store_dir.empty()) {
        job.checkpoint_path = checkpoint_path(options.store_dir, job_id);
      }
      executor.run(batch);
    } else {
      std::ostringstream out;
      write_error_response(out, parsed.id, parsed.error, parsed.detail);
      response = out.str();
    }

    // Respond before discarding the checkpoint: dying between the two
    // leaves only a stale file (the supervisor also removes it), never a
    // lost response.
    if (!send_frame(fd, encode_response_frame(job_id, response))) return 0;
    if (!job.checkpoint_path.empty()) {
      std::error_code ec;
      std::filesystem::remove(job.checkpoint_path, ec);
    }
  }
  return 0;
}

}  // namespace dim::serve
