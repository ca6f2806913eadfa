// blink_server — the network serving front end: a TCP server speaking the
// net/protocol.h frame protocol (plus HTTP GET /stats) over the async
// serving engine, with admission control and zero-downtime hot-swap.
//
// Index source, like blink_serve:
//   default       — build over a synthetic dataset (no input files).
//   --index PATH  — Open() a persisted artifact of any flavor. With
//                   --map, static bundles are served from a read-only
//                   file mapping (out-of-core).
//
// The server answers until SIGINT/SIGTERM, then drains in-flight queries
// and prints the final /stats JSON. Clients hot-swap the index with a
// kSwapRequest frame naming another artifact (blink_serve --connect
// --swap PATH), or probe telemetry with `curl http://host:port/stats`.
//
// Usage:
//   blink_server [options]
//     --index PATH       serve a persisted artifact (default: synthetic build)
//     --map              with --index: map static bundles instead of loading
//     --host H           bind address            (default 127.0.0.1)
//     --port P           TCP port; 0 = ephemeral (default 7741)
//     --port-file F      write the bound port to F (for scripts + --port 0)
//     --kind K           synthetic build: facade kind (default static-lvq)
//     --n N              synthetic build: base vectors (default 20000)
//     --lvq B            synthetic build: LVQ bits    (default 8)
//     --bits2 B          synthetic build: residual bits (default 0)
//     --shards S         synthetic build: shard count (default 1)
//     --seed S           synthetic build: dataset seed (default 1234)
//     --threads T        engine searcher pool size (default NumThreads())
//     --queue-capacity Q admission bound: max in-flight async queries
//                        (default 65536; lower it to see kOverloaded)
//     --max-connections C concurrent connections  (default 256)
#include <chrono>
#include <cstdio>
#include <limits>
#include <string>
#include <thread>

#include "blink.h"
#include "flags.h"
#include "shutdown.h"

using namespace blink;

namespace {

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--index PATH [--map]] [--host H] [--port P] "
               "[--port-file F]\n"
               "                   [--kind K] [--n N] [--lvq B] [--bits2 B] "
               "[--shards S] [--seed S]\n"
               "                   [--threads T] [--queue-capacity Q] "
               "[--max-connections C]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const bool map_mode = tools::TakeMapFlag(&argc, argv);
  std::string index_path, host = "127.0.0.1", port_file;
  long long port = 7741;
  size_t n = 20000;
  int lvq_bits = 8, bits2 = 0;
  size_t shards = 1;
  uint64_t seed = 1234;
  size_t threads = NumThreads();
  size_t queue_capacity = 1 << 16;
  size_t max_connections = 256;
  IndexKind kind = IndexKind::kStaticLvq;

  tools::FlagParser args(argc, argv, 1);
  std::string flag;
  const char* val = nullptr;
  long long iv = 0;
  while (args.Next(&flag, &val)) {
    if (flag == "--index") {
      index_path = val;
    } else if (flag == "--host") {
      host = val;
    } else if (flag == "--port") {
      if (!tools::ParseIntFlag(flag, val, 0, 65535, &iv)) return 1;
      port = iv;
    } else if (flag == "--port-file") {
      port_file = val;
    } else if (flag == "--kind") {
      auto parsed = ParseIndexKind(val);
      if (!parsed.ok()) {
        std::fprintf(stderr, "%s\n", parsed.status().ToString().c_str());
        return 1;
      }
      kind = parsed.value();
    } else if (flag == "--n") {
      if (!tools::ParseIntFlag(flag, val, 1, 1LL << 32, &iv)) return 1;
      n = static_cast<size_t>(iv);
    } else if (flag == "--lvq") {
      if (!tools::ParseIntFlag(flag, val, 0, 16, &iv)) return 1;
      lvq_bits = static_cast<int>(iv);
    } else if (flag == "--bits2") {
      if (!tools::ParseIntFlag(flag, val, 0, 16, &iv)) return 1;
      bits2 = static_cast<int>(iv);
    } else if (flag == "--shards") {
      if (!tools::ParseIntFlag(flag, val, 1, 1 << 16, &iv)) return 1;
      shards = static_cast<size_t>(iv);
    } else if (flag == "--seed") {
      if (!tools::ParseIntFlag(flag, val, 0,
                               std::numeric_limits<long long>::max(), &iv)) {
        return 1;
      }
      seed = static_cast<uint64_t>(iv);
    } else if (flag == "--threads") {
      if (!tools::ParseIntFlag(flag, val, 1, 1 << 12, &iv)) return 1;
      threads = static_cast<size_t>(iv);
    } else if (flag == "--queue-capacity") {
      if (!tools::ParseIntFlag(flag, val, 1, 1LL << 32, &iv)) return 1;
      queue_capacity = static_cast<size_t>(iv);
    } else if (flag == "--max-connections") {
      if (!tools::ParseIntFlag(flag, val, 1, 1 << 16, &iv)) return 1;
      max_connections = static_cast<size_t>(iv);
    } else {
      return Usage(argv[0]);
    }
  }
  if (!args.ok()) return Usage(argv[0]);

  // Install the signal handler before serving starts: a SIGTERM racing
  // startup should still stop the tool gracefully.
  tools::InstallStopHandler();

  Index index;
  if (!index_path.empty()) {
    OpenOptions open_opts;
    if (map_mode) open_opts.load_mode = LoadMode::kMap;
    Result<Index> opened = Open(index_path, open_opts);
    if (!opened.ok()) {
      std::fprintf(stderr, "%s\n", opened.status().ToString().c_str());
      return 1;
    }
    index = std::move(opened).value();
    std::printf("opened %s (%s, %s) from %s: n=%zu d=%zu (%.1f MiB)\n",
                index.name().c_str(), KindName(index.kind()),
                LoadModeName(index.spec().load_mode), index_path.c_str(),
                index.size(), index.dim(), index.memory_bytes() / 1048576.0);
  } else {
    if (map_mode) {
      std::fprintf(stderr, "warning: --map has no effect without --index "
                           "(a built index is heap-resident)\n");
    }
    ThreadPool build_pool(threads);
    Dataset data = MakeDeepLike(n, /*nq=*/1, seed);
    IndexSpec spec;
    spec.kind = kind;
    spec.metric = data.metric;
    spec.bits1 = lvq_bits > 0 ? lvq_bits : 8;
    spec.bits2 = bits2;
    spec.graph.graph_max_degree = 32;
    spec.graph.window_size = 64;
    spec.partition.num_shards = shards;
    Timer build_timer;
    Result<Index> built = Build(spec, data.base, &build_pool);
    if (!built.ok()) {
      std::fprintf(stderr, "%s\n", built.status().ToString().c_str());
      return 1;
    }
    index = std::move(built).value();
    std::printf("built %s (%s) in %.1fs (%.1f MiB)\n", index.name().c_str(),
                KindName(index.kind()), build_timer.Seconds(),
                index.memory_bytes() / 1048576.0);
  }

  net::ServerOptions opts;
  opts.host = host;
  opts.port = static_cast<uint16_t>(port);
  opts.max_connections = max_connections;
  opts.serving.num_threads = threads;
  opts.serving.queue_capacity = queue_capacity;
  Result<std::unique_ptr<net::BlinkServer>> started =
      net::BlinkServer::Start(std::move(index), opts);
  if (!started.ok()) {
    std::fprintf(stderr, "%s\n", started.status().ToString().c_str());
    return 1;
  }
  std::unique_ptr<net::BlinkServer> server = std::move(started).value();
  std::printf("blink_server: listening on %s:%u (threads=%zu "
              "queue-capacity=%zu)\n",
              host.c_str(), server->port(), threads, queue_capacity);
  std::printf("  stats:  curl http://%s:%u/stats\n", host.c_str(),
              server->port());
  std::fflush(stdout);
  if (!port_file.empty()) {
    std::FILE* f = std::fopen(port_file.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write --port-file %s\n", port_file.c_str());
      return 1;
    }
    std::fprintf(f, "%u\n", server->port());
    std::fclose(f);
  }

  // Serve until SIGINT/SIGTERM. The accept and handler threads do the
  // work; this thread only polls the stop flag.
  while (!tools::StopRequested()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }

  std::printf("\nstopping: draining in-flight queries...\n");
  server->Stop();
  std::printf("final stats:\n%s\n", server->StatsJson().c_str());
  return 0;
}
