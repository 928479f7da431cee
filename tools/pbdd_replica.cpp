// pbdd_replica — standalone read-replica process (docs/REPLICATION.md).
//
//   pbdd_replica --port N --dir DIR [--workers N] [--discipline D]
//                [--metrics-every SECS] [--http-port N] [--name NAME]
//                [--trace FILE]
//
//   --port N             listen port (0 = ephemeral; the bound port is
//                        printed either way so scripts can scrape it)
//   --dir DIR            working directory for applied.snap/incoming.snap
//                        (must exist)
//   --workers N          restore worker count (default 2) — may differ from
//                        the writer's; restore rehashes if shapes mismatch
//   --discipline D       passlock | lockfree (default: core::Config's,
//                        passlock)
//   --metrics-every S    dump pbdd_repl_* metrics to stdout every S seconds
//                        (0 = only at exit)
//   --http-port N        serve /metrics, /healthz, /tracez over HTTP
//                        (0 = ephemeral; the bound port is printed)
//   --name NAME          trace process identity sent to the writer in the
//                        HelloAck handshake (default "r<pid>")
//   --trace FILE         record a trace session and export FILE at exit
//                        (needs a -DPBDD_TRACE=ON build)
//
// Runs until SIGINT/SIGTERM. The writer connects and ships snapshot epochs;
// routers connect and issue reads. Everything arrives on the same port.
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <atomic>
#include <chrono>
#include <string>
#include <thread>

#include "net/http.hpp"
#include "obs/trace.hpp"
#include "replica/replica_server.hpp"

namespace {

std::atomic<bool> g_stop{false};

void on_signal(int) { g_stop.store(true); }

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --port N --dir DIR [--workers N]\n"
               "          [--discipline passlock|lockfree] "
               "[--metrics-every SECS]\n"
               "          [--http-port N] [--name NAME] [--trace FILE]\n",
               argv0);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace pbdd;
  repl::ReplicaOptions opts;
  opts.config.workers = 2;
  unsigned metrics_every = 0;
  bool have_port = false;
  bool have_http = false;
  std::uint16_t http_port = 0;
  std::string name = "r" + std::to_string(::getpid());
  std::string trace_path;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    if (arg == "--port") {
      opts.port = static_cast<std::uint16_t>(
          std::strtoul(next().c_str(), nullptr, 10));
      have_port = true;
    } else if (arg == "--dir") {
      opts.dir = next();
    } else if (arg == "--workers") {
      opts.config.workers = std::strtoul(next().c_str(), nullptr, 10);
    } else if (arg == "--discipline") {
      const std::string d = next();
      if (!core::parse_discipline(d, opts.config.table_discipline)) {
        std::fprintf(stderr, "unknown discipline '%s'\n", d.c_str());
        usage(argv[0]);
      }
    } else if (arg == "--metrics-every") {
      metrics_every = std::strtoul(next().c_str(), nullptr, 10);
    } else if (arg == "--http-port") {
      http_port = static_cast<std::uint16_t>(
          std::strtoul(next().c_str(), nullptr, 10));
      have_http = true;
    } else if (arg == "--name") {
      name = next();
    } else if (arg == "--trace") {
      trace_path = next();
    } else {
      std::fprintf(stderr, "unknown flag %s\n", arg.c_str());
      usage(argv[0]);
    }
  }
  if (!have_port) usage(argv[0]);

  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);

  obs::Tracer::instance().set_process_name(name);
  if (!trace_path.empty()) {
    if (!obs::trace_compiled()) {
      std::fprintf(stderr,
                   "error: --trace needs a build with -DPBDD_TRACE=ON\n");
      return 2;
    }
    obs::Tracer::instance().start();
  }

  try {
    repl::ReplicaServer server(opts);
    server.start();
    std::printf("pbdd_replica: listening on 127.0.0.1:%u, dir=%s\n",
                server.port(), opts.dir.c_str());

    net::HttpServer http;
    if (have_http) {
      http.handle("/metrics", [&server] {
        net::HttpResponse r;
        r.content_type = net::kPrometheusContentType;
        r.body = server.metrics_text();
        return r;
      });
      http.handle("/healthz", [&server] {
        net::HttpResponse r;
        r.content_type = "application/json";
        r.body = "{\"status\": \"ok\", \"role\": \"replica\", "
                 "\"applied_epoch\": " +
                 std::to_string(server.applied_epoch()) + "}\n";
        return r;
      });
      http.handle("/tracez", [] {
        net::HttpResponse r;
        r.content_type = "application/json";
        r.body = obs::Tracer::instance().status_json();
        return r;
      });
      http.start(http_port);
      std::printf("pbdd_replica: http on 127.0.0.1:%u\n", http.port());
    }
    std::fflush(stdout);

    auto last_dump = std::chrono::steady_clock::now();
    while (!g_stop.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
      if (metrics_every > 0) {
        const auto now = std::chrono::steady_clock::now();
        if (now - last_dump >= std::chrono::seconds(metrics_every)) {
          last_dump = now;
          std::fputs(server.metrics_text().c_str(), stdout);
          std::fflush(stdout);
        }
      }
    }
    http.stop();
    server.stop();
    if (!trace_path.empty()) {
      obs::Tracer& tracer = obs::Tracer::instance();
      tracer.stop();
      const std::size_t events = tracer.write_chrome_trace_file(trace_path);
      std::printf("pbdd_replica: wrote %s: %zu trace events\n",
                  trace_path.c_str(), events);
    }
    const repl::ReplicaServer::Counters c = server.counters();
    std::printf(
        "pbdd_replica: exiting at epoch %llu — %llu ships applied, "
        "%llu naks, %llu levels received, %llu spliced, %llu reads\n",
        static_cast<unsigned long long>(server.applied_epoch()),
        static_cast<unsigned long long>(c.ships_applied),
        static_cast<unsigned long long>(c.ship_naks),
        static_cast<unsigned long long>(c.levels_received),
        static_cast<unsigned long long>(c.levels_spliced),
        static_cast<unsigned long long>(c.reads_served));
    std::fputs(server.metrics_text().c_str(), stdout);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return 0;
}
