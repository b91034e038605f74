// The synthesis server: lifecycle, concurrent clients against shared
// warm caches (fronts byte-identical to in-process synthesis), the slot
// gate and the shared session pool, deadline requests, malformed/oversized
// frame rejection, client disconnects, and fault injection — none of which
// may lose a synthesis slot or corrupt shared caches.
#include <gtest/gtest.h>

#include <sys/socket.h>

#include <set>
#include <string>
#include <thread>
#include <vector>

#include "api/api.h"
#include "base/diag.h"
#include "base/fault.h"
#include "cells/cell.h"
#include "cells/registry.h"
#include "genus/spec.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "server/protocol.h"
#include "server/server.h"

namespace bridge {
namespace {

using api::Json;

// One request/response exchange on a fresh connection.
std::string rpc(int port, const std::string& frame) {
  const int fd = server::connect_tcp(port);
  server::write_frame(fd, frame);
  std::string payload;
  if (!server::read_frame(fd, payload)) {
    server::close_socket(fd);
    throw Error("server closed the connection without responding");
  }
  server::close_socket(fd);
  return payload;
}

std::string synthesize_frame(const api::SynthesisRequest& req) {
  Json j = req.encode();
  j.set("method", "synthesize");
  return j.dump();
}

api::SynthesisResult synthesize_over_wire(int port,
                                          const api::SynthesisRequest& req) {
  return api::SynthesisResult::from_json(rpc(port, synthesize_frame(req)));
}

class ServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    registry_ = cells::LibraryRegistry::with_builtins();
    start_server(2);  // explicit, whatever the core count
  }

  /// (Re)start the fixture's server with `workers` synthesis slots.
  void start_server(int workers) {
    if (server_) server_->stop();
    server::ServerOptions options;
    options.tcp_port = 0;  // ephemeral
    options.workers = workers;
    server_ = std::make_unique<server::SynthesisServer>(registry_, options);
    server_->start();
  }

  void TearDown() override {
    base::FaultInjector::global().disarm();
    if (server_) server_->stop();
  }

  int port() const { return server_->port(); }

  cells::LibraryRegistry registry_;
  std::unique_ptr<server::SynthesisServer> server_;
};

TEST_F(ServerTest, HealthReportsLibrariesAndWorkers) {
  const Json res = Json::parse(
      rpc(port(), Json::object().set("method", "health").dump()));
  EXPECT_EQ(res.at("status").string_value(), "ok");
  EXPECT_EQ(res.at("workers").integer(), 2);
  const Json& libs = res.at("libraries");
  bool saw_lsi = false;
  for (const Json& lib : libs.items()) {
    if (lib.string_value() == cells::lsi_library().name()) saw_lsi = true;
  }
  EXPECT_TRUE(saw_lsi);
}

TEST_F(ServerTest, MetricsEmbedsRegistrySnapshot) {
  // A synthesis first, so the snapshot has something to say.
  api::SynthesisRequest req;
  req.library = cells::lsi_library().name();
  req.spec = genus::make_adder_spec(8);
  ASSERT_TRUE(synthesize_over_wire(port(), req).ok());

  const Json res = Json::parse(
      rpc(port(), Json::object().set("method", "metrics").dump()));
  EXPECT_EQ(res.at("status").string_value(), "ok");
  ASSERT_NE(res.find("metrics"), nullptr);
  // The obs registry snapshot rides along verbatim (counters etc.).
  EXPECT_TRUE(res.at("metrics").find("counters") != nullptr ||
              res.at("metrics").find("gauges") != nullptr);
}

TEST_F(ServerTest, ConcurrentClientsMatchSerialInProcess) {
  // 8 clients, mixed specs, all against the shared warm TemplateCache;
  // every front must be byte-identical to serial in-process synthesis.
  std::vector<api::SynthesisRequest> reqs(8);
  const genus::ComponentSpec specs[] = {
      genus::make_adder_spec(8),
      genus::make_adder_spec(16),
      genus::make_mux_spec(8, 4),
      genus::make_alu_spec(16, genus::alu16_ops()),
  };
  for (size_t i = 0; i < reqs.size(); ++i) {
    reqs[i].library = cells::lsi_library().name();
    reqs[i].spec = specs[i % 4];
    reqs[i].options.emit_vhdl = true;
  }

  // Serial reference fronts, in process, one fresh session.
  dtas::Synthesizer direct(cells::lsi_library());
  std::vector<std::vector<dtas::AlternativeDesign>> expected;
  for (const api::SynthesisRequest& req : reqs) {
    expected.push_back(direct.synthesize(*req.spec));
    ASSERT_FALSE(expected.back().empty());
  }

  std::vector<api::SynthesisResult> results(reqs.size());
  std::vector<std::thread> clients;
  for (size_t i = 0; i < reqs.size(); ++i) {
    clients.emplace_back([this, i, &reqs, &results] {
      try {
        results[i] = synthesize_over_wire(port(), reqs[i]);
      } catch (const std::exception& e) {
        results[i] = api::SynthesisResult::make_error("error", e.what());
      }
    });
  }
  for (std::thread& t : clients) t.join();

  for (size_t i = 0; i < reqs.size(); ++i) {
    ASSERT_TRUE(results[i].ok()) << i << ": " << results[i].error;
    EXPECT_TRUE(api::front_matches(results[i], expected[i], /*with_vhdl=*/true))
        << "front " << i << " differs from in-process synthesis";
  }
  EXPECT_GE(server_->requests_handled(), 8);
  EXPECT_EQ(server_->errors_returned(), 0);
}

TEST_F(ServerTest, GarbageFramesGetErrorResponsesAndConnectionSurvives) {
  // The parser-robustness corpus, framed and sent down one connection:
  // every entry earns an error response, then a valid request still
  // works on the very same connection.
  const std::vector<std::string> corpus = {
      "",
      "\n\n\n",
      std::string(5, '\0'),
      "\xff\xfe\x80\x81 binary junk \x01\x02",
      "))))((((",
      "library library library",
      "LIBRARY",
      "NAME:",
      "!@#$%^&*",
      std::string(10000, 'x'),
      "\"unterminated string",
      "{\"method\": \"synthesize\"}",          // parses; no library
      "{\"method\": \"no_such_method\"}",
      "[1, 2, 3]",                             // not an object
  };
  const int fd = server::connect_tcp(port());
  for (const std::string& garbage : corpus) {
    server::write_frame(fd, garbage);
    std::string payload;
    ASSERT_TRUE(server::read_frame(fd, payload)) << "closed on: " << garbage;
    const Json res = Json::parse(payload);
    EXPECT_EQ(res.at("status").string_value(), "error") << garbage;
  }
  // Same connection, now a well-formed request.
  api::SynthesisRequest req;
  req.library = cells::lsi_library().name();
  req.spec = genus::make_adder_spec(8);
  server::write_frame(fd, synthesize_frame(req));
  std::string payload;
  ASSERT_TRUE(server::read_frame(fd, payload));
  EXPECT_TRUE(api::SynthesisResult::from_json(payload).ok());
  server::close_socket(fd);
  EXPECT_GT(server_->errors_returned(), 0);
}

TEST_F(ServerTest, OversizedFrameIsRejectedWithoutWedging) {
  const int fd = server::connect_tcp(port());
  // A frame header announcing far more than max_frame_bytes: the server
  // answers from the header alone and closes.
  const std::string huge(64, 'x');
  unsigned char header[4] = {0x7f, 0xff, 0xff, 0xff};  // ~2 GiB announced
  ASSERT_EQ(::send(fd, header, 4, MSG_NOSIGNAL), 4);
  ASSERT_EQ(::send(fd, huge.data(), huge.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(huge.size()));
  std::string payload;
  ASSERT_TRUE(server::read_frame(fd, payload));
  const Json res = Json::parse(payload);
  EXPECT_EQ(res.at("status").string_value(), "error");
  server::close_socket(fd);

  // The server is unharmed: a fresh connection synthesizes fine.
  api::SynthesisRequest req;
  req.library = cells::lsi_library().name();
  req.spec = genus::make_adder_spec(8);
  EXPECT_TRUE(synthesize_over_wire(port(), req).ok());
}

TEST_F(ServerTest, OutOfRangeFieldIsAnErrorAndConnectionServesNext) {
  // A request asking for more odometer threads than the process can
  // create used to abort the daemon, and an int field past int range used
  // to wrap into a wrong answer with status ok (width 4294967297 as a
  // 1-bit adder). Each is now an error response naming the field, and the
  // same connection serves its next request.
  api::SynthesisRequest req;
  req.library = cells::lsi_library().name();
  req.spec = genus::make_adder_spec(8);
  dtas::Synthesizer direct(cells::lsi_library());
  const auto want = direct.synthesize(*req.spec);
  const struct {
    const char* object;
    const char* field;
    double value;
  } bad[] = {
      {"options", "threads", 2000},
      {"options", "max_alternatives_per_node", 4294967297.0},
      {"options", "max_alternatives_per_node", 0},
      {"spec", "width", 4294967297.0},
  };
  const int fd = server::connect_tcp(port());
  for (const auto& [object, field, value] : bad) {
    SCOPED_TRACE(field);
    Json frame = req.encode();
    frame.set("method", "synthesize");
    Json member = *frame.find(object);
    member.set(field, value);
    frame.set(object, std::move(member));
    server::write_frame(fd, frame.dump());
    std::string payload;
    ASSERT_TRUE(server::read_frame(fd, payload));
    const api::SynthesisResult rejected =
        api::SynthesisResult::from_json(payload);
    EXPECT_EQ(rejected.status, "error");
    EXPECT_NE(rejected.error.find(field), std::string::npos) << rejected.error;

    server::write_frame(fd, synthesize_frame(req));
    ASSERT_TRUE(server::read_frame(fd, payload));
    const api::SynthesisResult served =
        api::SynthesisResult::from_json(payload);
    ASSERT_TRUE(served.ok()) << served.error;
    EXPECT_TRUE(api::front_matches(served, want, /*with_vhdl=*/false));
  }
  server::close_socket(fd);
}

TEST_F(ServerTest, CodecHistogramsRecordOneSamplePerSynthesizeRequest) {
  // server.decode_ms (parse + decode) and server.encode_ms (encode +
  // dump) take one sample per synthesize request, an error reply
  // included; other methods add none.
  api::SynthesisRequest req;
  req.library = cells::lsi_library().name();
  req.spec = genus::make_adder_spec(8);
  req.options.emit_vhdl = true;
  api::SynthesisRequest bad = req;
  bad.options.threads = 2000;
  constexpr long kRequests = 6;
  const obs::Snapshot before = obs::Registry::global().snapshot();
  const int fd = server::connect_tcp(port());
  std::string payload;
  for (long i = 0; i < kRequests; ++i) {
    server::write_frame(fd, synthesize_frame(i == 2 ? bad : req));
    ASSERT_TRUE(server::read_frame(fd, payload));
    EXPECT_EQ(api::SynthesisResult::from_json(payload).ok(), i != 2);
  }
  server::write_frame(fd, Json::object().set("method", "health").dump());
  ASSERT_TRUE(server::read_frame(fd, payload));
  server::close_socket(fd);
  const obs::Snapshot d =
      obs::diff(obs::Registry::global().snapshot(), before);
  EXPECT_EQ(d.counters.at("server.requests"), kRequests);
  EXPECT_EQ(d.histograms.at("server.request_ms").count, kRequests);
  EXPECT_EQ(d.histograms.at("server.decode_ms").count, kRequests);
  EXPECT_EQ(d.histograms.at("server.encode_ms").count, kRequests);
  EXPECT_GT(d.histograms.at("server.encode_ms").sum, 0.0);
}

TEST_F(ServerTest, DeadlineRequestAnsweredBestEffortOrRejectedCleanly) {
  api::SynthesisRequest req;
  req.library = cells::lsi_library().name();
  req.spec = genus::make_alu_spec(64, genus::alu16_ops());
  req.options.deadline_ms = 1;
  req.options.deadline_best_effort = true;
  const api::SynthesisResult res = synthesize_over_wire(port(), req);
  // Best effort: a (possibly truncated) front with deadline_hit set, or
  // a clean cancellation — never a wedged connection or a crash.
  EXPECT_TRUE(res.ok() || res.status == "cancelled") << res.status;

  // Hard deadline (no best-effort): same contract.
  req.options.deadline_best_effort = false;
  const api::SynthesisResult hard = synthesize_over_wire(port(), req);
  EXPECT_TRUE(hard.ok() || hard.status == "cancelled") << hard.status;

  // The next undeadlined request on the same server is full and exact.
  req.options.deadline_ms = 0;
  req.options.deadline_best_effort = false;
  const api::SynthesisResult full = synthesize_over_wire(port(), req);
  ASSERT_TRUE(full.ok()) << full.error;
  dtas::Synthesizer direct(cells::lsi_library());
  EXPECT_TRUE(api::front_matches(full, direct.synthesize(*req.spec),
                                 /*with_vhdl=*/false));
}

TEST_F(ServerTest, ClientDisconnectMidRequestDoesNotWedgeThePool) {
  // Fire a heavy request and slam the connection shut without reading
  // the response.
  api::SynthesisRequest req;
  req.library = cells::lsi_library().name();
  req.spec = genus::make_alu_spec(64, genus::alu16_ops());
  const int fd = server::connect_tcp(port());
  server::write_frame(fd, synthesize_frame(req));
  server::close_socket(fd);

  // The server digests it; subsequent clients are served correctly.
  req.spec = genus::make_adder_spec(16);
  const api::SynthesisResult res = synthesize_over_wire(port(), req);
  ASSERT_TRUE(res.ok()) << res.error;
  dtas::Synthesizer direct(cells::lsi_library());
  EXPECT_TRUE(api::front_matches(res, direct.synthesize(*req.spec),
                                 /*with_vhdl=*/false));
}

TEST_F(ServerTest, InjectedFaultBecomesErrorResponseThenIdenticalRetry) {
  api::SynthesisRequest req;
  req.library = cells::lsi_library().name();
  req.spec = genus::make_adder_spec(16);

  base::FaultInjector::global().arm_site("server.request");
  const api::SynthesisResult faulted = synthesize_over_wire(port(), req);
  EXPECT_EQ(faulted.status, "error");
  EXPECT_NE(faulted.error.find("injected"), std::string::npos)
      << faulted.error;

  // One-shot: the injector disarmed itself; the retry is clean and
  // byte-identical to in-process synthesis.
  const api::SynthesisResult retry = synthesize_over_wire(port(), req);
  ASSERT_TRUE(retry.ok()) << retry.error;
  dtas::Synthesizer direct(cells::lsi_library());
  EXPECT_TRUE(api::front_matches(retry, direct.synthesize(*req.spec),
                                 /*with_vhdl=*/false));
}

TEST_F(ServerTest, SeededFaultRunNeitherWedgesPoolNorCorruptsCaches) {
  // The CI fault matrix's mode: a seeded schedule firing across every
  // probe site in the pipeline. Requests may fail — the server must
  // answer every one and come out of it with caches intact.
  api::SynthesisRequest req;
  req.library = cells::lsi_library().name();
  long failures = 0;
  base::FaultInjector::global().arm(12345, /*period=*/8);
  for (int width : {8, 12, 16, 8, 12, 16}) {
    req.spec = genus::make_adder_spec(width);
    const api::SynthesisResult res = synthesize_over_wire(port(), req);
    if (!res.ok()) ++failures;
  }
  base::FaultInjector::global().disarm();

  // Clean run after the storm: byte-identical to a fresh in-process
  // session, proving the shared caches were not corrupted.
  req.spec = genus::make_adder_spec(16);
  const api::SynthesisResult res = synthesize_over_wire(port(), req);
  ASSERT_TRUE(res.ok()) << res.error;
  dtas::Synthesizer direct(cells::lsi_library());
  EXPECT_TRUE(api::front_matches(res, direct.synthesize(*req.spec),
                                 /*with_vhdl=*/false));
}

TEST_F(ServerTest, ManyShortRequestsOverSeveralConnections) {
  // Warm, sub-millisecond requests back to back on persistent connections,
  // so slots are taken and freed at a high rate. Every answer must arrive,
  // in order, byte-identical to in-process synthesis.
  const genus::ComponentSpec specs[] = {genus::make_adder_spec(4),
                                        genus::make_mux_spec(4, 2)};
  dtas::Synthesizer direct(cells::lsi_library());
  std::vector<std::vector<dtas::AlternativeDesign>> expected;
  for (const genus::ComponentSpec& spec : specs) {
    expected.push_back(direct.synthesize(spec));
  }
  constexpr int kConnections = 4;
  constexpr int kRequestsPerConnection = 200;
  std::vector<int> mismatches(kConnections, 0);
  std::vector<std::string> errors(kConnections);
  std::vector<std::thread> clients;
  for (int c = 0; c < kConnections; ++c) {
    clients.emplace_back([&, c] {
      const int fd = server::connect_tcp(port());
      try {
        for (int i = 0; i < kRequestsPerConnection; ++i) {
          const int which = (c + i) % 2;
          api::SynthesisRequest req;
          req.library = cells::lsi_library().name();
          req.spec = specs[which];
          server::write_frame(fd, synthesize_frame(req));
          std::string payload;
          if (!server::read_frame(fd, payload)) {
            throw Error("connection closed after " + std::to_string(i) +
                        " responses");
          }
          const api::SynthesisResult res =
              api::SynthesisResult::from_json(payload);
          if (!res.ok() || !api::front_matches(res, expected[which],
                                               /*with_vhdl=*/false)) {
            ++mismatches[c];
          }
        }
      } catch (const std::exception& e) {
        errors[c] = e.what();
      }
      server::close_socket(fd);
    });
  }
  for (std::thread& t : clients) t.join();
  for (int c = 0; c < kConnections; ++c) {
    EXPECT_EQ(errors[c], "") << "connection " << c;
    EXPECT_EQ(mismatches[c], 0) << "connection " << c;
  }
  EXPECT_GE(server_->requests_handled(), kConnections * kRequestsPerConnection);
  EXPECT_EQ(server_->errors_returned(), 0);
}

TEST_F(ServerTest, RequestCannotChangeProcessWideState) {
  // The span tracer and the shared TemplateCache's budget belong to the
  // process. A request naming a trace file and a 1-byte template budget
  // is served, and neither setting moves: decode ignores both keys.
  const bool traced_before = obs::Tracer::enabled();
  const std::size_t budget_before = dtas::TemplateCache::global().budget_bytes();
  api::SynthesisRequest req;
  req.library = cells::lsi_library().name();
  req.spec = genus::make_adder_spec(8);
  Json frame = req.encode();
  frame.set("method", "synthesize");
  Json options = *frame.find("options");
  options.set("trace_path", ::testing::TempDir() + "server_request_trace.json")
      .set("template_cache_budget_bytes", 1);
  frame.set("options", std::move(options));
  const api::SynthesisResult res =
      api::SynthesisResult::from_json(rpc(port(), frame.dump()));
  EXPECT_TRUE(res.ok()) << res.error;
  EXPECT_EQ(obs::Tracer::enabled(), traced_before);
  EXPECT_EQ(dtas::TemplateCache::global().budget_bytes(), budget_before);
}

TEST_F(ServerTest, SequentialRequestsShareOneWarmSession) {
  // Requests that do not overlap share one warm session, whichever
  // connection they come from: eight connections in turn, against four
  // slots, build one session, and every reply after the first is warm.
  start_server(4);
  obs::Counter& built =
      obs::Registry::global().counter("server.sessions_built");
  obs::Gauge& sessions = obs::Registry::global().gauge("server.sessions");
  const long built_before = built.value();
  const long sessions_before = sessions.value();
  api::SynthesisRequest req;
  req.library = cells::lsi_library().name();
  req.spec = genus::make_alu_spec(16, genus::alu16_ops());
  for (int i = 0; i < 8; ++i) {
    SCOPED_TRACE(i);
    const api::SynthesisResult res = synthesize_over_wire(port(), req);
    ASSERT_TRUE(res.ok()) << res.error;
    if (i == 0) {
      EXPECT_GT(res.stats.extraction_cache_misses, 0);
      continue;
    }
    EXPECT_EQ(res.stats.extraction_cache_misses, 0);
    EXPECT_EQ(res.stats.combinations_evaluated, 0);
  }
  EXPECT_EQ(built.value() - built_before, 1);
  EXPECT_EQ(sessions.value() - sessions_before, 1);
  server_->stop();  // the server drops its sessions
  EXPECT_EQ(sessions.value(), sessions_before);
}

TEST_F(ServerTest, ConcurrentRequestsNeverExceedWorkers) {
  // Eight connections, two libraries, two option sets, three specs, all
  // against the fixture's two slots: at most two requests synthesize at
  // once, a key never holds more sessions than there are slots, and
  // every front matches in-process synthesis.
  const std::string libraries[] = {cells::lsi_library().name(),
                                   cells::ttl_library().name()};
  const genus::ComponentSpec specs[] = {
      genus::make_adder_spec(16),
      genus::make_mux_spec(8, 4),
      genus::make_alu_spec(16, genus::alu16_ops()),
  };
  auto options_for = [](int variant) {
    api::RequestOptions o;
    if (variant == 1) o.max_alternatives_per_node = 8;
    return o;
  };
  constexpr int kConnections = 8;
  constexpr int kRequestsPerConnection = 3;
  std::vector<std::vector<api::SynthesisRequest>> plans(kConnections);
  std::set<std::string> keys;
  for (int c = 0; c < kConnections; ++c) {
    for (int r = 0; r < kRequestsPerConnection; ++r) {
      api::SynthesisRequest req;
      req.library = libraries[c % 2];
      req.spec = specs[(c + r) % 3];
      req.options = options_for((c / 2) % 2);
      keys.insert(req.library + "|" + req.options.fingerprint());
      plans[c].push_back(std::move(req));
    }
  }
  // In-process references, one fresh session per (library, options).
  auto expected_front = [&](const api::SynthesisRequest& req) {
    dtas::Synthesizer direct(registry_.at(req.library),
                             req.options.space_options());
    return direct.synthesize(*req.spec);
  };

  obs::Gauge& in_flight = obs::Registry::global().gauge("server.in_flight");
  in_flight.reset();
  obs::Counter& built =
      obs::Registry::global().counter("server.sessions_built");
  const long built_before = built.value();
  std::vector<std::vector<api::SynthesisResult>> results(kConnections);
  std::vector<std::string> errors(kConnections);
  std::vector<std::thread> clients;
  for (int c = 0; c < kConnections; ++c) {
    clients.emplace_back([&, c] {
      const int fd = server::connect_tcp(port());
      try {
        for (const api::SynthesisRequest& req : plans[c]) {
          server::write_frame(fd, synthesize_frame(req));
          std::string payload;
          if (!server::read_frame(fd, payload)) {
            throw Error("connection closed mid-plan");
          }
          results[c].push_back(api::SynthesisResult::from_json(payload));
        }
      } catch (const std::exception& e) {
        errors[c] = e.what();
      }
      server::close_socket(fd);
    });
  }
  for (std::thread& t : clients) t.join();

  for (int c = 0; c < kConnections; ++c) {
    SCOPED_TRACE(c);
    EXPECT_EQ(errors[c], "");
    ASSERT_EQ(results[c].size(), plans[c].size());
    for (std::size_t r = 0; r < plans[c].size(); ++r) {
      ASSERT_TRUE(results[c][r].ok()) << results[c][r].error;
      EXPECT_TRUE(api::front_matches(results[c][r],
                                     expected_front(plans[c][r]),
                                     /*with_vhdl=*/false))
          << "request " << r << " differs from in-process synthesis";
    }
  }
  EXPECT_GE(in_flight.peak(), 1);
  EXPECT_LE(in_flight.peak(), 2);
  EXPECT_EQ(in_flight.value(), 0);
  const long built_now = built.value() - built_before;
  EXPECT_GE(built_now, static_cast<long>(keys.size()));
  EXPECT_LE(built_now, 2 * static_cast<long>(keys.size()));
}

TEST_F(ServerTest, FailedSessionBuildFreesItsSlot) {
  // An unknown filter name decodes but fails the session build. With one
  // slot, a build failure that kept its slot would leave the next
  // request on the connection waiting forever.
  start_server(1);
  api::SynthesisRequest req;
  req.library = cells::lsi_library().name();
  req.spec = genus::make_adder_spec(8);
  api::SynthesisRequest bad = req;
  bad.options.filter = "bogus";
  const int fd = server::connect_tcp(port());
  std::string payload;
  server::write_frame(fd, synthesize_frame(bad));
  ASSERT_TRUE(server::read_frame(fd, payload));
  const api::SynthesisResult rejected = api::SynthesisResult::from_json(payload);
  EXPECT_EQ(rejected.status, "error");
  EXPECT_NE(rejected.error.find("bogus"), std::string::npos) << rejected.error;

  server::write_frame(fd, synthesize_frame(req));
  ASSERT_TRUE(server::read_frame(fd, payload));
  server::close_socket(fd);
  const api::SynthesisResult served = api::SynthesisResult::from_json(payload);
  ASSERT_TRUE(served.ok()) << served.error;
  dtas::Synthesizer direct(cells::lsi_library());
  EXPECT_TRUE(api::front_matches(served, direct.synthesize(*req.spec),
                                 /*with_vhdl=*/false));
}

TEST_F(ServerTest, ShutdownMethodUnblocksWait) {
  std::thread waiter([this] { server_->wait(); });
  const Json res = Json::parse(
      rpc(port(), Json::object().set("method", "shutdown").dump()));
  EXPECT_EQ(res.at("status").string_value(), "ok");
  waiter.join();  // wait() returned: the shutdown request landed
  server_->stop();
  EXPECT_FALSE(server_->running());
}

TEST(ServerRetargetTest, ContentIdenticalReloadReusesWarmSession) {
  // The retargeting loop a synthesis service actually sees: a client
  // re-registers a .lib it just re-read from disk. Sessions are keyed by
  // library *content* fingerprint, so an identical-content reload maps
  // back onto the warm session (extraction served from cache), while any
  // content edit gets a fresh cold one. The requests never overlap, so
  // each key keeps one session and the cache-delta assertions are exact.
  auto registry = cells::LibraryRegistry::with_builtins();
  server::ServerOptions options;
  options.tcp_port = 0;
  options.workers = 1;
  server::SynthesisServer srv(registry, options);
  srv.start();

  api::SynthesisRequest req;
  req.library = cells::ttl_library().name();
  req.spec = genus::make_alu_spec(16, genus::alu16_ops());
  req.options.emit_vhdl = true;

  const api::SynthesisResult cold = synthesize_over_wire(srv.port(), req);
  ASSERT_TRUE(cold.ok()) << cold.error;
  EXPECT_GT(cold.stats.extraction_cache_misses, 0);

  // Reload with identical content: a brand-new CellLibrary instance, the
  // same fingerprint. The old instance stays alive (the running session
  // references it), and the next request lands on the warm session.
  registry.replace(cells::ttl_library());
  const api::SynthesisResult warm = synthesize_over_wire(srv.port(), req);
  ASSERT_TRUE(warm.ok()) << warm.error;
  EXPECT_EQ(warm.stats.extraction_cache_misses, 0)
      << "identical-content reload must not re-materialize anything";
  EXPECT_GT(warm.stats.extraction_cache_hits, 0);
  ASSERT_EQ(warm.alternatives.size(), cold.alternatives.size());
  for (size_t i = 0; i < warm.alternatives.size(); ++i) {
    EXPECT_EQ(warm.alternatives[i].area, cold.alternatives[i].area) << i;
    EXPECT_EQ(warm.alternatives[i].delay, cold.alternatives[i].delay) << i;
    EXPECT_EQ(warm.alternatives[i].description,
              cold.alternatives[i].description) << i;
    EXPECT_EQ(warm.alternatives[i].vhdl, cold.alternatives[i].vhdl) << i;
  }

  // Edited reload: one extra cell changes the fingerprint, so the next
  // request gets a fresh session and starts cold again.
  cells::CellLibrary edited = cells::ttl_library();
  cells::Cell extra;
  extra.name = "XTRA1";
  extra.spec = genus::make_gate_spec(genus::Op::kAnd, 1, 2);
  extra.area = 1.0;
  extra.delay_ns = 1.0;
  edited.add(extra);
  registry.replace(std::move(edited));
  const api::SynthesisResult recold = synthesize_over_wire(srv.port(), req);
  ASSERT_TRUE(recold.ok()) << recold.error;
  EXPECT_GT(recold.stats.extraction_cache_misses, 0)
      << "a content edit must not reuse the stale warm session";
  srv.stop();
}

TEST(ServerUnixTest, UnixSocketEndpointServes) {
  auto registry = cells::LibraryRegistry::with_builtins();
  server::ServerOptions options;
  options.unix_path = "/tmp/bridge_server_test.sock";
  options.workers = 1;
  server::SynthesisServer srv(registry, options);
  srv.start();
  EXPECT_EQ(srv.endpoint(), "unix:/tmp/bridge_server_test.sock");

  api::SynthesisRequest req;
  req.library = cells::lsi_library().name();
  req.spec = genus::make_adder_spec(8);
  Json j = req.encode();
  j.set("method", "synthesize");
  const int fd = server::connect_unix(options.unix_path);
  server::write_frame(fd, j.dump());
  std::string payload;
  ASSERT_TRUE(server::read_frame(fd, payload));
  server::close_socket(fd);
  EXPECT_TRUE(api::SynthesisResult::from_json(payload).ok());
  srv.stop();
}

}  // namespace
}  // namespace bridge
