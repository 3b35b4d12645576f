// ksym_bench: the repository benchmark. See README.md beside this file for
// the workloads, the metrics and what each per-layer metric should move.
//
//   ksym_bench --workload NAME --seed N --seconds S --trace 0|1
//              --workdir DIR [--commit ID]
//
// --trace 0 sets the workload up several times, measures it for S seconds
// with two closed-loop clients, checks every output, and prints the
// end-to-end metrics. --trace 1 sets it up once and replays the same
// inputs and scripts through the program's layers in-process, once with
// tracing off and once on, and prints the per-layer metrics. The last line
// of stdout is always one JSON object.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "attack/measures.h"
#include "attack/reidentification.h"
#include "aut/orbits.h"
#include "aut/refinement.h"
#include "aut/search.h"
#include "bench_client.h"
#include "bench_inputs.h"
#include "bench_trace.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/timer.h"
#include "datasets/datasets.h"
#include "dyn/delta_graph.h"
#include "dyn/edits.h"
#include "dyn/repair.h"
#include "graph/algorithms.h"
#include "graph/generators.h"
#include "graph/io.h"
#include "ksym/anonymizer.h"
#include "ksym/release_io.h"
#include "ksym/sampling.h"
#include "ksym/verifier.h"
#include "serve/api.h"
#include "serve/server.h"
#include "serve/wire.h"
#include "simd/simd.h"

#ifndef KSYMBENCH_BUILD_TYPE
#define KSYMBENCH_BUILD_TYPE "unknown"
#endif

namespace ksymbench {
namespace {

using ksym::Graph;
using ksym::Result;
using ksym::Status;
using ksym::Timer;
using ksym::serve::WireObject;
using ksym::serve::WireValue;

// ---------------------------------------------------------------------------
// Fixed workload parameters.
// ---------------------------------------------------------------------------

constexpr uint32_t kK = 2;                  // Release k, every publisher.
constexpr uint32_t kAuditK = 5;
constexpr uint64_t kSamplesPerRequest = 2;
constexpr uint32_t kSampleThreads = 1;
constexpr size_t kSampleSlots = 3;          // Analyst releases, audit graphs.
constexpr size_t kEpochInserts = 50;
constexpr size_t kEpochDeletes = 50;
constexpr size_t kTraceEpochs = 800;        // Far more than a run consumes.
constexpr size_t kTracedRounds = 2;         // Script replays by --trace 1.
constexpr size_t kTracedEpochs = 4;         // Epochs per replay.
constexpr double kCompactRatio = 0.25;      // The mutate op's default.
constexpr int kSetups = 3;                  // Set-ups per run (median).
constexpr size_t kSocialVertices = 100000;
constexpr size_t kAnalystVertices = 10000;

enum class Publisher { kPasses, kEpochs };

struct Spec {
  const char* name;
  Publisher publisher;
  uint32_t daemon_budget;  // Compute threads the daemon may use.
};

// serve_mixed runs its two clients side by side on a daemon with three
// worker threads. Each client keeps one single-thread request in flight
// (the publisher's reanonymize; the analyst's sample or audit), so at most
// two threads compute at once and the 4-core host keeps room for the
// daemon's and clients' own threads. publish runs its publisher alone, as
// the CLI does, then the analyst alone (MeasuredRun).
constexpr Spec kSpecs[] = {
    {"publish", Publisher::kPasses, 2},
    {"serve_mixed", Publisher::kEpochs, 3},
};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir;
  std::string commit = "unknown";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      args->trace = value == "1";
    } else if (key == "--workdir") {
      args->workdir = value;
    } else if (key == "--commit") {
      args->commit = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && !args->workdir.empty() &&
         args->seconds > 0.0;
}

// ---------------------------------------------------------------------------
// Small helpers.
// ---------------------------------------------------------------------------

/// FNV-1a over a file's bytes; 0 if unreadable.
uint64_t HashFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return 0;
  const std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

uint64_t FileSize(const std::string& path) {
  std::error_code ec;
  const auto size = std::filesystem::file_size(path, ec);
  return ec ? 0 : static_cast<uint64_t>(size);
}

/// The unsigned number printed just before `suffix` in `text`, or ~0.
uint64_t NumberBefore(const std::string& text, const char* suffix) {
  const size_t at = text.find(suffix);
  if (at == std::string::npos || at == 0) return ~uint64_t{0};
  size_t begin = at;
  while (begin > 0 && text[begin - 1] >= '0' && text[begin - 1] <= '9') {
    --begin;
  }
  if (begin == at) return ~uint64_t{0};
  return std::strtoull(text.substr(begin, at - begin).c_str(), nullptr, 10);
}

/// Sum of the vertex counts of the sample lines ("  path: N vertices, ...")
/// in a sample report.
uint64_t SampledVertices(const std::string& report) {
  uint64_t total = 0;
  size_t pos = 0;
  while (pos < report.size()) {
    const size_t end = std::min(report.find('\n', pos), report.size());
    const std::string line = report.substr(pos, end - pos);
    const size_t colon = line.rfind(": ");
    if (line.compare(0, 2, "  ") == 0 && colon != std::string::npos) {
      total += std::strtoull(line.c_str() + colon + 2, nullptr, 10);
    }
    pos = end + 1;
  }
  return total;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// The highest percentile with at least ten samples beyond it: the value
/// at rank n-11 (0-based) of the sorted samples. With fewer than eleven
/// samples no such percentile exists and the maximum stands in.
struct Tail {
  double value = 0.0;
  double percentile = 100.0;
  size_t samples = 0;
};

Tail TailOf(std::vector<double> values) {
  Tail tail;
  tail.samples = values.size();
  if (values.empty()) return tail;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  if (n < 11) {
    tail.value = values.back();
    return tail;
  }
  tail.value = values[n - 11];
  tail.percentile =
      100.0 * static_cast<double>(n - 10) / static_cast<double>(n);
  return tail;
}

double PeakRssMiB() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

WireObject Request(const char* op) {
  WireObject object;
  object.Set("op", WireValue::String(op));
  return object;
}

/// A response's failure, or Ok for status "ok".
Status ResponseStatus(const Result<WireObject>& response) {
  if (!response.ok()) return response.status();
  const std::string status = response->GetString("status");
  if (status == "ok") return Status::Ok();
  return Status::Internal(status + ": " + response->GetString("error"));
}

/// Failures seen by a run: each one counts in `failed` and the first few
/// are printed to stderr.
struct Failures {
  uint64_t count = 0;
  void Add(const std::string& what) {
    if (++count <= 20) std::fprintf(stderr, "FAILED: %s\n", what.c_str());
  }
};

// ---------------------------------------------------------------------------
// Set-up: inputs, daemon, session, warm caches.
// ---------------------------------------------------------------------------

/// One input of the publish pass and how it is anonymized.
struct PublishInput {
  std::string path;
  bool tdv = false;  // --tdv; otherwise exact orbits.
  uint32_t threads = 1;
};

struct Env {
  const Spec* spec = nullptr;
  std::string dir;
  std::vector<PublishInput> publish_inputs;  // publish: the input list.
  std::vector<std::string> publish_outputs;  // publish: the traced run's.
  std::string session_input;                 // serve_mixed.
  Graph session_base;
  std::vector<ksym::dyn::EditBatch> trace;
  std::vector<std::string> trace_text;
  // Analyst slot j samples release j with seed j and audits graph j.
  std::string analyst_releases[kSampleSlots];
  std::string audit_inputs[kSampleSlots];
  uint64_t sample_seeds[kSampleSlots] = {};
  std::string socket;
  std::unique_ptr<ksym::serve::Server> server;
};

std::string SamplePrefix(const Env& env, size_t slot) {
  return env.dir + "/sample_" + std::to_string(slot);
}

WireObject SampleWire(const Env& env, size_t slot) {
  WireObject request = Request("sample");
  request.Set("release", WireValue::String(env.analyst_releases[slot]));
  request.Set("output_prefix", WireValue::String(SamplePrefix(env, slot)));
  request.Set("samples", WireValue::Uint(kSamplesPerRequest));
  request.Set("seed", WireValue::Uint(env.sample_seeds[slot]));
  request.Set("threads", WireValue::Uint(kSampleThreads));
  return request;
}

WireObject AuditWire(const Env& env, size_t slot) {
  WireObject request = Request("audit");
  request.Set("input", WireValue::String(env.audit_inputs[slot]));
  request.Set("k", WireValue::Uint(kAuditK));
  request.Set("tdv", WireValue::Bool(true));
  request.Set("threads", WireValue::Uint(1));
  return request;
}

WireObject MutateWire(const std::string& edits) {
  WireObject request = Request("mutate");
  request.Set("session", WireValue::String("bench"));
  request.Set("edits", WireValue::String(edits));
  return request;
}

WireObject CommitWire() {
  WireObject request = Request("commit");
  request.Set("session", WireValue::String("bench"));
  return request;
}

WireObject ReanonymizeWire(const std::string& output) {
  WireObject request = Request("reanonymize");
  request.Set("session", WireValue::String("bench"));
  request.Set("output", WireValue::String(output));
  request.Set("k", WireValue::Uint(kK));
  request.Set("binary", WireValue::Bool(true));
  request.Set("threads", WireValue::Uint(1));
  return request;
}

ksym::serve::AnonymizeRequest PublishRequest(const Env& env, size_t i,
                                             const std::string& output) {
  ksym::serve::AnonymizeRequest request;
  request.input = env.publish_inputs[i].path;
  request.output = output;
  request.k = kK;
  request.tdv = env.publish_inputs[i].tdv;
  request.binary = true;
  request.threads = env.publish_inputs[i].threads;
  return request;
}

Result<std::unique_ptr<Env>> SetUp(const Spec& spec, const Args& args) {
  auto env = std::make_unique<Env>();
  env->spec = &spec;
  env->dir = args.workdir;
  std::error_code ec;
  std::filesystem::create_directories(env->dir, ec);
  if (ec) return Status::IoError("cannot create " + env->dir);
  const uint64_t seed = args.seed;

  // Publisher inputs: the paper's three stand-ins with exact orbits at
  // threads=1, then two 100k graphs with --tdv at threads=2.
  if (spec.publisher == Publisher::kPasses) {
    ksym::Rng ba_rng(SubSeed(seed, 5));
    const std::tuple<const char*, Graph, bool, uint32_t> graphs[] = {
        {"enron", ksym::MakeEnronLike(SubSeed(seed, 1)), false, 1},
        {"hepth", ksym::MakeHepthLike(SubSeed(seed, 2)), false, 1},
        {"net_trace", ksym::MakeNetTraceLike(SubSeed(seed, 3)), false, 1},
        {"social_100k", MakeSocialGraph(kSocialVertices, SubSeed(seed, 4)),
         true, 2},
        {"ba_100k_4", ksym::BarabasiAlbert(kSocialVertices, 4, ba_rng), true,
         2},
    };
    for (const auto& [name, graph, tdv, threads] : graphs) {
      env->publish_inputs.push_back(
          {env->dir + "/" + name + ".ksymcsr", tdv, threads});
      KSYM_RETURN_IF_ERROR(
          ksym::WriteCsrFile(graph, {}, env->publish_inputs.back().path));
    }
  } else {
    env->session_base = MakeSocialGraph(kSocialVertices, SubSeed(seed, 4));
    env->session_input = env->dir + "/social_100k.ksymcsr";
    KSYM_RETURN_IF_ERROR(
        ksym::WriteCsrFile(env->session_base, {}, env->session_input));
    env->trace = MakeEditTrace(env->session_base, kTraceEpochs, kEpochInserts,
                               kEpochDeletes, SubSeed(seed, 6));
    // The trace must be valid before the run: replay it on a plain
    // edge-set model.
    KSYM_RETURN_IF_ERROR(
        ApplyEditTrace(env->session_base, env->trace, env->trace.size())
            .status());
    for (const auto& batch : env->trace) {
      env->trace_text.push_back(ksym::dyn::FormatEditList(batch));
    }
  }
  for (size_t i = 0; i < env->publish_inputs.size(); ++i) {
    env->publish_outputs.push_back(env->dir + "/release_" + std::to_string(i) +
                                   ".ksymcsr");
  }

  // Analyst inputs: three social-10k graphs and their k=2 TDV releases to
  // sample, and three Hepth stand-ins to audit (the first is the publisher's).
  // Three of each spread a run over more than one graph's cost.
  for (size_t j = 0; j < kSampleSlots; ++j) {
    const std::string stem = env->dir + "/social_10k_" + std::to_string(j);
    KSYM_RETURN_IF_ERROR(ksym::WriteCsrFile(
        MakeSocialGraph(kAnalystVertices, SubSeed(seed, 7 + j)), {},
        stem + ".ksymcsr"));
    env->analyst_releases[j] = stem + ".release.ksymcsr";
    ksym::serve::AnonymizeRequest make_release;
    make_release.input = stem + ".ksymcsr";
    make_release.output = env->analyst_releases[j];
    make_release.k = kK;
    make_release.tdv = true;
    make_release.binary = true;
    KSYM_RETURN_IF_ERROR(ksym::serve::RunAnonymize(make_release).status());
    env->audit_inputs[j] =
        env->dir + "/hepth_" + std::to_string(j) + ".ksymcsr";
    KSYM_RETURN_IF_ERROR(ksym::WriteCsrFile(
        ksym::MakeHepthLike(SubSeed(seed, j == 0 ? 2 : 10 + j)), {},
        env->audit_inputs[j]));
    env->sample_seeds[j] = SubSeed(seed, 100 + j) % 1000000007ull;
  }

  // The daemon.
  env->socket = env->dir + "/d.sock";
  ksym::serve::ServerOptions options;
  options.socket_path = env->socket;
  options.thread_budget = spec.daemon_budget;
  env->server = std::make_unique<ksym::serve::Server>(options);
  KSYM_RETURN_IF_ERROR(env->server->Start());

  // The session and its first full reanonymize; then load every analyst
  // input into the graph cache with one small request each.
  DaemonClient client;
  KSYM_RETURN_IF_ERROR(client.Connect(env->socket));
  if (spec.publisher == Publisher::kEpochs) {
    WireObject create = Request("mutate");
    create.Set("session", WireValue::String("bench"));
    create.Set("input", WireValue::String(env->session_input));
    KSYM_RETURN_IF_ERROR(ResponseStatus(client.Call(create)));
    KSYM_RETURN_IF_ERROR(ResponseStatus(
        client.Call(ReanonymizeWire(env->dir + "/epoch_0.ksymcsr"))));
  }
  for (size_t j = 0; j < kSampleSlots; ++j) {
    WireObject warm = SampleWire(*env, j);
    warm.Set("samples", WireValue::Uint(1));
    KSYM_RETURN_IF_ERROR(ResponseStatus(client.Call(warm)));
    KSYM_RETURN_IF_ERROR(ResponseStatus(client.Call(AuditWire(*env, j))));
  }
  return env;
}

// ---------------------------------------------------------------------------
// Output checks shared by both modes.
// ---------------------------------------------------------------------------

/// Naive equitability: every member of a cell sees the same multiset of
/// neighbour cells.
bool IsEquitable(const Graph& graph, const ksym::VertexPartition& partition) {
  std::vector<uint32_t> reference;
  std::vector<uint32_t> seen;
  for (const auto& cell : partition.cells) {
    reference.clear();
    for (ksym::VertexId w : graph.Neighbors(cell.front())) {
      reference.push_back(partition.cell_of[w]);
    }
    std::sort(reference.begin(), reference.end());
    for (ksym::VertexId v : cell) {
      seen.clear();
      for (ksym::VertexId w : graph.Neighbors(v)) {
        seen.push_back(partition.cell_of[w]);
      }
      std::sort(seen.begin(), seen.end());
      if (seen != reference) return false;
    }
  }
  return true;
}

/// The --tdv releases' checks: cells of at least k, a supergraph of the
/// input, equitable cells.
void CheckTdvRelease(const std::string& input, const std::string& release_path,
                     Failures& failures) {
  auto graph = ksym::ReadGraphAuto(input);
  auto release = ksym::ReadReleaseCsrFile(release_path);
  if (!graph.ok() || !release.ok()) {
    failures.Add("cannot read " + release_path);
    return;
  }
  for (const auto& cell : release->partition.cells) {
    if (cell.size() < kK) {
      failures.Add(release_path + ": a cell has fewer than k vertices");
      break;
    }
  }
  if (!ksym::IsSupergraphOf(release->graph, graph->graph)) {
    failures.Add(release_path + ": release is not a supergraph of the input");
  }
  if (!IsEquitable(release->graph, release->partition)) {
    failures.Add(release_path + ": release cells are not equitable");
  }
}

/// The release the one-shot `ksym_anonymize --tdv --binary` writes for
/// `graph`, hashed.
Result<uint64_t> ReferenceTdvReleaseHash(const Graph& graph,
                                         const std::string& stem) {
  const std::string input = stem + ".input.ksymcsr";
  const std::string output = stem + ".release.ksymcsr";
  KSYM_RETURN_IF_ERROR(ksym::WriteCsrFile(graph, {}, input));
  ksym::serve::AnonymizeRequest request;
  request.input = input;
  request.output = output;
  request.k = kK;
  request.tdv = true;
  request.binary = true;
  KSYM_RETURN_IF_ERROR(ksym::serve::RunAnonymize(request).status());
  return HashFile(output);
}

uint64_t HashSampleFiles(const std::string& prefix) {
  uint64_t h = 0;
  for (uint64_t i = 0; i < kSamplesPerRequest; ++i) {
    h = ksym::dyn::HashCombine(
        h, HashFile(prefix + "." + std::to_string(i) + ".edges"));
  }
  return h;
}

// ---------------------------------------------------------------------------
// --trace 0: the measured run.
// ---------------------------------------------------------------------------

/// What one publish pass left behind, per input, for the repeat checks.
struct PassRecord {
  uint64_t hash = 0;
  uint64_t bytes = 0;
  uint64_t copy_ops = 0;
  uint64_t cells_split = 0;
};

struct PublisherResult {
  std::vector<double> release_s;
  uint64_t attempted = 0;
  Failures failures;
  std::vector<std::vector<PassRecord>> passes;  // publish.
  std::vector<std::string> last_outputs;        // publish: the last pass's.
  size_t epochs = 0;                            // serve_mixed.
  std::string first_epoch_output;
  std::string last_epoch_output;
  size_t repairs = 0;
};

struct AnalystResult {
  std::vector<double> sample_ms;
  std::vector<double> audit_ms;
  uint64_t attempted = 0;
  Failures failures;
  std::vector<uint64_t> hashes[kSampleSlots];
  std::vector<uint64_t> vertices[kSampleSlots];
  std::vector<std::string> audit_reports[kSampleSlots];
};

using Clock = std::chrono::steady_clock;

// Each release in the measured run goes to a file of its own, as a
// publisher keeping its releases would have it. Truncating a file that
// still holds the previous release makes ext4 flush it on close and wait
// for that write-back, which would put the disk of a shared host in the
// timed region. A release the checks no longer need is removed between
// timed requests, while its pages are still unwritten.
void RemoveFile(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove(path, ec);
}

void RunPublishPasses(const Env& env, Clock::time_point deadline,
                      PublisherResult* out) {
  for (size_t p = 0; Clock::now() < deadline; ++p) {
    std::vector<std::string> outputs;
    for (size_t i = 0; i < env.publish_inputs.size(); ++i) {
      outputs.push_back(env.dir + "/release_" + std::to_string(p) + "_" +
                        std::to_string(i) + ".ksymcsr");
    }
    std::vector<ksym::serve::Response> responses;
    Timer pass;
    bool ok = true;
    for (size_t i = 0; i < env.publish_inputs.size(); ++i) {
      ++out->attempted;
      auto response =
          ksym::serve::RunAnonymize(PublishRequest(env, i, outputs[i]));
      if (!response.ok()) {
        out->failures.Add("anonymize " + env.publish_inputs[i].path + ": " +
                          response.status().ToString());
        ok = false;
        break;
      }
      responses.push_back(std::move(response).value());
    }
    const double seconds = pass.ElapsedSeconds();
    if (!ok) break;
    out->release_s.push_back(seconds);
    std::vector<PassRecord> records;
    for (size_t i = 0; i < responses.size(); ++i) {
      PassRecord record;
      record.hash = HashFile(outputs[i]);
      record.bytes = FileSize(outputs[i]);
      record.copy_ops = NumberBefore(responses[i].report, " copy operations");
      record.cells_split = NumberBefore(responses[i].log, " cells split");
      records.push_back(record);
    }
    out->passes.push_back(std::move(records));
    for (const std::string& old : out->last_outputs) RemoveFile(old);
    out->last_outputs = std::move(outputs);
  }
}

void RunEpochs(const Env& env, Clock::time_point deadline,
               PublisherResult* out) {
  DaemonClient client;
  if (Status s = client.Connect(env.socket); !s.ok()) {
    out->failures.Add("publisher connect: " + s.ToString());
    return;
  }
  // The checks keep epoch 1's release and the last one.
  for (size_t e = 0; e < env.trace.size() && Clock::now() < deadline; ++e) {
    const std::string output =
        env.dir + "/epoch_" + std::to_string(e + 1) + ".ksymcsr";
    Timer epoch;
    out->attempted += 3;
    const auto mutate = client.Call(MutateWire(env.trace_text[e]));
    Status status = ResponseStatus(mutate);
    Result<WireObject> reanonymize = Status::Internal("not sent");
    if (status.ok()) status = ResponseStatus(client.Call(CommitWire()));
    if (status.ok()) {
      reanonymize = client.Call(ReanonymizeWire(output));
      status = ResponseStatus(reanonymize);
    }
    const double seconds = epoch.ElapsedSeconds();
    if (!status.ok()) {
      // The session no longer follows the trace; stop publishing.
      out->failures.Add("epoch " + std::to_string(e + 1) + ": " +
                        status.ToString());
      return;
    }
    out->release_s.push_back(seconds);
    if (reanonymize->GetString("report").find("via incremental-repair") !=
        std::string::npos) {
      ++out->repairs;
    }
    if (e == 0) {
      out->first_epoch_output = output;
    } else if (e > 1) {
      RemoveFile(out->last_epoch_output);
    }
    out->last_epoch_output = output;
    out->epochs = e + 1;
  }
}

void RunAnalyst(const Env& env, Clock::time_point deadline,
                AnalystResult* out) {
  DaemonClient client;
  if (Status s = client.Connect(env.socket); !s.ok()) {
    out->failures.Add("analyst connect: " + s.ToString());
    return;
  }
  // Each cycle: the three sample slots, then the audit of one slot in turn.
  for (size_t n = 0; Clock::now() < deadline; ++n) {
    const bool audit = n % (kSampleSlots + 1) == kSampleSlots;
    const size_t slot =
        audit ? n / (kSampleSlots + 1) % kSampleSlots : n % (kSampleSlots + 1);
    Timer timer;
    const auto response =
        client.Call(audit ? AuditWire(env, slot) : SampleWire(env, slot));
    const double ms = timer.ElapsedMillis();
    ++out->attempted;
    if (Status s = ResponseStatus(response); !s.ok()) {
      out->failures.Add(std::string(audit ? "audit: " : "sample: ") +
                        s.ToString());
      continue;
    }
    const std::string report = response->GetString("report");
    if (audit) {
      out->audit_ms.push_back(ms);
      out->audit_reports[slot].push_back(report);
    } else {
      out->sample_ms.push_back(ms);
      out->hashes[slot].push_back(HashSampleFiles(SamplePrefix(env, slot)));
      out->vertices[slot].push_back(SampledVertices(report));
    }
  }
}

template <typename T>
bool AllEqual(const std::vector<T>& values) {
  return std::adjacent_find(values.begin(), values.end(),
                            std::not_equal_to<T>()) == values.end();
}

/// Output and exact-repeat checks after the measured run.
void CheckMeasuredRun(const Env& env, const PublisherResult& publisher,
                      const AnalystResult& analyst, Failures& failures) {
  // Exact repeats across the passes of this run.
  for (size_t i = 0; i < env.publish_inputs.size(); ++i) {
    std::vector<uint64_t> hash, bytes, copy_ops, cells_split;
    for (const auto& pass : publisher.passes) {
      hash.push_back(pass[i].hash);
      bytes.push_back(pass[i].bytes);
      copy_ops.push_back(pass[i].copy_ops);
      cells_split.push_back(pass[i].cells_split);
    }
    const std::string& input = env.publish_inputs[i].path;
    if (!AllEqual(hash)) failures.Add(input + ": release bytes differ");
    if (!AllEqual(bytes)) failures.Add(input + ": release_bytes differ");
    if (!AllEqual(copy_ops)) failures.Add(input + ": copy_ops differ");
    if (!AllEqual(cells_split)) failures.Add(input + ": cells_split differ");
  }
  for (size_t j = 0; j < kSampleSlots; ++j) {
    if (!AllEqual(analyst.hashes[j])) {
      failures.Add("sample files differ for one seed");
    }
    if (!AllEqual(analyst.vertices[j])) {
      failures.Add("ksym.sampled_vertices does not repeat");
    }
  }

  // publish: each exact release equals the --tdv release of its input;
  // each --tdv release passes the k, supergraph and equitability checks.
  for (size_t i = 0; !publisher.passes.empty() && i < env.publish_inputs.size();
       ++i) {
    const PublishInput& input = env.publish_inputs[i];
    if (input.tdv) {
      CheckTdvRelease(input.path, publisher.last_outputs[i], failures);
      continue;
    }
    const std::string reference =
        env.dir + "/tdv_" + std::to_string(i) + ".ksymcsr";
    ksym::serve::AnonymizeRequest request = PublishRequest(env, i, reference);
    request.tdv = true;
    if (!ksym::serve::RunAnonymize(request).ok() ||
        HashFile(reference) != publisher.passes.back()[i].hash) {
      failures.Add(input.path +
                   ": exact release differs from the --tdv release");
    }
  }
  // serve_mixed: epoch 1 and the last epoch against from-scratch runs.
  if (env.spec->publisher == Publisher::kEpochs && publisher.epochs > 0) {
    const std::pair<size_t, std::string> checked[] = {
        {1, publisher.first_epoch_output},
        {publisher.epochs, publisher.last_epoch_output}};
    bool matches[2] = {false, false};
    std::vector<std::thread> workers;
    for (size_t c = 0; c < 2; ++c) {
      workers.emplace_back([&, c] {
        const auto& [epoch, output] = checked[c];
        auto graph = ApplyEditTrace(env.session_base, env.trace, epoch);
        const std::string stem =
            env.dir + "/check_" + std::to_string(c) + "_epoch";
        auto reference = graph.ok() ? ReferenceTdvReleaseHash(*graph, stem)
                                    : Result<uint64_t>(graph.status());
        matches[c] = reference.ok() && *reference == HashFile(output);
      });
    }
    for (std::thread& worker : workers) worker.join();
    for (size_t c = 0; c < 2; ++c) {
      if (!matches[c]) {
        failures.Add("epoch " + std::to_string(checked[c].first) +
                     ": release differs from a from-scratch --tdv run");
      }
    }
    if (publisher.repairs + 1 < publisher.epochs) {
      failures.Add("epochs did not take the incremental-repair path");
    }
  }

  // Analyst: each slot against a solo RunSample and RunAudit.
  for (size_t j = 0; j < kSampleSlots; ++j) {
    if (!analyst.hashes[j].empty()) {
      ksym::serve::SampleRequest request;
      request.release = env.analyst_releases[j];
      request.output_prefix = env.dir + "/solo_sample_" + std::to_string(j);
      request.samples = kSamplesPerRequest;
      request.seed = env.sample_seeds[j];
      request.threads = kSampleThreads;
      if (!ksym::serve::RunSample(request).ok() ||
          HashSampleFiles(request.output_prefix) != analyst.hashes[j].front()) {
        failures.Add("sample response differs from a solo RunSample");
      }
    }
    if (!analyst.audit_reports[j].empty()) {
      ksym::serve::AuditRequest request;
      request.input = env.audit_inputs[j];
      request.k = kAuditK;
      request.tdv = true;
      auto solo = ksym::serve::RunAudit(request);
      for (const std::string& report : analyst.audit_reports[j]) {
        if (!solo.ok() || solo->report != report) {
          failures.Add("audit report differs from RunAudit");
          break;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// --trace 1: the layers in-process, with spans.
// ---------------------------------------------------------------------------

using Counts = std::map<std::string, double>;

void AddRefinement(const ksym::ExecutionContext& context, Counts& counts) {
  const ksym::RefinementStats& s = context.stats();
  counts["aut.refine_calls"] += static_cast<double>(s.refine_calls);
  counts["aut.splitters"] += static_cast<double>(s.splitters_processed);
  counts["aut.cells_split"] += static_cast<double>(s.cells_split);
  counts["aut.parallel_splitters"] += static_cast<double>(s.parallel_splitters);
}

/// Orbit copy and release write, shared by the publisher and the epochs.
Status CopyAndWrite(Tracer& tracer, uint64_t id, const Graph& graph,
                    const ksym::VertexPartition& partition,
                    const ksym::ExecutionContext& context,
                    const std::string& output, Counts& counts) {
  ksym::AnonymizationOptions options;
  options.k = kK;
  options.context = &context;
  Result<ksym::AnonymizationResult> result = Status::Internal("unset");
  {
    Span span(tracer, "ksym.copy", id);
    result = ksym::AnonymizeWithPartition(graph, partition, options);
  }
  KSYM_RETURN_IF_ERROR(result.status());
  counts["ksym.copy_ops"] += static_cast<double>(result->copy_operations);
  counts["ksym.vertices_added"] += static_cast<double>(result->vertices_added);
  counts["ksym.edges_added"] += static_cast<double>(result->edges_added);
  const ksym::ReleaseTriple release = ksym::MakeReleaseTriple(*result);
  {
    Span span(tracer, "ksym.release_write", id);
    KSYM_RETURN_IF_ERROR(ksym::WriteReleaseCsrFile(release, output));
  }
  counts["ksym.release_bytes"] += static_cast<double>(FileSize(output));
  return Status::Ok();
}

/// What serve::RunAnonymize does for one input, layer by layer.
Status PublishInProcess(Tracer& tracer, uint64_t id, const Env& env, size_t i,
                        const std::string& output, Counts& counts) {
  Span root(tracer, "request.publish", id);
  Result<ksym::AutoLoadedGraph> loaded = Status::Internal("unset");
  {
    Span span(tracer, "graph.load", id);
    loaded = ksym::ReadGraphAuto(env.publish_inputs[i].path);
  }
  KSYM_RETURN_IF_ERROR(loaded.status());
  const Graph& graph = loaded->graph;
  ksym::ComputeDegreeStats(graph);  // RunAnonymize's report line.
  ksym::ExecutionContext context(env.publish_inputs[i].threads);
  ksym::VertexPartition partition;
  {
    Span span(tracer, "aut.partition", id);
    if (env.publish_inputs[i].tdv) {
      partition = ksym::ComputeTotalDegreePartition(graph, &context);
      tracer.AddMeasured("aut.refine", id,
                         context.stats().refine_seconds * 1e3);
    } else {
      ksym::AutomorphismResult aut;
      {
        Span search(tracer, "aut.search", id);
        aut = ksym::ComputeAutomorphisms(graph, {}, &context);
        tracer.AddMeasured("aut.refine", id,
                           context.stats().refine_seconds * 1e3);
      }
      counts["aut.search_nodes"] += static_cast<double>(aut.nodes);
      counts["aut.generators"] += static_cast<double>(aut.generators.size());
      partition = ksym::VertexPartition::FromRepresentatives(aut.orbit_rep);
    }
  }
  KSYM_RETURN_IF_ERROR(
      CopyAndWrite(tracer, id, graph, partition, context, output, counts));
  AddRefinement(context, counts);
  return Status::Ok();
}

/// A dynamic session's state, driven the way dyn::DynamicSession drives
/// it for mutate + commit + reanonymize on the repair path.
struct EpochState {
  ksym::dyn::DeltaGraph graph;
  ksym::VertexPartition tdv;
};

Status EpochInProcess(Tracer& tracer, uint64_t id, EpochState& state,
                      const ksym::dyn::EditBatch& batch,
                      const std::string& output, Counts& counts) {
  Span root(tracer, "request.epoch", id);
  {
    Span span(tracer, "dyn.apply", id);
    KSYM_RETURN_IF_ERROR(state.graph.Validate(batch));
    KSYM_RETURN_IF_ERROR(state.graph.Apply(batch));
    if (state.graph.OverlayRatio() > kCompactRatio) {
      state.graph.CompactInPlace();
      counts["dyn.compactions"] += 1;
    }
  }
  state.graph.ContentChecksum();  // The plan-cache key.
  const std::vector<ksym::VertexId> touched = batch.Endpoints();
  ksym::ExecutionContext context(1);
  ksym::dyn::RepairStats repair;
  Result<ksym::VertexPartition> repaired = Status::Internal("unset");
  {
    Span span(tracer, "dyn.repair", id);
    ksym::dyn::DeltaNeighborSource source(state.graph);
    repaired = ksym::dyn::RepairTotalDegreePartition(source, state.tdv, touched,
                                                     &context, &repair);
    tracer.AddMeasured("aut.refine", id, context.stats().refine_seconds * 1e3);
  }
  KSYM_RETURN_IF_ERROR(repaired.status());
  state.tdv = std::move(repaired).value();
  ksym::dyn::PartitionChecksum(state.tdv);
  counts["dyn.repair_splitters"] +=
      static_cast<double>(repair.refine_splitters);
  counts["dyn.pool_vertices"] += static_cast<double>(repair.pool_vertices);
  counts["dyn.seed_cells"] += static_cast<double>(repair.seed_cells);
  counts["dyn.quotient_merges"] += static_cast<double>(repair.quotient_merges);
  Graph compacted;
  const Graph* resident = &state.graph.base();
  if (state.graph.HasOverlay()) {
    Span span(tracer, "dyn.compact", id);
    compacted = state.graph.Compact();
    resident = &compacted;
  }
  KSYM_RETURN_IF_ERROR(
      CopyAndWrite(tracer, id, *resident, state.tdv, context, output, counts));
  AddRefinement(context, counts);
  return Status::Ok();
}

Status SampleInProcess(Tracer& tracer, uint64_t id,
                       const ksym::ReleaseTriple& release, uint64_t seed,
                       const std::string& prefix, Counts& counts) {
  Span root(tracer, "request.sample", id);
  ksym::ExecutionContext context(kSampleThreads);
  ksym::BatchSampleOptions options;
  options.num_samples = kSamplesPerRequest;
  options.target_vertices = release.original_vertices;
  options.context = &context;
  Result<std::vector<Graph>> samples = Status::Internal("unset");
  {
    Span span(tracer, "ksym.sample", id);
    samples = ksym::DrawSamples(release.graph, release.partition, options,
                                ksym::Rng(seed));
  }
  KSYM_RETURN_IF_ERROR(samples.status());
  Span span(tracer, "ksym.sample_write", id);
  for (size_t i = 0; i < samples->size(); ++i) {
    const Graph& sample = (*samples)[i];
    KSYM_RETURN_IF_ERROR(ksym::WriteEdgeListFile(
        sample, prefix + "." + std::to_string(i) + ".edges"));
    counts["ksym.sampled_vertices"] +=
        static_cast<double>(ksym::ComputeDegreeStats(sample).num_vertices);
  }
  return Status::Ok();
}

Status AuditInProcess(Tracer& tracer, uint64_t id, const Graph& graph,
                      Counts& counts) {
  Span root(tracer, "request.audit", id);
  ksym::ComputeDegreeStats(graph);
  ksym::ExecutionContext context(1);
  ksym::VertexPartition orbits;
  {
    Span span(tracer, "attack.partition", id);
    orbits = ksym::ComputeTotalDegreePartition(graph, &context);
    tracer.AddMeasured("aut.refine", id, context.stats().refine_seconds * 1e3);
  }
  AddRefinement(context, counts);
  for (const auto& measure :
       {ksym::DegreeMeasure(), ksym::TriangleMeasure(),
        ksym::NeighborDegreeSequenceMeasure(), ksym::NeighborhoodMeasure(),
        ksym::CombinedMeasure()}) {
    ksym::VertexPartition cells;
    {
      Span span(tracer, "attack.measures", id);
      cells = ksym::PartitionByMeasure(graph, measure);
    }
    ksym::CompareToOrbits(cells, orbits);
  }
  return Status::Ok();
}

/// Numeric fields of the daemon's "stats" report.
std::map<std::string, double> DaemonStats(DaemonClient& client) {
  std::map<std::string, double> stats;
  const auto response = client.Call(Request("stats"));
  if (!ResponseStatus(response).ok()) return stats;
  const std::string report = response->GetString("report");
  size_t pos = 0;
  while (pos < report.size()) {
    const size_t end = report.find('\n', pos);
    const std::string line = report.substr(pos, end - pos);
    const size_t colon = line.find(": ");
    if (colon != std::string::npos) {
      stats[line.substr(0, colon)] =
          std::strtod(line.c_str() + colon + 2, nullptr);
    }
    if (end == std::string::npos) break;
    pos = end + 1;
  }
  return stats;
}

void AddSimd(const ksym::simd::SimdCallCounts& before, Counts& counts) {
  const ksym::simd::SimdCallCounts after = ksym::simd::SimdCallCountsSnapshot();
  counts["simd.intersect_calls"] +=
      static_cast<double>(after.intersect - before.intersect);
  counts["simd.intersect_gallop_calls"] +=
      static_cast<double>(after.intersect_gallop - before.intersect_gallop);
  counts["simd.splitter_dense_calls"] +=
      static_cast<double>(after.splitter_dense - before.splitter_dense);
  counts["simd.splitter_scalar_calls"] +=
      static_cast<double>(after.splitter_scalar - before.splitter_scalar);
  counts["simd.bfs_expand_calls"] +=
      static_cast<double>(after.bfs_expand - before.bfs_expand);
}

struct Metric {
  const char* name;
  const char* unit;
};

// The per-layer metrics, in output order. Times are self times summed over
// the traced replay, except aut.partition_ms and aut.search_ms, which are
// whole spans (README.md, "Per-layer metrics").
constexpr Metric kLayerMetrics[] = {
    {"graph.load_ms", "ms"},
    {"aut.refine_ms", "ms"},
    {"aut.refine_calls", "count"},
    {"aut.splitters", "count"},
    {"aut.cells_split", "count"},
    {"aut.parallel_splitters", "count"},
    {"aut.partition_ms", "ms"},
    {"aut.search_ms", "ms"},
    {"aut.search_self_ms", "ms"},
    {"aut.orbit_ms", "ms"},
    {"aut.search_nodes", "count"},
    {"aut.generators", "count"},
    {"ksym.copy_ms", "ms"},
    {"ksym.copy_ops", "count"},
    {"ksym.vertices_added", "count"},
    {"ksym.edges_added", "count"},
    {"ksym.release_write_ms", "ms"},
    {"ksym.release_bytes", "bytes"},
    {"ksym.sample_ms", "ms"},
    {"ksym.sample_write_ms", "ms"},
    {"ksym.sampled_vertices", "count"},
    {"attack.measures_ms", "ms"},
    {"attack.partition_ms", "ms"},
    {"dyn.apply_ms", "ms"},
    {"dyn.compact_ms", "ms"},
    {"dyn.repair_ms", "ms"},
    {"dyn.repair_splitters", "count"},
    {"dyn.pool_vertices", "count"},
    {"dyn.seed_cells", "count"},
    {"dyn.quotient_merges", "count"},
    {"dyn.repairs", "count"},
    {"dyn.full_refines", "count"},
    {"dyn.plan_hits", "count"},
    {"dyn.compactions", "count"},
    {"serve.overhead_ms", "ms"},
    {"serve.graph_cache_hits", "count"},
    {"serve.graph_cache_misses", "count"},
    {"serve.rejected_busy", "count"},
    {"serve.batches", "count"},
    {"simd.intersect_calls", "count"},
    {"simd.intersect_gallop_calls", "count"},
    {"simd.splitter_dense_calls", "count"},
    {"simd.splitter_scalar_calls", "count"},
    {"simd.bfs_expand_calls", "count"},
    {"trace.glue_ms", "ms"},
    {"trace.self_sum_ms", "ms"},
    {"trace.untraced_ms", "ms"},
    {"trace.overhead_ms", "ms"},
    {"trace.spans", "count"},
};

// Counters that must repeat exactly between the untraced and the traced
// replay of the same script.
constexpr const char* kRepeatCounters[] = {
    "aut.splitters",    "aut.cells_split",       "aut.search_nodes",
    "ksym.copy_ops",    "ksym.release_bytes",    "dyn.repair_splitters",
    "ksym.sampled_vertices",
};

struct MetricValue {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunOutput {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<MetricValue> metrics;
};

Result<RunOutput> TracedRun(const Spec& spec, const Args& args) {
  KSYM_ASSIGN_OR_RETURN(std::unique_ptr<Env> env, SetUp(spec, args));
  Failures failures;
  uint64_t attempted = 0;
  DaemonClient client;
  KSYM_RETURN_IF_ERROR(client.Connect(env->socket));

  // In-process state the daemon holds warm: the analyst's releases and
  // audit graphs, and for serve_mixed the session's partition (twice, one
  // copy per replay).
  std::vector<ksym::ReleaseTriple> analyst_releases;
  std::vector<ksym::LoadedGraph> audit_graphs;
  for (size_t j = 0; j < kSampleSlots; ++j) {
    KSYM_ASSIGN_OR_RETURN(ksym::ReleaseTriple release,
                          ksym::ReadReleaseCsrFile(env->analyst_releases[j]));
    analyst_releases.push_back(std::move(release));
    KSYM_ASSIGN_OR_RETURN(ksym::LoadedGraph graph,
                          ksym::ReadCsrFile(env->audit_inputs[j]));
    audit_graphs.push_back(std::move(graph));
  }
  std::unique_ptr<EpochState> states[2];
  if (spec.publisher == Publisher::kEpochs) {
    ksym::dyn::DeltaGraph base(env->session_base);
    ksym::dyn::DeltaNeighborSource source(base);
    const ksym::VertexPartition tdv = ksym::VertexPartition::FromCells(
        base.NumVertices(), ksym::EquitablePartition(source, {}));
    for (auto& state : states) {
      state = std::make_unique<EpochState>(
          EpochState{ksym::dyn::DeltaGraph(env->session_base), tdv});
    }
  }

  Tracer off(false);
  Tracer on(true);
  Counts counts[2];  // [untraced, traced]
  Counts& layer = counts[1];
  double e2e_ms = 0.0;          // Untraced requests as a user issues them.
  double untraced_ms = 0.0;     // Untraced in-process replay.
  double daemon_ms = 0.0;       // Daemon round trips...
  double daemon_inproc_ms = 0.0;  // ...and their untraced in-process twins.
  const std::map<std::string, double> stats_before = DaemonStats(client);
  uint64_t id = 0;

  // Runs one request three ways: `issue()` as the user issues it (returns
  // its wall time), `body(off, 0)` in-process untraced and `body(on, 1)`
  // in-process traced. The order rotates from request to request, so a
  // slow spell of the host does not always fall on the same variant.
  // Returns the untraced in-process wall time.
  const auto replay = [&](const auto& issue, const auto& body) {
    ++id;
    double inproc_ms = 0.0;
    for (uint64_t turn = 0; turn < 3; ++turn) {
      Status status = Status::Ok();
      switch ((id + turn) % 3) {
        case 0:
          ++attempted;
          e2e_ms += issue();
          break;
        case 1: {
          ++attempted;
          Timer timer;
          status = body(off, 0);
          inproc_ms = timer.ElapsedMillis();
          break;
        }
        default: {
          const ksym::simd::SimdCallCounts before =
              ksym::simd::SimdCallCountsSnapshot();
          status = body(on, 1);
          AddSimd(before, layer);
          break;
        }
      }
      if (!status.ok()) failures.Add("in-process replay: " + status.ToString());
    }
    untraced_ms += inproc_ms;
    return inproc_ms;
  };
  // A daemon request for `issue`, adding its latency to daemon_ms.
  const auto daemon_call = [&](const WireObject& request,
                               Result<WireObject>* response) {
    Timer timer;
    *response = client.Call(request);
    const double ms = timer.ElapsedMillis();
    daemon_ms += ms;
    if (Status status = ResponseStatus(*response); !status.ok()) {
      failures.Add("daemon: " + status.ToString());
    }
    return ms;
  };

  for (size_t round = 0; round < kTracedRounds; ++round) {
    if (spec.publisher != Publisher::kEpochs) {
      for (size_t i = 0; i < env->publish_inputs.size(); ++i) {
        const std::string outputs[2] = {env->dir + "/inproc_off.ksymcsr",
                                        env->dir + "/inproc_on.ksymcsr"};
        replay(
            [&] {
              Timer timer;
              auto response = ksym::serve::RunAnonymize(
                  PublishRequest(*env, i, env->publish_outputs[i]));
              const double ms = timer.ElapsedMillis();
              if (!response.ok()) {
                failures.Add("anonymize: " + response.status().ToString());
              }
              return ms;
            },
            [&](Tracer& tracer, int r) {
              return PublishInProcess(tracer, id, *env, i, outputs[r],
                                      counts[r]);
            });
        if (HashFile(outputs[1]) != HashFile(env->publish_outputs[i])) {
          failures.Add("in-process release differs from RunAnonymize's");
        }
      }
    } else {
      for (size_t n = 0; n < kTracedEpochs; ++n) {
        const size_t e = round * kTracedEpochs + n;
        const std::string output = env->dir + "/epoch_daemon.ksymcsr";
        const std::string outputs[2] = {env->dir + "/inproc_off.ksymcsr",
                                        env->dir + "/inproc_on.ksymcsr"};
        daemon_inproc_ms += replay(
            [&] {
              Result<WireObject> response = Status::Internal("unset");
              double ms =
                  daemon_call(MutateWire(env->trace_text[e]), &response);
              ms += daemon_call(CommitWire(), &response);
              ms += daemon_call(ReanonymizeWire(output), &response);
              const std::string report =
                  response.ok() ? response->GetString("report") : "";
              const auto via = [&report](const char* path) {
                return report.find(path) != std::string::npos ? 1.0 : 0.0;
              };
              layer["dyn.repairs"] += via("via incremental-repair");
              layer["dyn.full_refines"] += via("via full-refine");
              layer["dyn.plan_hits"] += via("via plan-cache-hit");
              return ms;
            },
            [&](Tracer& tracer, int r) {
              return EpochInProcess(tracer, id, *states[r], env->trace[e],
                                    outputs[r], counts[r]);
            });
        if (HashFile(outputs[1]) != HashFile(output)) {
          failures.Add("in-process epoch release differs from the daemon's");
        }
      }
    }

    // Each slot's sample and each Hepth stand-in's audit.
    for (size_t n = 0; n < 2 * kSampleSlots; ++n) {
      const bool audit = n % 2 == 1;
      const size_t slot = n / 2;
      const std::string prefixes[2] = {env->dir + "/inproc_off_sample",
                                       env->dir + "/inproc_on_sample"};
      daemon_inproc_ms += replay(
          [&] {
            Result<WireObject> response = Status::Internal("unset");
            return daemon_call(
                audit ? AuditWire(*env, slot) : SampleWire(*env, slot),
                &response);
          },
          [&](Tracer& tracer, int r) {
            return audit
                       ? AuditInProcess(tracer, id, audit_graphs[slot].graph,
                                        counts[r])
                       : SampleInProcess(tracer, id, analyst_releases[slot],
                                         env->sample_seeds[slot], prefixes[r],
                                         counts[r]);
          });
      if (!audit && HashSampleFiles(prefixes[1]) !=
                        HashSampleFiles(SamplePrefix(*env, slot))) {
        failures.Add("in-process samples differ from the daemon's");
      }
    }
  }

  for (const char* name : kRepeatCounters) {
    if (counts[0][name] != counts[1][name]) {
      failures.Add(std::string(name) + " differs between two replays");
    }
  }

  // Layer self times.
  const std::map<std::string, double> self = on.SelfTimesMs();
  const std::map<std::string, double> total = on.TotalTimesMs();
  const auto self_of = [&self](const char* name) {
    const auto it = self.find(name);
    return it == self.end() ? 0.0 : it->second;
  };
  const auto total_of = [&total](const char* name) {
    const auto it = total.find(name);
    return it == total.end() ? 0.0 : it->second;
  };
  for (const char* name :
       {"graph.load", "ksym.copy", "ksym.release_write", "ksym.sample",
        "ksym.sample_write", "attack.measures", "attack.partition",
        "dyn.apply", "dyn.compact", "dyn.repair", "aut.refine"}) {
    layer[std::string(name) + "_ms"] = self_of(name);
  }
  layer["aut.partition_ms"] = total_of("aut.partition");
  layer["aut.search_ms"] = total_of("aut.search");
  layer["aut.search_self_ms"] = self_of("aut.search");
  layer["aut.orbit_ms"] = self_of("aut.partition");
  layer["trace.glue_ms"] =
      self_of("request.publish") + self_of("request.epoch") +
      self_of("request.sample") + self_of("request.audit");
  const double serve_overhead = daemon_ms - daemon_inproc_ms;
  layer["serve.overhead_ms"] = serve_overhead;
  const double traced_ms = on.RootTotalMs();
  double self_sum = serve_overhead;
  for (const auto& [name, ms] : self) self_sum += ms;
  layer["trace.self_sum_ms"] = self_sum;
  layer["trace.untraced_ms"] = e2e_ms;
  layer["trace.overhead_ms"] = traced_ms - untraced_ms;
  layer["trace.spans"] = static_cast<double>(on.spans().size());

  std::map<std::string, double> stats_after = DaemonStats(client);
  if (stats_before.empty() || stats_after.empty()) {
    failures.Add("the daemon's stats op failed");
  }
  const auto stat_delta = [&](const char* key) {
    const auto before = stats_before.find(key);
    return stats_after[key] -
           (before == stats_before.end() ? 0.0 : before->second);
  };
  layer["serve.graph_cache_hits"] = stat_delta("graph_cache_hits");
  layer["serve.graph_cache_misses"] = stat_delta("graph_cache_misses");
  layer["serve.rejected_busy"] = stat_delta("rejected_busy");
  layer["serve.batches"] = stat_delta("batches");

  // Span dump and a readable summary.
  const std::string dump =
      std::filesystem::path(args.workdir).parent_path().string() + "/trace_" +
      spec.name + "_" + std::to_string(args.seed) + ".jsonl";
  if (!on.Dump(dump)) failures.Add("cannot write " + dump);
  std::printf("span dump: %s (%zu spans)\n", dump.c_str(), on.spans().size());
  std::printf("%-24s %12s\n", "layer self time", "ms");
  for (const auto& [name, ms] : self) {
    std::printf("%-24s %12.3f\n", name.c_str(), ms);
  }
  std::printf("%-24s %12.3f\n", "serve (daemon - inproc)", serve_overhead);
  std::printf("self-time sum %.3f ms, untraced end-to-end %.3f ms (%+.1f%%)\n",
              self_sum, e2e_ms, 100.0 * (self_sum - e2e_ms) / e2e_ms);
  std::printf("tracing overhead %.3f ms (traced %.3f ms - untraced %.3f ms)\n",
              traced_ms - untraced_ms, traced_ms, untraced_ms);

  RunOutput out;
  out.attempted = attempted;
  out.failed = failures.count;
  for (const Metric& metric : kLayerMetrics) {
    out.metrics.push_back({metric.name, layer[metric.name], metric.unit});
  }
  return out;
}

// ---------------------------------------------------------------------------
// --trace 0 driver.
// ---------------------------------------------------------------------------

Result<RunOutput> MeasuredRun(const Spec& spec, const Args& args) {
  std::vector<double> setup_s;
  std::unique_ptr<Env> env;
  for (int i = 0; i < kSetups; ++i) {
    env.reset();  // Stops the previous set-up's daemon first.
    Timer timer;
    KSYM_ASSIGN_OR_RETURN(env, SetUp(spec, args));
    setup_s.push_back(timer.ElapsedSeconds());
  }

  PublisherResult publisher;
  AnalystResult analyst;
  const auto after = [](double seconds) {
    return Clock::now() + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(seconds));
  };
  if (spec.publisher == Publisher::kEpochs) {
    const Clock::time_point deadline = after(args.seconds);
    std::thread publisher_thread(
        [&] { RunEpochs(*env, deadline, &publisher); });
    std::thread analyst_thread([&] { RunAnalyst(*env, deadline, &analyst); });
    publisher_thread.join();
    analyst_thread.join();
  } else {
    // Half the time for the publisher, whose last pass may run past it,
    // then a full half for the analyst.
    RunPublishPasses(*env, after(args.seconds / 2.0), &publisher);
    RunAnalyst(*env, after(args.seconds / 2.0), &analyst);
  }
  const double peak_rss = PeakRssMiB();
  const ksym::serve::ServerStats server_stats = env->server->stats();

  Failures checks;
  CheckMeasuredRun(*env, publisher, analyst, checks);
  if (publisher.release_s.empty()) checks.Add("no publisher cycle completed");
  if (analyst.sample_ms.empty() || analyst.audit_ms.empty()) {
    checks.Add("no analyst request of each kind completed");
  }

  const Tail sample_tail = TailOf(analyst.sample_ms);
  const Tail release_tail = TailOf(publisher.release_s);
  std::printf(
      "detail: %zu publisher cycles (tail %.4f s at p%.1f of %zu), "
      "%zu samples (tail at p%.1f of %zu), %zu audits (p50 %.3f ms), "
      "%zu epochs, %llu busy, %llu batches\n",
      publisher.release_s.size(), release_tail.value, release_tail.percentile,
      release_tail.samples, analyst.sample_ms.size(), sample_tail.percentile,
      sample_tail.samples, analyst.audit_ms.size(), Median(analyst.audit_ms),
      publisher.epochs,
      static_cast<unsigned long long>(server_stats.rejected_busy),
      static_cast<unsigned long long>(server_stats.batches));

  RunOutput out;
  out.attempted = publisher.attempted + analyst.attempted;
  out.failed = publisher.failures.count + analyst.failures.count + checks.count;
  out.metrics = {
      {"setup_s", Median(setup_s), "s"},
      {"peak_rss_mb", peak_rss, "MiB"},
      {"release_s", Median(publisher.release_s), "s"},
      {"sample_ms_p50", Median(analyst.sample_ms), "ms"},
      {"sample_ms_tail", sample_tail.value, "ms"},
  };
  return out;
}

int Main(int argc, char** argv) {
#if !defined(__OPTIMIZE__) || !defined(NDEBUG)
  std::fprintf(stderr,
               "ksym_bench: refusing to report from an unoptimised build "
               "(build type %s)\n",
               KSYMBENCH_BUILD_TYPE);
  return 3;
#endif
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: ksym_bench --workload NAME --seed N --seconds S "
                 "--trace 0|1 --workdir DIR [--commit ID]\n");
    return 2;
  }
  const Spec* spec = nullptr;
  for (const Spec& s : kSpecs) {
    if (args.workload == s.name) spec = &s;
  }
  if (spec == nullptr) {
    std::fprintf(stderr, "ksym_bench: unknown workload %s\n",
                 args.workload.c_str());
    return 2;
  }
  std::printf(
      "{\"context\": {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
      "\"trace\": %d, \"nproc\": %u, \"simd\": \"%s\", \"build_type\": \"%s\", "
      "\"commit\": \"%s\"}}\n",
      spec->name, static_cast<unsigned long long>(args.seed), args.seconds,
      args.trace ? 1 : 0, std::thread::hardware_concurrency(),
      ksym::simd::SimdLevelName(ksym::simd::ActiveSimdLevel()),
      KSYMBENCH_BUILD_TYPE, args.commit.c_str());

  Result<RunOutput> result =
      args.trace ? TracedRun(*spec, args) : MeasuredRun(*spec, args);
  if (!result.ok()) {
    std::fprintf(stderr, "ksym_bench: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }
  std::string metrics;
  for (const MetricValue& metric : result->metrics) {
    if (!metrics.empty()) metrics += ", ";
    char buffer[256];
    std::snprintf(buffer, sizeof(buffer),
                  "\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  metric.name.c_str(), metric.value, metric.unit.c_str());
    metrics += buffer;
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      result->failed == 0 ? "true" : "false",
      static_cast<unsigned long long>(result->attempted),
      static_cast<unsigned long long>(result->failed), metrics.c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace ksymbench

int main(int argc, char** argv) { return ksymbench::Main(argc, argv); }
