// Data-plane CPU throughput: GF(2^8) row kernels, Reed-Solomon encode/decode,
// ChaCha20, SHA-1, SHA-256, and the end-to-end DepSky PUT/GET payload processing
// pipelines — each measured against a faithful replica of the seed
// implementation (byte-at-a-time exp/log GF kernel, per-block cipher state
// setup, copy-heavy framing) so the speedup is computed inside one binary.
//
// Usage: bench_codec_throughput [--quick] [--json PATH]
// Emits BENCH_codec.json (override with --json) for the perf trajectory.

#include <chrono>
#include <cstring>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "src/cloud/simulated_cloud.h"
#include "src/codec/reed_solomon.h"
#include "src/common/rng.h"
#include "src/crypto/chacha20.h"
#include "src/crypto/secret_sharing.h"
#include "src/crypto/sha1.h"
#include "src/crypto/sha256.h"
#include "src/depsky/depsky.h"
#include "src/math/gf256.h"

namespace scfs {
namespace {

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Times a single run of fn; returns MB/s of `bytes`. Used for the large-file
// end-to-end transfers, where one iteration runs long enough to be stable and
// repeating it would accumulate hundreds of MB of stored versions.
template <typename Fn>
double TimeOnceMbps(size_t bytes, Fn fn) {
  const double start = NowSeconds();
  fn();
  const double elapsed = NowSeconds() - start;
  return static_cast<double>(bytes) / elapsed / (1024.0 * 1024.0);
}

// Runs fn repeatedly until ~min_seconds elapsed; returns MB/s of
// bytes_per_iteration.
template <typename Fn>
double MeasureMbps(size_t bytes_per_iteration, double min_seconds, Fn fn) {
  // Warm-up iteration (first-touch faults, table construction).
  fn();
  int iterations = 0;
  const double start = NowSeconds();
  double elapsed = 0;
  do {
    fn();
    ++iterations;
    elapsed = NowSeconds() - start;
  } while (elapsed < min_seconds);
  const double bytes =
      static_cast<double>(bytes_per_iteration) * iterations;
  return bytes / elapsed / (1024.0 * 1024.0);
}

// ---------------------------------------------------------------------------
// Seed replicas: the copy/branch behavior of the pre-span implementation,
// reproduced so "vs seed" is measured in-binary and not against git history.
// ---------------------------------------------------------------------------

// Seed ErasureCodec::Encode: frame copy, per-shard slicing, systematic
// copies, byte-at-a-time parity kernel.
std::vector<Bytes> SeedErasureEncode(unsigned n, unsigned k,
                                     const GfMatrix& matrix,
                                     const Bytes& data) {
  Bytes framed;
  framed.reserve(data.size() + 8);
  AppendU64(&framed, data.size());
  framed.insert(framed.end(), data.begin(), data.end());
  const size_t per_shard = (data.size() + 8 + k - 1) / k;
  framed.resize(per_shard * k, 0);

  std::vector<Bytes> data_shards(k);
  for (unsigned i = 0; i < k; ++i) {
    data_shards[i].assign(framed.begin() + i * per_shard,
                          framed.begin() + (i + 1) * per_shard);
  }
  std::vector<Bytes> out(n);
  for (unsigned row = 0; row < n; ++row) {
    if (row < k) {
      out[row] = data_shards[row];
      continue;
    }
    out[row].assign(per_shard, 0);
    for (unsigned col = 0; col < k; ++col) {
      Gf256::MulAddRowReference(out[row].data(), data_shards[col].data(),
                                matrix.At(row, col), per_shard);
    }
  }
  return out;
}

// Seed ErasureCodec::Decode: per-shard staging copies, concat, final slice.
Bytes SeedErasureDecode(unsigned n, unsigned k, const GfMatrix& matrix,
                        const std::vector<std::optional<Bytes>>& shards) {
  std::vector<unsigned> present;
  size_t shard_size = 0;
  for (unsigned i = 0; i < n && present.size() < k; ++i) {
    if (shards[i].has_value()) {
      shard_size = shards[i]->size();
      present.push_back(i);
    }
  }
  std::vector<Bytes> data(k);
  bool all_data = true;
  for (unsigned i = 0; i < k; ++i) {
    if (present[i] != i) {
      all_data = false;
    }
  }
  if (all_data) {
    for (unsigned i = 0; i < k; ++i) {
      data[i] = *shards[i];
    }
  } else {
    GfMatrix sub = matrix.SelectRows(present);
    GfMatrix inverse(k, k);
    if (!sub.Invert(&inverse)) {
      return {};
    }
    for (unsigned row = 0; row < k; ++row) {
      data[row].assign(shard_size, 0);
      for (unsigned col = 0; col < k; ++col) {
        Gf256::MulAddRowReference(data[row].data(),
                                  shards[present[col]]->data(),
                                  inverse.At(row, col), shard_size);
      }
    }
  }
  Bytes framed;
  for (const auto& shard : data) {
    framed.insert(framed.end(), shard.begin(), shard.end());
  }
  uint64_t size = 0;
  for (int i = 0; i < 8; ++i) {
    size = (size << 8) | framed[i];
  }
  return Bytes(framed.begin() + 8, framed.begin() + 8 + size);
}

// Seed ChaCha20::Crypt: full state setup per 64-byte block, byte-wise XOR,
// output into a fresh buffer.
Bytes SeedChaChaCrypt(const Bytes& key, const Bytes& nonce, uint32_t counter,
                      const Bytes& input) {
  Bytes out(input.size());
  size_t offset = 0;
  uint32_t block_counter = counter;
  while (offset < input.size()) {
    auto keystream = ChaCha20::Block(key, nonce, block_counter++);
    size_t n = input.size() - offset;
    if (n > 64) {
      n = 64;
    }
    for (size_t i = 0; i < n; ++i) {
      out[offset + i] = input[offset + i] ^ keystream[i];
    }
    offset += n;
  }
  return out;
}

// ---------------------------------------------------------------------------
// Pipelines: the CPU-side payload processing of one DepSky-CA write (encrypt
// -> erasure-encode -> shard hash -> wire framing) and read (decode ->
// decrypt). Cloud I/O and metadata round trips excluded — this is the part
// the zero-copy refactor changed.
// ---------------------------------------------------------------------------

struct PipelineConfig {
  unsigned n;
  unsigned k;
  Bytes key;
  Bytes nonce;
  GfMatrix matrix;  // for the seed replica
};

std::vector<Bytes> SeedPutPipeline(const PipelineConfig& cfg,
                                   const Bytes& data) {
  Sha256::ForcePortableForTesting(true);
  Bytes ciphertext = SeedChaChaCrypt(cfg.key, cfg.nonce, 0, data);
  std::vector<Bytes> shards =
      SeedErasureEncode(cfg.n, cfg.k, cfg.matrix, ciphertext);
  std::vector<Bytes> wire(shards.size());
  for (size_t i = 0; i < shards.size(); ++i) {
    Bytes hash = Sha256::Hash(shards[i]);
    // Seed wire framing: DepSkyValueObject materialization copied the shard,
    // then Encode() copied it again into the wire buffer.
    Bytes object_shard = shards[i];
    Bytes out;
    AppendBytes(&out, object_shard);
    out.push_back(static_cast<uint8_t>(i + 1));
    AppendBytes(&out, hash);  // stand-in for the key share, same size class
    wire[i] = std::move(out);
  }
  Sha256::ForcePortableForTesting(false);
  return wire;
}

std::vector<Bytes> SpanPutPipeline(const PipelineConfig& cfg,
                                   const Bytes& data) {
  ErasureCodec codec(cfg.n, cfg.k);
  ShardArena arena = codec.PrepareArena(data.size());
  ChaCha20::CryptInto(cfg.key, cfg.nonce, 0, data, arena.payload());
  codec.ComputeParity(&arena);
  std::vector<Bytes> wire(cfg.n);
  for (unsigned i = 0; i < cfg.n; ++i) {
    Bytes hash = Sha256::Hash(arena.shard(i));
    Bytes out;
    out.reserve(arena.shard_size() + hash.size() + 9);
    AppendBytes(&out, arena.shard(i));
    out.push_back(static_cast<uint8_t>(i + 1));
    AppendBytes(&out, hash);
    wire[i] = std::move(out);
  }
  return wire;
}

Bytes SeedGetPipeline(const PipelineConfig& cfg,
                      const std::vector<std::optional<Bytes>>& shards,
                      const Bytes& /*unused*/) {
  Bytes ciphertext = SeedErasureDecode(cfg.n, cfg.k, cfg.matrix, shards);
  return SeedChaChaCrypt(cfg.key, cfg.nonce, 0, ciphertext);
}

// The read pipeline DepSkyClient::FetchObjectSet runs: decode the surviving
// shards' views into a reused pooled arena frame, check the frame's length
// header, then decrypt out of the frame straight into the caller's buffer.
Bytes SpanGetPipeline(const PipelineConfig& cfg,
                      const std::vector<std::optional<Bytes>>& shards,
                      size_t size, ArenaPool* pool) {
  ErasureCodec codec(cfg.n, cfg.k);
  const size_t shard_size = codec.ShardSize(size);
  std::vector<std::optional<ConstByteSpan>> views(shards.size());
  for (size_t i = 0; i < shards.size(); ++i) {
    if (shards[i].has_value()) {
      views[i] = ConstByteSpan(*shards[i]);
    }
  }
  ShardArena arena = pool->Acquire(cfg.n, cfg.k, shard_size, size);
  ReedSolomon rs(cfg.n, cfg.k);
  Status decoded =
      rs.DecodeInto(views, shard_size, arena.mutable_data_region());
  ByteReader header(arena.data_region());
  uint64_t framed_size = 0;
  if (!decoded.ok() || !header.ReadU64(&framed_size) || framed_size != size) {
    std::fprintf(stderr, "decode failed: %s\n", decoded.ToString().c_str());
    std::abort();  // the bench must stay a trustworthy oracle
  }
  Bytes out(size);
  ChaCha20::CryptInto(cfg.key, cfg.nonce, 0, ConstByteSpan(arena.payload()),
                      ByteSpan(out));
  pool->Release(std::move(arena));
  return out;
}

struct Options {
  bool quick = false;
  std::string json_path = "BENCH_codec.json";
};

void Run(const Options& options) {
  const size_t payload_size =
      options.quick ? (1u << 20) : (4u << 20);  // 1 MiB / 4 MiB
  const double min_s = options.quick ? 0.05 : 0.25;
  Rng rng(42);
  Bytes payload = rng.RandomBytes(payload_size);
  BenchJsonWriter json;

  PrintHeader("GF(256) MulAddRow kernel (1 MiB row, scalar 0x57)");
  {
    Bytes in = rng.RandomBytes(1 << 20);
    Bytes out(1 << 20, 0);
    double ref = MeasureMbps(in.size(), min_s, [&] {
      Gf256::MulAddRowReference(out.data(), in.data(), 0x57, in.size());
    });
    double table = MeasureMbps(in.size(), min_s, [&] {
      Gf256::MulAddRow(out.data(), in.data(), 0x57, in.size());
    });
    std::printf("seed %8.0f MB/s   table %8.0f MB/s   speedup %.1fx\n", ref,
                table, table / ref);
    json.Add("gf_muladd_row_seed", ref, "MB/s");
    json.Add("gf_muladd_row_table", table, "MB/s");
    json.Add("gf_muladd_row_speedup", table / ref, "x");
  }

  PrintHeader("Reed-Solomon encode (payload MB/s)");
  for (auto [n, k] : std::vector<std::pair<unsigned, unsigned>>{
           {4, 2}, {7, 3}, {10, 4}}) {
    GfMatrix matrix = GfMatrix::SystematicVandermonde(n, k);
    ErasureCodec codec(n, k);
    double seed = MeasureMbps(payload.size(), min_s, [&] {
      auto shards = SeedErasureEncode(n, k, matrix, payload);
      (void)shards;
    });
    double arena = MeasureMbps(payload.size(), min_s, [&] {
      ShardArena a = codec.EncodeToArena(payload);
      (void)a;
    });
    const std::string label =
        "RS(" + std::to_string(n) + "," + std::to_string(k) + ")";
    std::printf("%-10s seed %8.0f MB/s   arena %8.0f MB/s   speedup %.1fx\n",
                label.c_str(), seed, arena, arena / seed);
    json.Add("rs_encode_" + std::to_string(n) + "_" + std::to_string(k) +
                 "_seed",
             seed, "MB/s");
    json.Add("rs_encode_" + std::to_string(n) + "_" + std::to_string(k) +
                 "_arena",
             arena, "MB/s");
    json.Add("rs_encode_" + std::to_string(n) + "_" + std::to_string(k) +
                 "_speedup",
             arena / seed, "x");
  }

  PrintHeader("Reed-Solomon decode, worst case: all data shards lost");
  {
    const unsigned n = 4, k = 2;
    GfMatrix matrix = GfMatrix::SystematicVandermonde(n, k);
    ErasureCodec codec(n, k);
    ShardArena arena = codec.EncodeToArena(payload);
    std::vector<std::optional<Bytes>> shards(n);
    shards[2] = CopyToBytes(arena.shard(2));  // parity only
    shards[3] = CopyToBytes(arena.shard(3));
    double seed = MeasureMbps(payload.size(), min_s, [&] {
      Bytes out = SeedErasureDecode(n, k, matrix, shards);
      (void)out;
    });
    double span = MeasureMbps(payload.size(), min_s, [&] {
      auto out = codec.Decode(shards);
      (void)out;
    });
    std::printf("RS(4,2)    seed %8.0f MB/s   span  %8.0f MB/s   speedup %.1fx\n",
                seed, span, span / seed);
    json.Add("rs_decode_4_2_seed", seed, "MB/s");
    json.Add("rs_decode_4_2_span", span, "MB/s");
    json.Add("rs_decode_4_2_speedup", span / seed, "x");
  }

  PrintHeader("ChaCha20 (payload MB/s)");
  {
    Bytes key = rng.RandomBytes(ChaCha20::kKeySize);
    Bytes nonce = rng.RandomBytes(ChaCha20::kNonceSize);
    Bytes scratch = payload;
    double seed = MeasureMbps(payload.size(), min_s, [&] {
      Bytes out = SeedChaChaCrypt(key, nonce, 0, payload);
      (void)out;
    });
    double span = MeasureMbps(payload.size(), min_s, [&] {
      ChaCha20::CryptInPlace(key, nonce, 0, ByteSpan(scratch));
    });
    std::printf("seed %8.0f MB/s   in-place %8.0f MB/s   speedup %.1fx\n",
                seed, span, span / seed);
    json.Add("chacha20_seed", seed, "MB/s");
    json.Add("chacha20_inplace", span, "MB/s");
    json.Add("chacha20_speedup", span / seed, "x");
  }

  PrintHeader("SHA-256 (MB/s)");
  {
    Sha256::ForcePortableForTesting(true);
    double portable = MeasureMbps(payload.size(), min_s, [&] {
      Bytes h = Sha256::Hash(payload);
      (void)h;
    });
    Sha256::ForcePortableForTesting(false);
    double best = MeasureMbps(payload.size(), min_s, [&] {
      Bytes h = Sha256::Hash(payload);
      (void)h;
    });
    std::printf("portable %8.0f MB/s   dispatched %8.0f MB/s   speedup %.1fx\n",
                portable, best, best / portable);
    json.Add("sha256_portable", portable, "MB/s");
    json.Add("sha256_dispatched", best, "MB/s");
    json.Add("sha256_speedup", best / portable, "x");
  }

  PrintHeader("SHA-1 (MB/s)");
  {
    Sha1::ForcePortableForTesting(true);
    double portable = MeasureMbps(payload.size(), min_s, [&] {
      Bytes h = Sha1::Hash(payload);
      (void)h;
    });
    Sha1::ForcePortableForTesting(false);
    double best = MeasureMbps(payload.size(), min_s, [&] {
      Bytes h = Sha1::Hash(payload);
      (void)h;
    });
    std::printf("portable %8.0f MB/s   dispatched %8.0f MB/s   speedup %.1fx\n",
                portable, best, best / portable);
    json.Add("sha1_portable", portable, "MB/s");
    json.Add("sha1_dispatched", best, "MB/s");
    json.Add("sha1_speedup", best / portable, "x");
  }

  PrintHeader("DepSky-CA PUT payload processing (f=1: RS(4,2), MB/s)");
  PipelineConfig cfg{4, 2, rng.RandomBytes(ChaCha20::kKeySize),
                     rng.RandomBytes(ChaCha20::kNonceSize),
                     GfMatrix::SystematicVandermonde(4, 2)};
  {
    double seed = MeasureMbps(payload.size(), min_s, [&] {
      auto wire = SeedPutPipeline(cfg, payload);
      (void)wire;
    });
    double span = MeasureMbps(payload.size(), min_s, [&] {
      auto wire = SpanPutPipeline(cfg, payload);
      (void)wire;
    });
    std::printf("seed %8.0f MB/s   zero-copy %8.0f MB/s   speedup %.1fx\n",
                seed, span, span / seed);
    json.Add("depsky_put_seed", seed, "MB/s");
    json.Add("depsky_put_zero_copy", span, "MB/s");
    json.Add("depsky_put_speedup", span / seed, "x");
  }

  PrintHeader("DepSky-CA GET payload processing (one data shard lost, MB/s)");
  {
    ErasureCodec codec(cfg.n, cfg.k);
    ShardArena arena = codec.PrepareArena(payload.size());
    ChaCha20::CryptInto(cfg.key, cfg.nonce, 0, payload, arena.payload());
    codec.ComputeParity(&arena);
    std::vector<std::optional<Bytes>> shards(cfg.n);
    shards[0] = CopyToBytes(arena.shard(0));
    shards[2] = CopyToBytes(arena.shard(2));  // shard 1 lost: rebuild needed
    double seed = MeasureMbps(payload.size(), min_s, [&] {
      Bytes out = SeedGetPipeline(cfg, shards, payload);
      (void)out;
    });
    ArenaPool pool;
    if (SpanGetPipeline(cfg, shards, payload.size(), &pool) != payload) {
      std::fprintf(stderr, "zero-copy GET pipeline returned wrong bytes\n");
      std::abort();
    }
    double span = MeasureMbps(payload.size(), min_s, [&] {
      Bytes out = SpanGetPipeline(cfg, shards, payload.size(), &pool);
      (void)out;
    });
    std::printf("seed %8.0f MB/s   zero-copy %8.0f MB/s   speedup %.1fx\n",
                seed, span, span / seed);
    json.Add("depsky_get_seed", seed, "MB/s");
    json.Add("depsky_get_zero_copy", span, "MB/s");
    json.Add("depsky_get_speedup", span / seed, "x");
  }

  PrintHeader("DepSky large-file PUT/GET, full client over in-memory clouds");
  {
    // End-to-end through the real DepSkyClient (robust calls, quorums, ACLs,
    // metadata) against zero-latency in-memory clouds, so the measurement is
    // the data plane's CPU work: the whole file as one unit (stripe unit
    // size 0, the paper's single data unit) vs 4 MiB units through the
    // parallel-unit window, on the same file.
    const size_t large_size = options.quick ? (32u << 20) : (256u << 20);
    auto env = Environment::Instant();
    std::vector<std::unique_ptr<SimulatedCloud>> clouds;
    for (unsigned i = 0; i < 4; ++i) {
      CloudProfile profile;
      profile.name = "cloud" + std::to_string(i);
      clouds.push_back(
          std::make_unique<SimulatedCloud>(profile, env.get(), 70 + i));
    }
    auto make_client = [&](size_t unit_size) {
      DepSkyConfig config;
      config.f = 1;
      config.auth_key = ToBytes("bench-auth-key");
      config.stripe_unit_size = unit_size;  // 0 = the whole file as one unit
      config.stripe_inflight = 0;  // auto: window = host core count
      std::vector<DepSkyCloud> set;
      for (auto& cloud : clouds) {
        set.push_back(DepSkyCloud{cloud.get(),
                                  {cloud->provider_name() + ":bench"}});
      }
      return std::make_unique<DepSkyClient>(env.get(), std::move(set), config,
                                            4242);
    };
    auto check = [](const Status& status) {
      if (!status.ok()) {
        std::fprintf(stderr, "depsky large-file bench failed: %s\n",
                     status.ToString().c_str());
        std::abort();  // the bench must stay a trustworthy oracle
      }
    };

    Bytes data = rng.RandomBytes(large_size);
    const std::string hash = HexEncode(Sha1::Hash(data));

    double put_mono = 0, get_mono = 0;
    {
      auto mono = make_client(0);
      put_mono = TimeOnceMbps(large_size, [&] {
        check(mono->WriteVersion("mono", hash, data).status());
      });
      get_mono = TimeOnceMbps(large_size, [&] {
        auto read = mono->ReadByHash("mono", hash);
        check(read.status());
        if (read->size() != data.size()) {
          std::abort();
        }
      });
      check(mono->DeleteUnit("mono"));
      for (auto& cloud : clouds) {
        cloud->Quiesce();
      }
    }

    auto striped = make_client(4u << 20);
    double put_striped = TimeOnceMbps(large_size, [&] {
      check(striped->WriteVersion("striped", hash, data).status());
    });
    double get_striped = TimeOnceMbps(large_size, [&] {
      auto read = striped->ReadByHash("striped", hash);
      check(read.status());
      if (read->size() != data.size()) {
        std::abort();
      }
    });
    const uint64_t pool_hits = striped->arena_pool_hits();
    const uint64_t pool_misses = striped->arena_pool_misses();
    check(striped->DeleteUnit("striped"));

    std::printf("PUT  mono %8.0f MB/s   striped %8.0f MB/s   speedup %.2fx\n",
                put_mono, put_striped, put_striped / put_mono);
    std::printf("GET  mono %8.0f MB/s   striped %8.0f MB/s   speedup %.2fx\n",
                get_mono, get_striped, get_striped / get_mono);
    std::printf("arena pool: %llu hits / %llu misses\n",
                static_cast<unsigned long long>(pool_hits),
                static_cast<unsigned long long>(pool_misses));
    json.Add("depsky_put_mono_large", put_mono, "MB/s");
    json.Add("depsky_put_striped", put_striped, "MB/s");
    json.Add("depsky_put_striped_speedup", put_striped / put_mono, "x");
    json.Add("depsky_get_mono_large", get_mono, "MB/s");
    json.Add("depsky_get_striped", get_striped, "MB/s");
    json.Add("depsky_get_striped_speedup", get_striped / get_mono, "x");
    json.Add("arena_pool_hits", static_cast<double>(pool_hits), "count");
    json.Add("arena_pool_misses", static_cast<double>(pool_misses), "count");
  }

  json.WriteFile(options.json_path);
}

}  // namespace
}  // namespace scfs

int main(int argc, char** argv) {
  scfs::Options options;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--quick") {
      options.quick = true;
    } else if (arg == "--json" && i + 1 < argc) {
      options.json_path = argv[++i];
    }
  }
  scfs::Run(options);
  return 0;
}
