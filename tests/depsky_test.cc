// Tests for the DepSky cloud-of-clouds protocols: metadata authentication,
// write/read quorums, read-by-hash, confidentiality (no single cloud holds
// the plaintext), corruption/outage/byzantine tolerance, preferred quorums,
// version GC and cross-account sharing grants.

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <thread>

#include "src/cloud/simulated_cloud.h"
#include "src/common/executor.h"
#include "src/common/rng.h"
#include "src/crypto/sha1.h"
#include "src/crypto/sha256.h"
#include "src/depsky/depsky.h"

namespace scfs {
namespace {

std::string ContentHash(const Bytes& data) {
  return HexEncode(Sha1::Hash(data));
}

class DepSkyTest : public ::testing::Test {
 protected:
  static constexpr unsigned kClouds = 4;

  DepSkyTest() : env_(Environment::Instant()) {
    for (unsigned i = 0; i < kClouds; ++i) {
      CloudProfile profile;  // zero latency, zero window by default
      profile.name = "cloud" + std::to_string(i);
      profile.prices = PriceBook::AmazonS3();
      clouds_.push_back(
          std::make_unique<SimulatedCloud>(profile, env_.get(), 10 + i));
    }
  }

  DepSkyClient MakeClient(const std::string& user,
                          DepSkyMode mode = DepSkyMode::kSecretSharing,
                          bool preferred = true) {
    DepSkyConfig config;
    config.f = 1;
    config.mode = mode;
    config.preferred_quorums = preferred;
    config.auth_key = ToBytes("deployment-auth-key");
    std::vector<DepSkyCloud> set;
    for (auto& cloud : clouds_) {
      set.push_back(DepSkyCloud{cloud.get(),
                                {cloud->provider_name() + ":" + user}});
    }
    return DepSkyClient(env_.get(), std::move(set), config, 1234);
  }

  // Client with a small stripe geometry so striping tests stay fast; a unit
  // size of 0 stores every version as one unit.
  DepSkyClient MakeStripedClient(const std::string& user,
                                 size_t unit_size = 1024,
                                 unsigned inflight = 4) {
    DepSkyConfig config;
    config.f = 1;
    config.auth_key = ToBytes("deployment-auth-key");
    config.stripe_unit_size = unit_size;
    config.stripe_inflight = inflight;
    std::vector<DepSkyCloud> set;
    for (auto& cloud : clouds_) {
      set.push_back(DepSkyCloud{cloud.get(),
                                {cloud->provider_name() + ":" + user}});
    }
    return DepSkyClient(env_.get(), std::move(set), config, 1234);
  }

  std::unique_ptr<Environment> env_;
  std::vector<std::unique_ptr<SimulatedCloud>> clouds_;
};

TEST_F(DepSkyTest, MetadataEncodeDecodeRoundTrip) {
  DepSkyMetadata md;
  md.n = 4;
  md.k = 2;
  md.mode = DepSkyMode::kSecretSharing;
  md.owner_ids = {"a", "b", "c", "d"};
  DepSkyVersion v;
  v.version = 3;
  v.content_hash = "abcd";
  v.size = 100;
  v.nonce = Bytes(12, 9);
  v.shard_hashes = {Bytes(32, 1), Bytes(32, 2), Bytes(32, 3), Bytes(32, 4)};
  v.cloud_shard = {0, 1, 2, -1};
  md.versions.push_back(v);
  DepSkyGrant grant;
  grant.cloud_ids = {"u0", "u1", "u2", "u3"};
  grant.read = true;
  md.grants.push_back(grant);

  Bytes key = ToBytes("k");
  auto decoded = DepSkyMetadata::Decode(md.Encode(key), key);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->n, 4u);
  EXPECT_EQ(decoded->owner_ids[2], "c");
  ASSERT_EQ(decoded->versions.size(), 1u);
  EXPECT_EQ(decoded->versions[0].version, 3u);
  EXPECT_EQ(decoded->versions[0].cloud_shard[3], -1);
  ASSERT_EQ(decoded->grants.size(), 1u);
  EXPECT_TRUE(decoded->grants[0].read);
  EXPECT_FALSE(decoded->grants[0].write);
}

TEST_F(DepSkyTest, MetadataStripeManifestRoundTrip) {
  DepSkyMetadata md;
  md.n = 4;
  md.k = 2;
  // Version 1 monolithic, version 2 striped: the stripe section must carry
  // only the striped version and leave the monolithic one untouched.
  DepSkyVersion mono;
  mono.version = 1;
  mono.content_hash = "aaaa";
  mono.size = 10;
  mono.shard_hashes = {Bytes(32, 1), Bytes(32, 2), Bytes(32, 3), Bytes(32, 4)};
  mono.cloud_shard = {0, 1, 2, 3};
  md.versions.push_back(mono);
  DepSkyVersion striped;
  striped.version = 2;
  striped.content_hash = "bbbb";
  striped.size = 10 * 1024 * 1024;
  striped.nonce = Bytes(12, 7);
  striped.stripe_unit_size = 4 * 1024 * 1024;
  for (int u = 0; u < 3; ++u) {
    DepSkyStripeUnit unit;
    unit.content_hash = Bytes(32, static_cast<uint8_t>(0x10 + u));
    unit.shard_hashes = {Bytes(32, 5), Bytes(32, 6), Bytes(32, 7),
                         Bytes(32, 8)};
    unit.cloud_shard = {3, 2, 1, -1};
    striped.stripe_units.push_back(unit);
  }
  md.versions.push_back(striped);

  Bytes key = ToBytes("k");
  auto decoded = DepSkyMetadata::Decode(md.Encode(key), key);
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded->versions.size(), 2u);
  EXPECT_FALSE(decoded->versions[0].striped());
  EXPECT_TRUE(decoded->versions[0].stripe_units.empty());
  const auto& v = decoded->versions[1];
  ASSERT_TRUE(v.striped());
  EXPECT_EQ(v.stripe_unit_size, 4u * 1024 * 1024);
  ASSERT_EQ(v.stripe_units.size(), 3u);
  EXPECT_EQ(v.stripe_units[1].content_hash, Bytes(32, 0x11));
  ASSERT_EQ(v.stripe_units[2].shard_hashes.size(), 4u);
  EXPECT_EQ(v.stripe_units[2].shard_hashes[3], Bytes(32, 8));
  EXPECT_EQ(v.stripe_units[0].cloud_shard,
            (std::vector<int32_t>{3, 2, 1, -1}));
}

TEST_F(DepSkyTest, MetadataWithoutStripesEncodesWithoutStripeSection) {
  // Monolithic-only metadata must serialize byte-identically to the
  // pre-stripe format: the trailing section is appended only when some
  // version is striped, so the encoding of a non-striped record ends right
  // after the grants.
  DepSkyMetadata md;
  md.n = 4;
  md.k = 2;
  DepSkyVersion v;
  v.version = 1;
  v.content_hash = "aaaa";
  v.shard_hashes = {Bytes(32, 1)};
  v.cloud_shard = {0};
  md.versions.push_back(v);
  Bytes key = ToBytes("k");
  Bytes plain = md.Encode(key);

  md.versions[0].stripe_unit_size = 1024;
  md.versions[0].stripe_units.resize(2);
  Bytes with_stripes = md.Encode(key);
  EXPECT_GT(with_stripes.size(), plain.size());

  md.versions[0].stripe_unit_size = 0;
  md.versions[0].stripe_units.clear();
  EXPECT_EQ(md.Encode(key), plain);
}

TEST_F(DepSkyTest, MetadataAuthenticatorRejectsTampering) {
  DepSkyMetadata md;
  Bytes key = ToBytes("k");
  Bytes encoded = md.Encode(key);
  encoded[6] ^= 0x01;
  EXPECT_EQ(DepSkyMetadata::Decode(encoded, key).status().code(),
            ErrorCode::kCorruption);
  EXPECT_EQ(DepSkyMetadata::Decode(md.Encode(key), ToBytes("other"))
                .status()
                .code(),
            ErrorCode::kCorruption);
}

TEST_F(DepSkyTest, WriteReadRoundTrip) {
  auto client = MakeClient("alice");
  Rng rng(1);
  Bytes data = rng.RandomBytes(10000);
  auto version = client.WriteVersion("file1", ContentHash(data), data);
  ASSERT_TRUE(version.ok());
  EXPECT_EQ(*version, 1u);

  auto read = client.ReadByHash("file1", ContentHash(data));
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, data);

  auto latest = client.ReadLatest("file1");
  ASSERT_TRUE(latest.ok());
  EXPECT_EQ(*latest, data);
}

TEST_F(DepSkyTest, VersionsAccumulate) {
  auto client = MakeClient("alice");
  Bytes v1 = ToBytes("version one");
  Bytes v2 = ToBytes("version two, longer");
  ASSERT_TRUE(client.WriteVersion("f", ContentHash(v1), v1).ok());
  ASSERT_TRUE(client.WriteVersion("f", ContentHash(v2), v2).ok());

  auto md = client.ReadMetadata("f");
  ASSERT_TRUE(md.ok());
  EXPECT_EQ(md->versions.size(), 2u);

  // Both versions remain readable (multi-versioning for error recovery).
  EXPECT_EQ(*client.ReadByHash("f", ContentHash(v1)), v1);
  EXPECT_EQ(*client.ReadByHash("f", ContentHash(v2)), v2);
  EXPECT_EQ(*client.ReadLatest("f"), v2);
}

TEST_F(DepSkyTest, ReadUnknownHashIsNotFound) {
  auto client = MakeClient("alice");
  Bytes data = ToBytes("x");
  ASSERT_TRUE(client.WriteVersion("f", ContentHash(data), data).ok());
  EXPECT_EQ(client.ReadByHash("f", "deadbeef").status().code(),
            ErrorCode::kNotFound);
  EXPECT_EQ(client.ReadLatest("missing-unit").status().code(),
            ErrorCode::kNotFound);
}

TEST_F(DepSkyTest, NoSingleCloudHoldsPlaintext) {
  auto client = MakeClient("alice");
  Bytes data(4096, 0);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<uint8_t>(i * 31);
  }
  ASSERT_TRUE(client.WriteVersion("secret", ContentHash(data), data).ok());

  // Inspect every object in every cloud: none may contain the plaintext (or
  // even a quarter of it) as a substring.
  std::string needle(data.begin(), data.begin() + data.size() / 4);
  for (auto& cloud : clouds_) {
    auto listed = cloud->List({cloud->provider_name() + ":alice"}, "");
    ASSERT_TRUE(listed.ok());
    for (const auto& info : *listed) {
      auto blob = cloud->PeekLatest(info.key);
      ASSERT_TRUE(blob.ok());
      std::string haystack(blob->begin(), blob->end());
      EXPECT_EQ(haystack.find(needle), std::string::npos)
          << "plaintext leaked to " << cloud->provider_name();
    }
  }
}

TEST_F(DepSkyTest, PreferredQuorumLeavesOneCloudEmpty) {
  auto client = MakeClient("alice");
  Bytes data(10000, 5);
  ASSERT_TRUE(client.WriteVersion("f", ContentHash(data), data).ok());
  // Paper: "two clouds store half of the file each while a third receives an
  // extra block ... the fourth cloud is not used".
  unsigned clouds_with_value = 0;
  for (auto& cloud : clouds_) {
    auto listed = cloud->List({cloud->provider_name() + ":alice"}, "du/f/v");
    ASSERT_TRUE(listed.ok());
    clouds_with_value += listed->empty() ? 0 : 1;
  }
  EXPECT_EQ(clouds_with_value, 3u);
}

TEST_F(DepSkyTest, WithoutPreferredQuorumsAllCloudsUsed) {
  auto client = MakeClient("alice", DepSkyMode::kSecretSharing,
                           /*preferred=*/false);
  Bytes data(1000, 5);
  ASSERT_TRUE(client.WriteVersion("f", ContentHash(data), data).ok());
  for (auto& cloud : clouds_) {
    auto listed = cloud->List({cloud->provider_name() + ":alice"}, "du/f/v");
    ASSERT_TRUE(listed.ok());
    EXPECT_EQ(listed->size(), 1u);
  }
}

TEST_F(DepSkyTest, StorageOverheadIsAboutOnePointFive) {
  auto client = MakeClient("alice");
  Bytes data(100000, 3);
  ASSERT_TRUE(client.WriteVersion("f", ContentHash(data), data).ok());
  uint64_t stored = 0;
  for (auto& cloud : clouds_) {
    stored += cloud->costs().StoredBytes(cloud->provider_name() + ":alice");
  }
  // 3 shards of |F|/2 plus small metadata: ~1.5x (Figure 11c).
  EXPECT_GT(stored, data.size() * 14 / 10);
  EXPECT_LT(stored, data.size() * 17 / 10);
}

TEST_F(DepSkyTest, SurvivesOneCloudOutage) {
  auto client = MakeClient("alice");
  Bytes data = ToBytes("important data");
  ASSERT_TRUE(client.WriteVersion("f", ContentHash(data), data).ok());

  for (unsigned down = 0; down < kClouds; ++down) {
    clouds_[down]->faults().SetUnavailable(true);
    auto read = client.ReadByHash("f", ContentHash(data));
    ASSERT_TRUE(read.ok()) << "with cloud " << down << " down";
    EXPECT_EQ(*read, data);
    clouds_[down]->faults().SetUnavailable(false);
  }
}

TEST_F(DepSkyTest, WritesSucceedDuringOutage) {
  auto client = MakeClient("alice");
  clouds_[1]->faults().SetUnavailable(true);
  Bytes data = ToBytes("written under failure");
  ASSERT_TRUE(client.WriteVersion("f", ContentHash(data), data).ok());
  auto read = client.ReadByHash("f", ContentHash(data));
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, data);
  clouds_[1]->faults().SetUnavailable(false);
}

TEST_F(DepSkyTest, TwoCloudOutageBlocksWrites) {
  auto client = MakeClient("alice");
  clouds_[0]->faults().SetUnavailable(true);
  clouds_[1]->faults().SetUnavailable(true);
  Bytes data = ToBytes("x");
  EXPECT_EQ(client.WriteVersion("f", ContentHash(data), data).status().code(),
            ErrorCode::kUnavailable);
}

TEST_F(DepSkyTest, DetectsAndRoutesAroundCorruption) {
  auto client = MakeClient("alice");
  Bytes data(5000, 7);
  ASSERT_TRUE(client.WriteVersion("f", ContentHash(data), data).ok());
  // Cloud 0 persistently corrupts reads; the shard hash check must reject its
  // shard and the read must recover from the other clouds.
  clouds_[0]->faults().SetCorruptAllReads(true);
  auto read = client.ReadByHash("f", ContentHash(data));
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, data);
  clouds_[0]->faults().SetCorruptAllReads(false);
}

TEST_F(DepSkyTest, ByzantineMetadataRollbackOutvoted) {
  auto client = MakeClient("alice");
  Bytes v1 = ToBytes("v1");
  Bytes v2 = ToBytes("v2");
  ASSERT_TRUE(client.WriteVersion("f", ContentHash(v1), v1).ok());
  ASSERT_TRUE(client.WriteVersion("f", ContentHash(v2), v2).ok());
  // Cloud 2 serves arbitrarily old (but authentic) state; the metadata read
  // takes the maximum authenticated version from the other clouds.
  clouds_[2]->faults().SetByzantine(true);
  auto md = client.ReadMetadata("f");
  ASSERT_TRUE(md.ok());
  EXPECT_EQ(md->versions.size(), 2u);
  EXPECT_EQ(*client.ReadLatest("f"), v2);
  clouds_[2]->faults().SetByzantine(false);
}

TEST_F(DepSkyTest, ReplicationModeRoundTrip) {
  auto client = MakeClient("alice", DepSkyMode::kReplication);
  Bytes data = ToBytes("replicated everywhere");
  ASSERT_TRUE(client.WriteVersion("f", ContentHash(data), data).ok());
  auto read = client.ReadLatest("f");
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, data);
  // Replication mode survives an outage too.
  clouds_[0]->faults().SetUnavailable(true);
  EXPECT_EQ(*client.ReadLatest("f"), data);
  clouds_[0]->faults().SetUnavailable(false);
}

TEST_F(DepSkyTest, ReplicationStoresFullCopies) {
  auto client = MakeClient("alice", DepSkyMode::kReplication);
  Bytes data(10000, 1);
  ASSERT_TRUE(client.WriteVersion("f", ContentHash(data), data).ok());
  uint64_t stored = 0;
  for (auto& cloud : clouds_) {
    stored += cloud->costs().StoredBytes(cloud->provider_name() + ":alice");
  }
  EXPECT_GT(stored, data.size() * 29 / 10);  // ~3 full copies (quorum of 3)
}

TEST_F(DepSkyTest, DeleteVersionReclaimsSpace) {
  auto client = MakeClient("alice");
  Bytes v1(1000, 1);
  Bytes v2(1000, 2);
  ASSERT_TRUE(client.WriteVersion("f", ContentHash(v1), v1).ok());
  ASSERT_TRUE(client.WriteVersion("f", ContentHash(v2), v2).ok());
  ASSERT_TRUE(client.DeleteVersion("f", 1).ok());

  auto md = client.ReadMetadata("f");
  ASSERT_TRUE(md.ok());
  ASSERT_EQ(md->versions.size(), 1u);
  EXPECT_EQ(md->versions[0].version, 2u);
  EXPECT_EQ(client.ReadByHash("f", ContentHash(v1)).status().code(),
            ErrorCode::kNotFound);
  EXPECT_EQ(*client.ReadByHash("f", ContentHash(v2)), v2);
}

TEST_F(DepSkyTest, DeleteUnitRemovesEverything) {
  auto client = MakeClient("alice");
  Bytes data = ToBytes("gone soon");
  ASSERT_TRUE(client.WriteVersion("f", ContentHash(data), data).ok());
  ASSERT_TRUE(client.DeleteUnit("f").ok());
  EXPECT_EQ(client.ReadMetadata("f").status().code(), ErrorCode::kNotFound);
  for (auto& cloud : clouds_) {
    auto listed = cloud->List({cloud->provider_name() + ":alice"}, "du/f/");
    ASSERT_TRUE(listed.ok());
    EXPECT_TRUE(listed->empty());
  }
}

TEST_F(DepSkyTest, SharingGrantAllowsSecondUser) {
  auto alice = MakeClient("alice");
  auto bob = MakeClient("bob");
  Bytes data = ToBytes("shared document");
  ASSERT_TRUE(alice.WriteVersion("doc", ContentHash(data), data).ok());

  // Before the grant, bob cannot read.
  EXPECT_FALSE(bob.ReadByHash("doc", ContentHash(data)).ok());

  DepSkyGrant grant;
  for (auto& cloud : clouds_) {
    grant.cloud_ids.push_back(cloud->provider_name() + ":bob");
  }
  grant.read = true;
  grant.write = true;
  ASSERT_TRUE(alice.SetGrant("doc", grant).ok());

  auto read = bob.ReadByHash("doc", ContentHash(data));
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, data);

  // Bob writes a new version; alice can read it back (owner ACLs applied).
  Bytes update = ToBytes("bob's update");
  ASSERT_TRUE(bob.WriteVersion("doc", ContentHash(update), update).ok());
  auto alice_read = alice.ReadLatest("doc");
  ASSERT_TRUE(alice_read.ok());
  EXPECT_EQ(*alice_read, update);
}

TEST_F(DepSkyTest, RevokedGrantDeniesAccess) {
  auto alice = MakeClient("alice");
  auto bob = MakeClient("bob");
  Bytes data = ToBytes("was shared");
  ASSERT_TRUE(alice.WriteVersion("doc", ContentHash(data), data).ok());
  DepSkyGrant grant;
  for (auto& cloud : clouds_) {
    grant.cloud_ids.push_back(cloud->provider_name() + ":bob");
  }
  grant.read = true;
  ASSERT_TRUE(alice.SetGrant("doc", grant).ok());
  ASSERT_TRUE(bob.ReadLatest("doc").ok());

  grant.read = false;
  grant.write = false;
  ASSERT_TRUE(alice.SetGrant("doc", grant).ok());
  EXPECT_FALSE(bob.ReadLatest("doc").ok());
}

TEST_F(DepSkyTest, EventualConsistencyNotFoundUntilVisible) {
  // With a consistency window on metadata overwrites, a second version is
  // invisible to readers until the window passes — exactly the situation the
  // SCFS consistency anchor loop handles.
  for (auto& cloud : clouds_) {
    // Rebuild clouds with a window is not possible in place; emulate with a
    // fresh set.
  }
  std::vector<std::unique_ptr<SimulatedCloud>> windowed;
  std::vector<DepSkyCloud> set;
  for (unsigned i = 0; i < kClouds; ++i) {
    CloudProfile profile;
    profile.name = "w" + std::to_string(i);
    profile.consistency_window_base = 5 * kSecond;
    windowed.push_back(
        std::make_unique<SimulatedCloud>(profile, env_.get(), 50 + i));
    set.push_back(DepSkyCloud{windowed.back().get(), {"w:alice"}});
  }
  DepSkyConfig config;
  config.auth_key = ToBytes("k");
  DepSkyClient client(env_.get(), std::move(set), config, 7);

  Bytes v1 = ToBytes("v1");
  Bytes v2 = ToBytes("v2");
  ASSERT_TRUE(client.WriteVersion("f", ContentHash(v1), v1).ok());
  env_->Sleep(6 * kSecond);
  ASSERT_TRUE(client.WriteVersion("f", ContentHash(v2), v2).ok());

  // Metadata overwrite still in the window: v2 not found yet.
  EXPECT_EQ(client.ReadByHash("f", ContentHash(v2)).status().code(),
            ErrorCode::kNotFound);
  env_->Sleep(6 * kSecond);
  EXPECT_EQ(*client.ReadByHash("f", ContentHash(v2)), v2);
}

TEST_F(DepSkyTest, BackToBackWritesInConsistencyWindowGetDistinctVersions) {
  // A metadata overwrite stays invisible for the consistency window, so a
  // quick second write's quorum read still shows the record before the
  // first. The writer must still not reuse that write's version number:
  // reusing it overwrites the first write's value objects and drops it from
  // the history. A grant change or a version delete inside the window must
  // not drop them either.
  std::vector<std::unique_ptr<SimulatedCloud>> windowed;
  std::vector<DepSkyCloud> set;
  for (unsigned i = 0; i < kClouds; ++i) {
    CloudProfile profile;
    profile.name = "w" + std::to_string(i);
    profile.consistency_window_base = 5 * kSecond;
    windowed.push_back(
        std::make_unique<SimulatedCloud>(profile, env_.get(), 60 + i));
    set.push_back(DepSkyCloud{windowed.back().get(), {"w:alice"}});
  }
  DepSkyConfig config;
  config.auth_key = ToBytes("k");
  DepSkyClient client(env_.get(), std::move(set), config, 7);

  Bytes v0 = ToBytes("v0");
  Bytes v1 = ToBytes("v1");
  Bytes v2 = ToBytes("v2");
  auto initial = client.WriteVersion("f", ContentHash(v0), v0);
  auto first = client.WriteVersion("f", ContentHash(v1), v1);
  auto second = client.WriteVersion("f", ContentHash(v2), v2);
  ASSERT_TRUE(initial.ok());
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_NE(*first, *second);
  EXPECT_EQ(*second, *first + 1);
  DepSkyGrant grant;
  grant.cloud_ids.assign(kClouds, "w:bob");
  grant.read = true;
  ASSERT_TRUE(client.SetGrant("f", grant).ok());
  ASSERT_TRUE(client.DeleteVersion("f", *initial).ok());

  env_->Sleep(6 * kSecond);
  EXPECT_EQ(client.ReadByHash("f", ContentHash(v0)).status().code(),
            ErrorCode::kNotFound);
  auto read1 = client.ReadByHash("f", ContentHash(v1));
  auto read2 = client.ReadByHash("f", ContentHash(v2));
  ASSERT_TRUE(read1.ok()) << read1.status().ToString();
  ASSERT_TRUE(read2.ok()) << read2.status().ToString();
  EXPECT_EQ(*read1, v1);
  EXPECT_EQ(*read2, v2);
}

// A zero-latency cloud whose GETs answer after a real host delay while
// charging a fixed modelled latency, as a reply does when it waits in a busy
// executor queue.
class HostDelayedCloud : public SimulatedCloud {
 public:
  HostDelayedCloud(CloudProfile profile, Environment* env, uint64_t seed,
                   std::chrono::milliseconds host_delay,
                   VirtualDuration modelled)
      : SimulatedCloud(std::move(profile), env, seed),
        host_delay_(host_delay),
        modelled_(modelled) {}

  Future<Result<Bytes>> GetAsync(const CloudCredentials& creds,
                                 const std::string& key) override {
    return SubmitTracked(&ops_, [this, creds, key] {
      std::this_thread::sleep_for(host_delay_);
      Result<Bytes> value = Get(creds, key);
      Environment::AddThreadCharge(modelled_);
      return value;
    });
  }

 private:
  std::chrono::milliseconds host_delay_;
  VirtualDuration modelled_;
  InFlightTracker ops_;  // awaited before the base store is torn down
};

TEST(DepSkyChargeTest, ReadChargesModelledLatencyNotHostDelay) {
  // 1 virtual second = 10 real ms: the 20 ms host delay of every GET spans
  // 2 virtual seconds, against 30 ms of modelled latency.
  auto env = Environment::Scaled(0.01);
  constexpr VirtualDuration kModelled = 30 * kMillisecond;
  std::vector<std::unique_ptr<HostDelayedCloud>> clouds;
  std::vector<DepSkyCloud> set;
  for (unsigned i = 0; i < 4; ++i) {
    CloudProfile profile;
    profile.name = "d" + std::to_string(i);
    clouds.push_back(std::make_unique<HostDelayedCloud>(
        profile, env.get(), 70 + i, std::chrono::milliseconds(20),
        kModelled));
    set.push_back(DepSkyCloud{clouds.back().get(), {"d:alice"}});
  }
  DepSkyConfig config;
  config.auth_key = ToBytes("k");
  config.hedged_reads = false;
  config.request_deadline = FromSecondsD(60);
  DepSkyClient client(env.get(), std::move(set), config, 7);

  Bytes data = ToBytes("charged on the modelled path");
  ASSERT_TRUE(client.WriteVersion("f", ContentHash(data), data).ok());

  // One metadata quorum round and one shard round, each one modelled GET.
  Environment::ResetThreadCharged();
  auto read = client.ReadByHash("f", ContentHash(data));
  const VirtualDuration charged = Environment::ThreadCharged();
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(*read, data);
  EXPECT_EQ(charged, 2 * kModelled);
}

// ---------------------------------------------------------------------------
// On-cloud format
// ---------------------------------------------------------------------------

// One line per (cloud, key): the SHA-256 of the stored object, or "absent".
std::string StoredObjectManifest(
    const std::vector<std::unique_ptr<SimulatedCloud>>& clouds,
    const std::vector<std::string>& keys) {
  std::string manifest;
  for (size_t i = 0; i < clouds.size(); ++i) {
    for (const std::string& key : keys) {
      auto stored = clouds[i]->PeekLatest(key);
      manifest += "c" + std::to_string(i) + " " + key + " " +
                  (stored.ok() ? HexEncode(Sha256::Hash(*stored)) : "absent") +
                  "\n";
    }
  }
  return manifest;
}

TEST_F(DepSkyTest, StoredBytesMatchGoldenDigests) {
  // Pins the wire and metadata format: fixed-seed writes must store exactly
  // these objects. A change here is a format change, not a refactor.
  auto digest = [](const std::string& manifest) {
    return HexEncode(Sha256::Hash(ToBytes(manifest)));
  };

  // Each client goes out of scope before the clouds are inspected: its
  // destructor awaits the PUTs still in flight past the write quorum.
  {
    auto ca = MakeClient("alice");
    Bytes small = Rng(5).RandomBytes(1000);
    ASSERT_TRUE(ca.WriteVersion("ca", ContentHash(small), small).ok());
  }
  const std::string ca_manifest = StoredObjectManifest(
      clouds_, {DepSkyClient::MetadataKey("ca"), DepSkyClient::ValueKey("ca", 1)});
  EXPECT_EQ(digest(ca_manifest), "ba652c4b5fb6531a8f5bbcce02ca9608684dd7c9ea439e7e62aab2b6edb84f0d") << ca_manifest;

  {
    auto rep = MakeClient("alice", DepSkyMode::kReplication);
    Bytes replicated = Rng(6).RandomBytes(1000);
    ASSERT_TRUE(
        rep.WriteVersion("rep", ContentHash(replicated), replicated).ok());
  }
  const std::string rep_manifest = StoredObjectManifest(
      clouds_,
      {DepSkyClient::MetadataKey("rep"), DepSkyClient::ValueKey("rep", 1)});
  EXPECT_EQ(digest(rep_manifest), "ced4522706a2ce4172f558cefa5c44a499b2e814feffdc43fcf9b1e16e4907d9") << rep_manifest;

  {
    auto striped = MakeStripedClient("alice");
    Bytes large = Rng(7).RandomBytes(10 * 1024 + 37);  // 11 units of 1 KiB
    ASSERT_TRUE(striped.WriteVersion("st", ContentHash(large), large).ok());
  }
  std::vector<std::string> keys = {DepSkyClient::MetadataKey("st")};
  for (uint64_t u = 0; u < 11; ++u) {
    keys.push_back(DepSkyClient::StripeValueKey("st", 1, u));
  }
  const std::string st_manifest = StoredObjectManifest(clouds_, keys);
  EXPECT_EQ(digest(st_manifest), "dcec7807070427f5b8bd311ff47e3727eb9a8291d4cfa4b9a21e04a029a0fca2") << st_manifest;
}

// ---------------------------------------------------------------------------
// Striped large-file data plane
// ---------------------------------------------------------------------------

// Striping tests that run with a unit window of 1 (units inline on the
// caller's thread) and of 4 (units on the executor).
class StripeWindowTest : public DepSkyTest,
                         public ::testing::WithParamInterface<unsigned> {
 protected:
  DepSkyClient MakeWindowedClient(const std::string& user) {
    return MakeStripedClient(user, /*unit_size=*/1024, GetParam());
  }
};

INSTANTIATE_TEST_SUITE_P(Windows, StripeWindowTest, ::testing::Values(1u, 4u),
                         [](const ::testing::TestParamInfo<unsigned>& info) {
                           return "window" + std::to_string(info.param);
                         });

TEST_P(StripeWindowTest, StripedWriteReadRoundTrip) {
  auto client = MakeWindowedClient("alice");
  Bytes data = Rng(77).RandomBytes(10 * 1024 + 37);  // 11 units, last partial
  ASSERT_TRUE(client.WriteVersion("f", ContentHash(data), data).ok());

  auto md = client.ReadMetadata("f");
  ASSERT_TRUE(md.ok());
  ASSERT_EQ(md->versions.size(), 1u);
  const DepSkyVersion& v = md->versions.back();
  EXPECT_TRUE(v.striped());
  EXPECT_EQ(v.stripe_unit_size, 1024u);
  ASSERT_EQ(v.stripe_units.size(), 11u);
  // Per-object records live in the stripe units, not the version.
  EXPECT_TRUE(v.shard_hashes.empty());
  EXPECT_TRUE(v.cloud_shard.empty());
  for (const auto& su : v.stripe_units) {
    EXPECT_EQ(su.shard_hashes.size(), kClouds);
    EXPECT_EQ(su.cloud_shard.size(), kClouds);
    EXPECT_EQ(su.content_hash.size(), 32u);
  }
  EXPECT_EQ(*client.ReadByHash("f", ContentHash(data)), data);
  EXPECT_EQ(*client.ReadLatest("f"), data);
}

TEST_F(DepSkyTest, BelowThresholdWritesAreByteIdenticalToUnstripedClient) {
  // Same seed, same data, one client with striping enabled and one with it
  // disabled: a write of at most one unit must produce byte-identical stored
  // objects — the feature must not perturb the existing single-object path.
  auto striped = MakeStripedClient("alice");
  auto plain = MakeStripedClient("alice", /*unit_size=*/0);
  Bytes data = Rng(5).RandomBytes(1000);  // below one 1 KiB unit
  ASSERT_TRUE(striped.WriteVersion("a", ContentHash(data), data).ok());
  ASSERT_TRUE(plain.WriteVersion("b", ContentHash(data), data).ok());

  auto md = striped.ReadMetadata("a");
  ASSERT_TRUE(md.ok());
  EXPECT_FALSE(md->versions.back().striped());

  for (unsigned i = 0; i < kClouds; ++i) {
    auto from_striped =
        clouds_[i]->PeekLatest(DepSkyClient::ValueKey("a", 1));
    auto from_plain = clouds_[i]->PeekLatest(DepSkyClient::ValueKey("b", 1));
    ASSERT_EQ(from_striped.ok(), from_plain.ok()) << "cloud " << i;
    if (from_striped.ok()) {
      EXPECT_EQ(*from_striped, *from_plain) << "cloud " << i;
    }
  }
}

TEST_P(StripeWindowTest, StripedReadAtBoundaries) {
  auto client = MakeWindowedClient("alice");
  const size_t kUnit = 1024;
  Bytes data = Rng(9).RandomBytes(10 * kUnit + 37);
  const std::string hash = ContentHash(data);
  ASSERT_TRUE(client.WriteVersion("f", hash, data).ok());

  auto slice = [&](uint64_t offset, size_t length) {
    length = std::min<uint64_t>(length, data.size() - offset);
    return Bytes(data.begin() + offset, data.begin() + offset + length);
  };

  // Exactly one full unit.
  EXPECT_EQ(*client.ReadAt("f", hash, kUnit, kUnit), slice(kUnit, kUnit));
  // Start mid-unit.
  EXPECT_EQ(*client.ReadAt("f", hash, 1500, 100), slice(1500, 100));
  // End mid-unit.
  EXPECT_EQ(*client.ReadAt("f", hash, kUnit, 1500), slice(kUnit, 1500));
  // Span several units with ragged edges on both sides.
  EXPECT_EQ(*client.ReadAt("f", hash, 500, 5 * kUnit - 7),
            slice(500, 5 * kUnit - 7));
  // Tail read into the partial last unit, clamped at EOF.
  EXPECT_EQ(*client.ReadAt("f", hash, data.size() - 10, 100),
            slice(data.size() - 10, 100));
  // Whole file.
  EXPECT_EQ(*client.ReadAt("f", hash, 0, data.size()), data);
  // Past EOF / empty.
  EXPECT_TRUE(client.ReadAt("f", hash, data.size() + 5, 10)->empty());
  EXPECT_TRUE(client.ReadAt("f", hash, 0, 0)->empty());
}

TEST_F(DepSkyTest, ReadAtOnMonolithicVersionSlices) {
  auto client = MakeClient("alice");
  Bytes data = Rng(11).RandomBytes(5000);
  const std::string hash = ContentHash(data);
  ASSERT_TRUE(client.WriteVersion("f", hash, data).ok());
  EXPECT_EQ(*client.ReadAt("f", hash, 1234, 600),
            Bytes(data.begin() + 1234, data.begin() + 1234 + 600));
  EXPECT_TRUE(client.ReadAt("f", hash, 9999, 10)->empty());
}

TEST_F(DepSkyTest, StripedUnitsSurviveIndependentShardLoss) {
  // Each stripe unit is an independent erasure group: every unit may lose up
  // to f shards — at a *different* cloud per unit — and the file must still
  // reassemble.
  auto client = MakeStripedClient("alice");
  Bytes data = Rng(13).RandomBytes(8 * 1024);
  const std::string hash = ContentHash(data);
  ASSERT_TRUE(client.WriteVersion("f", hash, data).ok());

  auto md = client.ReadMetadata("f");
  ASSERT_TRUE(md.ok());
  const DepSkyVersion& v = md->versions.back();
  ASSERT_TRUE(v.striped());
  for (size_t u = 0; u < v.stripe_units.size(); ++u) {
    // Rotate which holder loses its object from unit to unit.
    std::vector<unsigned> holders;
    for (unsigned c = 0; c < kClouds; ++c) {
      if (v.stripe_units[u].cloud_shard[c] >= 0) {
        holders.push_back(c);
      }
    }
    ASSERT_GE(holders.size(), 3u);
    const unsigned victim = holders[u % holders.size()];
    ASSERT_TRUE(clouds_[victim]
                    ->Delete({clouds_[victim]->provider_name() + ":alice"},
                             DepSkyClient::StripeValueKey("f", v.version, u))
                    .ok());
  }
  EXPECT_EQ(*client.ReadByHash("f", hash), data);
}

// ---------------------------------------------------------------------------
// Scrub & repair
// ---------------------------------------------------------------------------

TEST_F(DepSkyTest, ScrubOnHealthyUnitReportsFullRedundancy) {
  auto client = MakeStripedClient("alice");
  Bytes data = Rng(17).RandomBytes(4 * 1024);
  ASSERT_TRUE(client.WriteVersion("f", ContentHash(data), data).ok());
  auto report = client.ScrubUnit("f");
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->versions_checked, 1u);
  EXPECT_GT(report->objects_checked, 0u);
  EXPECT_EQ(report->objects_missing, 0u);
  EXPECT_EQ(report->objects_repaired, 0u);
  EXPECT_TRUE(report->fully_redundant);
}

TEST_P(StripeWindowTest, ScrubRebuildsLostStripeShardsByteIdentically) {
  auto client = MakeWindowedClient("alice");
  Bytes data = Rng(19).RandomBytes(6 * 1024);
  const std::string hash = ContentHash(data);
  ASSERT_TRUE(client.WriteVersion("f", hash, data).ok());

  auto md = client.ReadMetadata("f");
  ASSERT_TRUE(md.ok());
  const DepSkyVersion v = md->versions.back();
  ASSERT_TRUE(v.striped());

  // Lose one stored object per unit (rotating holders), then scrub.
  std::vector<std::pair<unsigned, std::string>> lost;  // (cloud, key)
  for (size_t u = 0; u < v.stripe_units.size(); ++u) {
    std::vector<unsigned> holders;
    for (unsigned c = 0; c < kClouds; ++c) {
      if (v.stripe_units[u].cloud_shard[c] >= 0) {
        holders.push_back(c);
      }
    }
    const unsigned victim = holders[u % holders.size()];
    const std::string key = DepSkyClient::StripeValueKey("f", v.version, u);
    ASSERT_TRUE(clouds_[victim]
                    ->Delete({clouds_[victim]->provider_name() + ":alice"}, key)
                    .ok());
    lost.emplace_back(victim, key);
  }

  auto report = client.ScrubUnit("f");
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->objects_missing, v.stripe_units.size());
  EXPECT_EQ(report->objects_repaired, v.stripe_units.size());
  EXPECT_EQ(report->objects_relocated, 0u);
  EXPECT_EQ(report->repair_failures, 0u);

  // The rebuilt objects hash-match the manifest (byte-identical repair), so
  // the metadata needed no update and a second pass finds nothing missing.
  for (size_t u = 0; u < lost.size(); ++u) {
    auto restored = clouds_[lost[u].first]->PeekLatest(lost[u].second);
    ASSERT_TRUE(restored.ok()) << "unit " << u;
    const unsigned shard = static_cast<unsigned>(
        v.stripe_units[u].cloud_shard[lost[u].first]);
    EXPECT_EQ(Sha256::Hash(*restored), v.stripe_units[u].shard_hashes[shard]);
  }
  auto second = client.ScrubUnit("f");
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->objects_missing, 0u);
  EXPECT_TRUE(second->fully_redundant);
  EXPECT_EQ(*client.ReadByHash("f", hash), data);
}

TEST_F(DepSkyTest, ScrubRelocatesShardWhenHolderStaysDown) {
  auto client = MakeClient("alice");
  Bytes data = Rng(23).RandomBytes(5000);
  const std::string hash = ContentHash(data);
  ASSERT_TRUE(client.WriteVersion("f", hash, data).ok());

  auto md = client.ReadMetadata("f");
  ASSERT_TRUE(md.ok());
  const DepSkyVersion v = md->versions.back();
  // Preferred quorums leave one cloud without a shard — the relocation target.
  int spare = -1;
  unsigned holder = 0;
  for (unsigned c = 0; c < kClouds; ++c) {
    if (v.cloud_shard[c] < 0) {
      spare = static_cast<int>(c);
    } else {
      holder = c;
    }
  }
  ASSERT_GE(spare, 0);

  // The holder loses the object *and* stays unreachable: in-place repair is
  // impossible, so the scrubber must move the shard to the spare cloud and
  // update the metadata map.
  ASSERT_TRUE(clouds_[holder]
                  ->Delete({clouds_[holder]->provider_name() + ":alice"},
                           DepSkyClient::ValueKey("f", v.version))
                  .ok());
  clouds_[holder]->faults().SetUnavailable(true);

  auto report = client.ScrubUnit("f");
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->objects_missing, 1u);
  EXPECT_EQ(report->objects_repaired, 0u);
  EXPECT_EQ(report->objects_relocated, 1u);
  EXPECT_EQ(report->repair_failures, 0u);

  auto after = client.ReadMetadata("f");
  ASSERT_TRUE(after.ok());
  const DepSkyVersion& moved = after->versions.back();
  EXPECT_EQ(moved.cloud_shard[holder], -1);
  EXPECT_EQ(moved.cloud_shard[static_cast<unsigned>(spare)],
            v.cloud_shard[holder]);

  // Readable with the dead cloud still dead.
  EXPECT_EQ(*client.ReadByHash("f", hash), data);
  clouds_[holder]->faults().SetUnavailable(false);
}

}  // namespace
}  // namespace scfs
