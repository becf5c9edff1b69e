#include "core/config.h"

#include <gtest/gtest.h>

#include "../test_support.h"
#include "util/byte_units.h"
#include "workload/dataset_generator.h"
#include "storage/posix_engine.h"

namespace monarch::core {
namespace {

using monarch::testing::TempDir;
using namespace monarch::literals;

constexpr const char* kValidIni = R"(
; MONARCH experiment configuration
[monarch]
dataset_dir = imagenet_100g
placement_threads = 6
fetch_full_file = true

[tier.0]
name = local-ssd
profile = ssd
root = /tmp/unused/ssd
quota = 115MiB

[pfs]
name = lustre
profile = lustre
root = /tmp/unused/pfs
seed = 42
)";

constexpr const char* kMinimalIni =
    "[monarch]\ndataset_dir=d\n[tier.0]\nprofile=ram\nquota=1KiB\n"
    "[pfs]\nprofile=raw\nroot=/p\n";

/// True when the key catalogue offers any key of `section`.
bool CatalogueHasSection(const std::string& section) {
  for (const ConfigKeyInfo& info : ConfigKeyCatalogue()) {
    if (info.section == section) return true;
  }
  return false;
}

/// Expects `ini` to fail to parse because of an unknown section.
void ExpectUnknownSection(const std::string& ini) {
  auto parsed = ParseConfig(ini);
  EXPECT_STATUS_CODE(StatusCode::kInvalidArgument, parsed);
  EXPECT_NE(std::string::npos,
            parsed.status().message().find("unknown section"))
      << parsed.status();
}

TEST(ParseConfigTest, ParsesValidIni) {
  auto parsed = ParseConfig(kValidIni);
  ASSERT_OK(parsed);
  EXPECT_EQ("imagenet_100g", parsed.value().dataset_dir);
  EXPECT_EQ(6, parsed.value().placement_threads);
  EXPECT_TRUE(parsed.value().fetch_full_file);
  ASSERT_EQ(1u, parsed.value().cache_tiers.size());
  EXPECT_EQ("local-ssd", parsed.value().cache_tiers[0].name);
  EXPECT_EQ("ssd", parsed.value().cache_tiers[0].profile);
  EXPECT_EQ(115_MiB, parsed.value().cache_tiers[0].quota_bytes);
  EXPECT_EQ("lustre", parsed.value().pfs.profile);
  EXPECT_EQ(42u, parsed.value().pfs.seed);
}

TEST(ParseConfigTest, CommentsAndWhitespaceIgnored) {
  auto parsed = ParseConfig(
      "[monarch]\n"
      "  dataset_dir = d   # trailing comment\n"
      "[tier.0]\n"
      "profile=ram\n"
      "quota = 1KiB\n"
      "[pfs]\n"
      "profile = raw\n"
      "root = /tmp/x\n");
  ASSERT_OK(parsed);
  EXPECT_EQ("d", parsed.value().dataset_dir);
  EXPECT_EQ(1024u, parsed.value().cache_tiers[0].quota_bytes);
}

TEST(ParseConfigTest, MultiTierOutOfOrderSectionsSort) {
  auto parsed = ParseConfig(
      "[tier.1]\nprofile=ssd\nroot=/b\nquota=2KiB\n"
      "[monarch]\ndataset_dir=d\n"
      "[tier.0]\nprofile=ram\nquota=1KiB\n"
      "[pfs]\nprofile=raw\nroot=/p\n");
  ASSERT_OK(parsed);
  ASSERT_EQ(2u, parsed.value().cache_tiers.size());
  EXPECT_EQ("ram", parsed.value().cache_tiers[0].profile);
  EXPECT_EQ("ssd", parsed.value().cache_tiers[1].profile);
}

TEST(ParseConfigTest, RejectsUnknownKeysAndSections) {
  EXPECT_STATUS_CODE(
      StatusCode::kInvalidArgument,
      ParseConfig("[monarch]\ndataset_dir=d\ntypo_key=1\n"
                  "[tier.0]\nprofile=ram\nquota=1KiB\n[pfs]\nprofile=raw\nroot=/p\n"));
  EXPECT_STATUS_CODE(StatusCode::kInvalidArgument,
                     ParseConfig("[mystery]\nx=1\n"));

  // Keys that nothing in a single-process run reads are not accepted:
  // the broker/admission [qos] knobs are set in C++ by
  // dlsim::ClusterConfig, and the pack extent size by SmallFileSpec. The
  // [peer] and [checkpoint] sections have their own cases below.
  for (const char* tail : {
           "[qos]\ntenant_share = 1.0\n",
           "[qos]\ntotal_bandwidth = 400MiB\n",
           "[qos]\nadmission_queue_threshold = 0.85\n",
           "[qos]\nadmission_reject_threshold = 1.5\n",
           "[qos]\nwork_conserving = true\n",
           "[pack]\npack_extent_bytes = 64MiB\n",
       }) {
    SCOPED_TRACE(tail);
    auto parsed = ParseConfig(std::string(kMinimalIni) + tail);
    EXPECT_STATUS_CODE(StatusCode::kInvalidArgument, parsed);
    EXPECT_NE(std::string::npos,
              parsed.status().message().find("unknown"));
  }
}

TEST(ParseConfigTest, RejectsStructuralErrors) {
  // No PFS.
  EXPECT_STATUS_CODE(
      StatusCode::kInvalidArgument,
      ParseConfig("[monarch]\ndataset_dir=d\n[tier.0]\nprofile=ram\nquota=1KiB\n"));
  // No tiers.
  EXPECT_STATUS_CODE(
      StatusCode::kInvalidArgument,
      ParseConfig("[monarch]\ndataset_dir=d\n[pfs]\nprofile=raw\nroot=/p\n"));
  // Non-contiguous tier indices.
  EXPECT_STATUS_CODE(
      StatusCode::kInvalidArgument,
      ParseConfig("[monarch]\ndataset_dir=d\n[tier.1]\nprofile=ram\nquota=1\n"
                  "[pfs]\nprofile=raw\nroot=/p\n"));
  // Missing dataset_dir.
  EXPECT_STATUS_CODE(
      StatusCode::kInvalidArgument,
      ParseConfig("[tier.0]\nprofile=ram\nquota=1\n[pfs]\nprofile=raw\nroot=/p\n"));
  // Key outside a section.
  EXPECT_STATUS_CODE(StatusCode::kInvalidArgument,
                     ParseConfig("dataset_dir=d\n"));
  // Unterminated section.
  EXPECT_STATUS_CODE(StatusCode::kInvalidArgument, ParseConfig("[monarch\n"));
  // Bad boolean / quota.
  EXPECT_STATUS_CODE(
      StatusCode::kInvalidArgument,
      ParseConfig("[monarch]\ndataset_dir=d\nfetch_full_file=maybe\n"
                  "[tier.0]\nprofile=ram\nquota=1\n[pfs]\nprofile=raw\nroot=/p\n"));
}

// The cooperative peer cache and the write-back checkpoint manager are
// configured in C++ (dlsim::ClusterConfig, ckpt::CheckpointOptions), not
// from the INI file. A config file therefore always builds a single-node
// hierarchy without either, and a [peer] or [checkpoint] section fails
// loudly instead of being accepted and ignored.

TEST(ParseConfigTest, PeerSectionDisabledByDefault) {
  auto parsed = ParseConfig(kMinimalIni);
  ASSERT_OK(parsed);
  auto config = BuildMonarchConfig(parsed.value());
  ASSERT_OK(config);
  EXPECT_FALSE(config.value().peer_tier.has_value());
  EXPECT_EQ(nullptr, config.value().peer_view);
  EXPECT_FALSE(CatalogueHasSection("peer"));
}

TEST(ParseConfigTest, ParsesPeerSection) {
  ExpectUnknownSection(std::string(kMinimalIni) +
                       "[peer]\n"
                       "enabled = true\n"
                       "interconnect_bandwidth = 2GiB\n"
                       "interconnect_latency_us = 80\n"
                       "directory_shards = 32\n"
                       "replication = 2\n");
}

TEST(ParseConfigTest, RejectsBadPeerKeys) {
  for (const char* tail : {"[peer]\ntypo=1\n", "[peer]\nreplication=0\n",
                           "[peer]\nenabled=maybe\n"}) {
    SCOPED_TRACE(tail);
    ExpectUnknownSection(std::string(kMinimalIni) + tail);
  }
}

TEST(ParseConfigTest, CheckpointSectionDisabledByDefault) {
  auto parsed = ParseConfig(kMinimalIni);
  ASSERT_OK(parsed);
  ASSERT_OK(BuildMonarchConfig(parsed.value()));
  EXPECT_FALSE(CatalogueHasSection("checkpoint"));
}

TEST(ParseConfigTest, ParsesCheckpointSection) {
  ExpectUnknownSection(std::string(kMinimalIni) +
                       "[checkpoint]\n"
                       "enabled = true\n"
                       "dir = checkpoints\n"
                       "keep_last = 3\n"
                       "drain_bandwidth = 200MiB\n"
                       "drain_threads = 2\n"
                       "verify_on_restore = false\n");
}

TEST(ParseConfigTest, RejectsBadCheckpointKeys) {
  for (const char* tail :
       {"[checkpoint]\ntypo=1\n", "[checkpoint]\ndrain_threads=0\n",
        "[checkpoint]\ndir=\n", "[checkpoint]\nenabled=maybe\n"}) {
    SCOPED_TRACE(tail);
    ExpectUnknownSection(std::string(kMinimalIni) + tail);
  }
}

TEST(BuildMonarchConfigTest, UnknownProfileRejected) {
  ParsedConfig parsed;
  parsed.dataset_dir = "d";
  parsed.cache_tiers.push_back({"t", "floppy", "/tmp/x", 1024, 1});
  parsed.pfs = {"p", "raw", "/tmp/y", 0, 1};
  EXPECT_STATUS_CODE(StatusCode::kInvalidArgument,
                     BuildMonarchConfig(parsed));
}

TEST(BuildMonarchConfigTest, SsdWithoutRootRejected) {
  ParsedConfig parsed;
  parsed.dataset_dir = "d";
  parsed.cache_tiers.push_back({"t", "ssd", "", 1024, 1});
  parsed.pfs = {"p", "raw", "/tmp/y", 0, 1};
  EXPECT_STATUS_CODE(StatusCode::kInvalidArgument,
                     BuildMonarchConfig(parsed));
}

TEST(MonarchFromIniTest, EndToEndOverRealDirectories) {
  TempDir dir("config_e2e");
  // Stage a tiny dataset on the "PFS" directory.
  storage::PosixEngine staging(dir.Sub("pfs"));
  auto spec = workload::DatasetSpec::Tiny();
  ASSERT_OK(workload::GenerateDataset(staging, spec));

  const std::string ini =
      "[monarch]\ndataset_dir = " + spec.directory + "\n"
      "placement_threads = 2\n"
      "[tier.0]\nname = ram-cache\nprofile = ram\nquota = 10MiB\n"
      "[pfs]\nname = quiet-pfs\nprofile = lustre-quiet\nroot = " +
      dir.Sub("pfs").string() + "\n";

  auto monarch = MonarchFromIni(ini);
  ASSERT_OK(monarch);
  EXPECT_EQ(spec.num_files, monarch.value()->Stats().files_indexed);

  // Read a file through the configured stack.
  const std::string path = workload::RecordFilePath(spec, 0);
  std::vector<std::byte> buf(64);
  ASSERT_OK(monarch.value()->Read(path, 0, buf));
  monarch.value()->DrainPlacements();
  EXPECT_EQ(1u, monarch.value()->Stats().placement.completed);
}

}  // namespace
}  // namespace monarch::core
