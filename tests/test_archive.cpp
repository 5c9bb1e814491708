// Round-trip and corruption tests for the BGA archive format and the
// streaming ArchiveReader, which decodes files and in-memory images alike.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "bgp/archive.h"
#include "bgp/archive_reader.h"

namespace bgpatoms::bgp {
namespace {

Dataset make_dataset() {
  Dataset ds;
  ds.family = net::Family::kIPv4;
  ds.collectors = {"rrc00", "route-views.2"};

  const PathId p1 = ds.paths.intern(net::AsPath::sequence({64496, 3356, 15169}));
  const PathId p2 = ds.paths.intern(*net::AsPath::parse("64496 174 [2914 3257]"));
  const PrefixId a = ds.prefixes.intern(*net::Prefix::parse("8.8.8.0/24"));
  const PrefixId b = ds.prefixes.intern(*net::Prefix::parse("10.0.0.0/8"));
  const auto comm =
      ds.communities.intern({make_community(3356, 100), make_community(1, 2)});

  Snapshot snap;
  snap.timestamp = 1073894400;  // 2004-01-12
  PeerFeed feed;
  feed.peer = {64496, net::IpAddress::v4(0xC6120001u), 0};
  feed.records.push_back({a, p1, comm, RecordStatus::kValid});
  feed.records.push_back({b, p2, 0, RecordStatus::kDuplicateAttribute});
  snap.peers.push_back(feed);

  PeerFeed feed2;
  feed2.peer = {64497, net::IpAddress::v4(0xC6120002u), 1};
  feed2.records.push_back({b, p1, 0, RecordStatus::kValid});
  snap.peers.push_back(feed2);
  ds.snapshots.push_back(std::move(snap));

  UpdateRecord u;
  u.timestamp = 1073894460;
  u.collector = 1;
  u.peer = 1;
  u.path = p1;
  u.communities = comm;
  u.announced = {a, b};
  ds.updates.push_back(u);
  UpdateRecord w;
  w.timestamp = 1073894470;
  w.collector = 0;
  w.peer = 0;
  w.withdrawn = {a};
  ds.updates.push_back(w);
  return ds;
}

void expect_equal(const Dataset& x, const Dataset& y) {
  EXPECT_EQ(x.family, y.family);
  EXPECT_EQ(x.collectors, y.collectors);
  ASSERT_EQ(x.paths.size(), y.paths.size());
  for (std::size_t i = 0; i < x.paths.size(); ++i) {
    EXPECT_EQ(x.paths.get(static_cast<PathId>(i)),
              y.paths.get(static_cast<PathId>(i)));
  }
  ASSERT_EQ(x.prefixes.size(), y.prefixes.size());
  for (std::size_t i = 0; i < x.prefixes.size(); ++i) {
    EXPECT_EQ(x.prefixes.get(static_cast<PrefixId>(i)),
              y.prefixes.get(static_cast<PrefixId>(i)));
  }
  ASSERT_EQ(x.snapshots.size(), y.snapshots.size());
  for (std::size_t s = 0; s < x.snapshots.size(); ++s) {
    EXPECT_EQ(x.snapshots[s].timestamp, y.snapshots[s].timestamp);
    ASSERT_EQ(x.snapshots[s].peers.size(), y.snapshots[s].peers.size());
    for (std::size_t p = 0; p < x.snapshots[s].peers.size(); ++p) {
      EXPECT_EQ(x.snapshots[s].peers[p].peer, y.snapshots[s].peers[p].peer);
      EXPECT_EQ(x.snapshots[s].peers[p].records,
                y.snapshots[s].peers[p].records);
    }
  }
  EXPECT_EQ(x.updates, y.updates);
}

TEST(Archive, RoundTrip) {
  const Dataset ds = make_dataset();
  const auto image = write_archive(ds);
  ASSERT_GE(image.size(), 4u);
  EXPECT_EQ(image[3], '2');  // "BGA2", the one wire format
  const Dataset back = read_archive(image);
  expect_equal(ds, back);
}

TEST(Archive, RoundTripEmptyDataset) {
  Dataset ds;
  ds.family = net::Family::kIPv6;
  const Dataset back = read_archive(write_archive(ds));
  EXPECT_EQ(back.family, net::Family::kIPv6);
  EXPECT_TRUE(back.snapshots.empty());
  EXPECT_TRUE(back.updates.empty());
  EXPECT_EQ(back.paths.size(), 1u);  // just the empty path
}

TEST(Archive, DetectsBitFlip) {
  const auto image = write_archive(make_dataset());
  for (std::size_t pos : {std::size_t{4}, std::size_t{5}, image.size() / 2,
                          image.size() - 1}) {
    auto corrupted = image;
    corrupted[pos] ^= 0x40;
    EXPECT_THROW(read_archive(corrupted), ArchiveError) << "pos " << pos;
  }
}

TEST(Archive, DetectsTruncation) {
  const auto image = write_archive(make_dataset());
  EXPECT_THROW(read_archive(std::span<const std::uint8_t>(image.data(),
                                                          image.size() - 1)),
               ArchiveError);
  EXPECT_THROW(read_archive(std::span<const std::uint8_t>(image.data(), 4)),
               ArchiveError);
  EXPECT_THROW(read_archive(std::span<const std::uint8_t>()), ArchiveError);
}

TEST(Archive, DetectsBadMagic) {
  auto image = write_archive(make_dataset());
  image[0] = 'X';
  EXPECT_THROW(read_archive(image), ArchiveError);
  // The retired first format's magic is no longer accepted either.
  image[0] = 'B';
  image[3] = '1';
  EXPECT_THROW(read_archive(image), ArchiveError);
}

TEST(Archive, DetectsTrailingBytes) {
  // A CRC-valid section whose payload runs past its content must be
  // rejected, not skipped. Re-frame the collectors section (the first one,
  // right after the 9-byte header) with `extra` bytes appended.
  const auto image = write_archive(make_dataset());
  const auto reframe = [&image](std::vector<std::uint8_t> extra) {
    ByteReader frame(std::span<const std::uint8_t>(image).subspan(9));
    EXPECT_EQ(frame.u8(), 1);  // collectors
    const std::size_t len = static_cast<std::size_t>(frame.u64());
    std::vector<std::uint8_t> payload(image.begin() + 18,
                                      image.begin() + 18 + len);
    payload.insert(payload.end(), extra.begin(), extra.end());
    ByteWriter w;
    w.bytes(image.data(), 9);
    w.u8(1);
    w.u64(payload.size());
    w.bytes(payload.data(), payload.size());
    w.u32(crc32(payload));
    const std::size_t rest = 18 + len + 4;
    w.bytes(image.data() + rest, image.size() - rest);
    return w.take();
  };
  expect_equal(make_dataset(), read_archive(reframe({})));
  EXPECT_THROW(read_archive(reframe({0})), ArchiveError);
}

TEST(Archive, DetectsTrailingBytesAfterV2EndSection) {
  auto image = write_archive(make_dataset());
  image.push_back(0);
  EXPECT_THROW(read_archive(image), ArchiveError);
}

TEST(Archive, FileRoundTrip) {
  const auto path = std::filesystem::temp_directory_path() / "bga_test.bga";
  const Dataset ds = make_dataset();
  write_archive_file(ds, path.string());
  const Dataset back = read_archive_file(path.string());
  expect_equal(ds, back);
  std::filesystem::remove(path);
}

TEST(Archive, MissingFileThrows) {
  EXPECT_THROW(read_archive_file("/nonexistent/definitely/not.bga"),
               ArchiveError);
}

TEST(Archive, V6AddressesSurvive) {
  Dataset ds;
  ds.family = net::Family::kIPv6;
  ds.collectors = {"rrc00"};
  const PrefixId p = ds.prefixes.intern(*net::Prefix::parse("2001:db8::/32"));
  const PathId path = ds.paths.intern(net::AsPath::sequence({1, 2}));
  Snapshot snap;
  snap.timestamp = 42;
  PeerFeed feed;
  feed.peer = {65001, net::IpAddress::v6(0x20010db8feed0000ULL, 7), 0};
  feed.records.push_back({p, path, 0, RecordStatus::kValid});
  snap.peers.push_back(feed);
  ds.snapshots.push_back(snap);

  const Dataset back = read_archive(write_archive(ds));
  EXPECT_EQ(back.snapshots[0].peers[0].peer.address,
            net::IpAddress::v6(0x20010db8feed0000ULL, 7));
  EXPECT_EQ(back.prefixes.get(0), *net::Prefix::parse("2001:db8::/32"));
}

// --- streaming ArchiveReader ------------------------------------------------

/// make_dataset() plus a second snapshot, so the snapshot run is > 1.
Dataset make_two_snapshot_dataset() {
  Dataset ds = make_dataset();
  Snapshot snap2;
  snap2.timestamp = 1073980800;
  PeerFeed feed;
  feed.peer = {64496, net::IpAddress::v4(0xC6120001u), 0};
  feed.records.push_back({0, 1, 0, RecordStatus::kValid});
  snap2.peers.push_back(std::move(feed));
  ds.snapshots.push_back(std::move(snap2));
  return ds;
}

class TempFile {
 public:
  explicit TempFile(const char* name)
      : path_((std::filesystem::temp_directory_path() / name).string()) {}
  ~TempFile() { std::filesystem::remove(path_); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

TEST(ArchiveReader, StreamsSnapshotsThenUpdates) {
  const Dataset ds = make_two_snapshot_dataset();
  const TempFile file("bga_reader_v2.bga");
  write_archive_file(ds, file.path());

  ArchiveReader reader(file.path());
  EXPECT_EQ(reader.collectors(), ds.collectors);
  EXPECT_EQ(reader.prefixes().size(), ds.prefixes.size());

  std::size_t nsnap = 0;
  while (auto snap = reader.next_snapshot()) {
    EXPECT_EQ(snap->timestamp, ds.snapshots[nsnap].timestamp);
    ++nsnap;
  }
  EXPECT_EQ(nsnap, ds.snapshots.size());

  std::vector<UpdateRecord> updates;
  while (auto chunk = reader.next_updates()) {
    updates.insert(updates.end(), chunk->begin(), chunk->end());
  }
  EXPECT_EQ(updates, ds.updates);

  // The transient decode buffer never held the whole file.
  EXPECT_LT(reader.peak_buffer_bytes(), reader.file_bytes());
}

TEST(ArchiveReader, ReadAllMatchesDataset) {
  const Dataset ds = make_two_snapshot_dataset();
  const TempFile file("bga_reader_all.bga");
  write_archive_file(ds, file.path());
  expect_equal(ds, ArchiveReader(file.path()).read_all());
  // An in-memory image takes the same section-at-a-time path.
  const auto image = write_archive(ds);
  ArchiveReader from_image(image);
  EXPECT_EQ(from_image.file_bytes(), image.size());
  expect_equal(ds, from_image.read_all());
  EXPECT_LT(from_image.peak_buffer_bytes(), image.size());
}

TEST(ArchiveReader, UpdatesBeforeSnapshotsDrainedThrows) {
  const Dataset ds = make_two_snapshot_dataset();
  const TempFile file("bga_reader_order.bga");
  write_archive_file(ds, file.path());
  ArchiveReader reader(file.path());
  EXPECT_THROW(reader.next_updates(), ArchiveError);
}

TEST(ArchiveReader, LargeUpdateStreamSplitsIntoChunks) {
  // > one chunk of updates: the reader must reassemble the stream in order
  // and the per-chunk timestamp delta restart must be invisible.
  Dataset ds;
  ds.family = net::Family::kIPv4;
  ds.collectors = {"rrc00"};
  const PrefixId p = ds.prefixes.intern(*net::Prefix::parse("10.0.0.0/8"));
  const PathId path = ds.paths.intern(net::AsPath::sequence({64496, 3356}));
  const std::size_t n = (1u << 16) + 1000;  // kUpdatesPerChunk + some
  ds.updates.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    UpdateRecord u;
    u.timestamp = static_cast<Timestamp>(1000 + i);
    u.path = path;
    u.announced = {p};
    ds.updates.push_back(std::move(u));
  }
  const TempFile file("bga_reader_chunks.bga");
  write_archive_file(ds, file.path());

  ArchiveReader reader(file.path());
  while (reader.next_snapshot()) {
  }
  std::size_t chunks = 0, total = 0;
  Timestamp prev = INT64_MIN;
  while (auto chunk = reader.next_updates()) {
    ++chunks;
    for (const auto& u : *chunk) {
      EXPECT_GE(u.timestamp, prev);
      prev = u.timestamp;
      ++total;
    }
  }
  EXPECT_GE(chunks, 2u);
  EXPECT_EQ(total, n);
  EXPECT_LT(reader.peak_buffer_bytes(), reader.file_bytes());
}

}  // namespace
}  // namespace bgpatoms::bgp
