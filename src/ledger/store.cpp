#include "src/ledger/store.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <system_error>

#include "src/common/faults.h"
#include "src/common/files.h"
#include "src/common/serde.h"
#include "src/crypto/sha256.h"

namespace votegral {

namespace fs = std::filesystem;

namespace {

// Segment file header: magic, segment number, first entry index, capacity,
// flags. v02 added the flags word (bit 0 = sealed) so a segment carries its
// own durability state: frames are flushed as they append, and sealing
// rewrites the completed segment — sealed flag set — to a temp file followed
// by an atomic rename, so a crash mid-seal leaves either the old unsealed
// file (recovery re-seals it) or the new sealed one, never a half-updated
// header over live frames.
constexpr char kSegmentMagic[8] = {'V', 'G', 'L', 'S', 'E', 'G', '0', '2'};
constexpr size_t kSegmentHeaderBytes = sizeof(kSegmentMagic) + 8 + 8 + 4 + 4;
constexpr uint32_t kSegmentSealedFlag = 1u << 0;
constexpr const char* kSealTempSuffix = ".tmp";

std::string SegmentFileName(uint64_t segment) {
  char name[32];
  std::snprintf(name, sizeof(name), "seg-%08llu.log",
                static_cast<unsigned long long>(segment));
  return name;
}

Bytes EncodeSegmentHeader(uint64_t segment, uint64_t first_index,
                          uint32_t segment_entries, uint32_t flags) {
  Bytes out;
  out.insert(out.end(), kSegmentMagic, kSegmentMagic + sizeof(kSegmentMagic));
  out.resize(kSegmentHeaderBytes);
  StoreLe64(out.data() + 8, segment);
  StoreLe64(out.data() + 16, first_index);
  StoreLe32(out.data() + 24, segment_entries);
  StoreLe32(out.data() + 28, flags);
  return out;
}

// Parses one length-prefixed frame as zero-copy views into `bytes`.
// Returns: 1 on success (offset advanced), 0 on a torn/incomplete frame
// (offset untouched), -1 on a structurally bad frame.
int ParseFrameView(std::span<const uint8_t> bytes, size_t* offset,
                   LedgerEntryView* out) {
  size_t pos = *offset;
  if (bytes.size() - pos < 4) {
    return 0;
  }
  uint32_t frame_len = LoadLe32(bytes.data() + pos);
  pos += 4;
  if (bytes.size() - pos < frame_len) {
    return 0;
  }
  std::span<const uint8_t> frame = bytes.subspan(pos, frame_len);
  // Frame layout: u64 index | u32 topic_len | topic | u32 payload_len |
  // payload | 32B prev_hash | 32B entry_hash.
  size_t p = 0;
  if (frame.size() < 12) {
    return -1;
  }
  out->index = LoadLe64(frame.data());
  uint32_t topic_len = LoadLe32(frame.data() + 8);
  p = 12;
  if (frame.size() - p < topic_len) {
    return -1;
  }
  out->topic = std::string_view(reinterpret_cast<const char*>(frame.data() + p), topic_len);
  p += topic_len;
  if (frame.size() - p < 4) {
    return -1;
  }
  uint32_t payload_len = LoadLe32(frame.data() + p);
  p += 4;
  // size_t arithmetic: a crafted payload_len near UINT32_MAX must not wrap
  // the right-hand side into passing the check (attacker-supplied frames
  // reach this from snapshot import).
  if (frame.size() - p != size_t{payload_len} + 64) {
    return -1;
  }
  out->payload = frame.subspan(p, payload_len);
  p += payload_len;
  std::copy_n(frame.data() + p, 32, out->prev_hash.begin());
  std::copy_n(frame.data() + p + 32, 32, out->entry_hash.begin());
  *offset = pos + frame_len;
  return 1;
}

// Strict "seg-XXXXXXXX.log" parse (8 decimal digits); returns false for
// anything else so stray files in the directory are ignored, not misread.
bool ParseSegmentFileName(const std::string& name, uint64_t* segment) {
  if (name.size() != 16 || name.rfind("seg-", 0) != 0 ||
      name.compare(12, 4, ".log") != 0) {
    return false;
  }
  uint64_t value = 0;
  for (size_t i = 4; i < 12; ++i) {
    if (name[i] < '0' || name[i] > '9') {
      return false;
    }
    value = value * 10 + static_cast<uint64_t>(name[i] - '0');
  }
  *segment = value;
  return true;
}

}  // namespace

LedgerHash HashLedgerEntry(uint64_t index, std::string_view topic,
                           std::span<const uint8_t> payload, const LedgerHash& prev) {
  // The ByteWriter form U64(index) | Str(topic) | Var(payload) | Fixed(prev),
  // streamed into the hasher instead of built in a buffer.
  Require(topic.size() <= UINT32_MAX && payload.size() <= UINT32_MAX,
          "HashLedgerEntry: field too large");
  uint8_t index_le[8];
  uint8_t topic_len[4];
  uint8_t payload_len[4];
  StoreLe64(index_le, index);
  StoreLe32(topic_len, static_cast<uint32_t>(topic.size()));
  StoreLe32(payload_len, static_cast<uint32_t>(payload.size()));
  Sha256 h;
  h.Update(index_le).Update(topic_len).Update(AsBytes(topic)).Update(payload_len);
  h.Update(payload).Update(prev);
  return h.Finalize();
}

LedgerStorageConfig LedgerStorageConfig::ForSubLog(const char* name) const {
  LedgerStorageConfig config = *this;
  if (config.backend == Backend::kFile) {
    config.directory = (fs::path(directory) / name).string();
  }
  return config;
}

namespace {

void AppendEntryFrameParts(Bytes* out, uint64_t index, std::string_view topic,
                           std::span<const uint8_t> payload, const LedgerHash& prev,
                           const LedgerHash& entry_hash) {
  ByteWriter w;
  w.U64(index);
  w.Str(topic);
  w.Var(payload);
  w.Fixed(prev);
  w.Fixed(entry_hash);
  Bytes frame = w.Take();
  size_t base = out->size();
  out->resize(base + 4);
  StoreLe32(out->data() + base, static_cast<uint32_t>(frame.size()));
  out->insert(out->end(), frame.begin(), frame.end());
}

}  // namespace

void AppendEntryFrame(Bytes* out, const LedgerEntry& entry) {
  AppendEntryFrameParts(out, entry.index, entry.topic, entry.payload, entry.prev_hash,
                        entry.entry_hash);
}

void AppendEntryFrame(Bytes* out, const LedgerEntryView& view) {
  AppendEntryFrameParts(out, view.index, view.topic, view.payload, view.prev_hash,
                        view.entry_hash);
}

Outcome<LedgerEntry> DecodeEntryFrame(std::span<const uint8_t> bytes, size_t* offset) {
  LedgerEntryView view;
  int parsed = ParseFrameView(bytes, offset, &view);
  if (parsed <= 0) {
    return Outcome<LedgerEntry>::Fail(StatusCode::kCorrupted,
                                      parsed == 0 ? "ledger store: truncated entry frame"
                                                  : "ledger store: malformed entry frame");
  }
  return Outcome<LedgerEntry>::Ok(view.Materialize());
}

// --- InMemoryLedgerStore -----------------------------------------------------

InMemoryLedgerStore::InMemoryLedgerStore(size_t segment_entries)
    : segment_entries_(segment_entries) {
  Require(segment_entries_ > 0 && (segment_entries_ & (segment_entries_ - 1)) == 0,
          "ledger store: segment_entries must be a power of two");
}

uint64_t InMemoryLedgerStore::Append(const LedgerEntry& entry) {
  Require(entry.index == entries_.size(), "ledger store: append index out of sequence");
  entries_.push_back(entry);
  return entry.index;
}

PinnedSegment InMemoryLedgerStore::Pin(uint64_t segment) const {
  Require(segment < SegmentCount(), "ledger store: pin of nonexistent segment");
  PinnedSegment pin;
  pin.first_index_ = segment * segment_entries_;
  pin.count_ = std::min<uint64_t>(segment_entries_, entries_.size() - pin.first_index_);
  pin.views_.reserve(pin.count_);
  for (size_t i = 0; i < pin.count_; ++i) {
    const LedgerEntry& entry = entries_[pin.first_index_ + i];
    pin.views_.push_back(LedgerEntryView{entry.index, entry.topic, entry.payload,
                                         entry.prev_hash, entry.entry_hash});
  }
  return pin;
}

void InMemoryLedgerStore::TamperWithPayloadForTest(uint64_t index, Bytes payload) {
  Require(index < entries_.size(), "ledger store: tamper index out of range");
  entries_[index].payload = std::move(payload);
}

// --- FileLedgerStore ---------------------------------------------------------

FileLedgerStore::FileLedgerStore(std::string directory, size_t segment_entries)
    : directory_(std::move(directory)), segment_entries_(segment_entries) {}

std::string FileLedgerStore::SegmentPath(uint64_t segment) const {
  return (fs::path(directory_) / SegmentFileName(segment)).string();
}

Outcome<std::unique_ptr<FileLedgerStore>> FileLedgerStore::Open(
    std::string directory, size_t segment_entries) {
  using Out = Outcome<std::unique_ptr<FileLedgerStore>>;
  if (segment_entries == 0 || (segment_entries & (segment_entries - 1)) != 0) {
    return Out::Fail("ledger store: segment_entries must be a power of two");
  }
  std::error_code ec;
  fs::create_directories(directory, ec);
  if (ec) {
    return Out::Fail("ledger store: cannot create directory " + directory + ": " +
                     ec.message());
  }
  auto store = std::unique_ptr<FileLedgerStore>(
      new FileLedgerStore(std::move(directory), segment_entries));
  if (Status recovered = store->RecoverFromDisk(); !recovered.ok()) {
    return Out::Fail(std::move(recovered));
  }
  return Out::Ok(std::move(store));
}

Status FileLedgerStore::RecoverFromDisk() {
  // Enumerate segment files; numbering must be contiguous from zero — a gap
  // means a segment file went missing and the chain cannot be replayed.
  // Stray seal temp files (a crash between writing `<seg>.tmp` and the
  // atomic rename) are discarded first: the live, unsealed file is still the
  // source of truth and gets re-sealed below.
  std::vector<uint64_t> present;
  std::vector<fs::path> stale_temps;
  for (const fs::directory_entry& entry : fs::directory_iterator(directory_)) {
    const std::string name = entry.path().filename().string();
    uint64_t segment = 0;
    if (ParseSegmentFileName(name, &segment)) {
      present.push_back(segment);
    } else if (name.size() > 4 && name.compare(name.size() - 4, 4, kSealTempSuffix) == 0 &&
               ParseSegmentFileName(name.substr(0, name.size() - 4), &segment)) {
      stale_temps.push_back(entry.path());
    }
  }
  for (const fs::path& temp : stale_temps) {
    std::error_code rm_ec;
    fs::remove(temp, rm_ec);
    if (rm_ec) {
      return Status::Error("ledger store: cannot remove stale seal temp " +
                           temp.string() + ": " + rm_ec.message());
    }
    recovery_stats_.removed_seal_temp = true;
  }
  std::sort(present.begin(), present.end());
  for (size_t s = 0; s < present.size(); ++s) {
    if (present[s] != s) {
      return Status::Error("ledger store: missing segment file " +
                           SegmentFileName(s) + " in " + directory_);
    }
  }

  LedgerHash prev = {};
  uint64_t expected_index = 0;
  bool tail_sealed = false;
  for (size_t s = 0; s < present.size(); ++s) {
    const bool last = (s + 1 == present.size());
    const std::string path = SegmentPath(s);
    auto bytes = ReadFileBytes(path);
    if (!bytes.ok()) {
      return bytes.status;
    }
    auto fail = [&](uint64_t entry_in_segment, const std::string& what) {
      return Status::Error("ledger store: segment " + std::to_string(s) + " entry " +
                           std::to_string(entry_in_segment) + ": " + what + " (" + path +
                           ")");
    };
    if (bytes->size() < kSegmentHeaderBytes) {
      // A crash between creating the next segment file and flushing its
      // first frame leaves a zero-byte or partial-header file. That is a
      // torn tail, recoverable only at the very end of the log.
      if (last && s > 0) {
        std::error_code rm_ec;
        fs::remove(path, rm_ec);
        if (rm_ec) {
          return Status::Error("ledger store: segment " + std::to_string(s) +
                               ": cannot remove torn tail segment: " + rm_ec.message());
        }
        recovery_stats_.truncated_tail = true;
        recovery_stats_.dropped_bytes = bytes->size();
        break;
      }
      if (last && bytes->empty()) {  // sole, empty segment file: a fresh log
        std::error_code rm_ec;
        fs::remove(path, rm_ec);
        recovery_stats_.truncated_tail = true;
        break;
      }
      return Status::Error("ledger store: segment " + std::to_string(s) +
                           ": truncated header (" + path + ")");
    }
    if (!std::equal(kSegmentMagic, kSegmentMagic + sizeof(kSegmentMagic), bytes->begin())) {
      return Status::Error("ledger store: segment " + std::to_string(s) +
                           ": bad header magic (" + path + ")");
    }
    const uint64_t header_segment = LoadLe64(bytes->data() + 8);
    const uint64_t header_first = LoadLe64(bytes->data() + 16);
    const uint32_t header_capacity = LoadLe32(bytes->data() + 24);
    const uint32_t header_flags = LoadLe32(bytes->data() + 28);
    const bool sealed = (header_flags & kSegmentSealedFlag) != 0;
    if ((header_flags & ~kSegmentSealedFlag) != 0) {
      return Status::Error("ledger store: segment " + std::to_string(s) +
                           ": unknown header flags (" + path + ")");
    }
    if (!sealed && !last) {
      return Status::Error("ledger store: segment " + std::to_string(s) +
                           ": unsealed segment is not the log tail (" + path + ")");
    }
    if (s == 0) {
      // The on-disk log's geometry wins over the caller's, but it must
      // satisfy the same power-of-two invariant the caller's value did.
      if (header_capacity == 0 || (header_capacity & (header_capacity - 1)) != 0) {
        return Status::Error("ledger store: segment 0: header capacity " +
                             std::to_string(header_capacity) +
                             " is not a power of two (" + path + ")");
      }
      segment_entries_ = header_capacity;
    }
    if (header_segment != s || header_first != expected_index ||
        header_capacity != segment_entries_) {
      return Status::Error("ledger store: segment " + std::to_string(s) +
                           ": header does not match its position in the log (" + path +
                           ")");
    }

    size_t offset = kSegmentHeaderBytes;
    uint64_t in_segment = 0;
    while (offset < bytes->size()) {
      LedgerEntryView view;
      int parsed = ParseFrameView(*bytes, &offset, &view);
      if (parsed == 0) {
        // Torn tail frame: recoverable only in the unsealed tail segment (a
        // crash mid-append); inside a sealed segment it is corruption.
        if (sealed) {
          return fail(in_segment, "torn entry frame inside a sealed segment");
        }
        std::error_code trunc_ec;
        fs::resize_file(path, offset, trunc_ec);
        if (trunc_ec) {
          return fail(in_segment, "cannot truncate torn tail: " + trunc_ec.message());
        }
        recovery_stats_.truncated_tail = true;
        recovery_stats_.dropped_bytes = bytes->size() - offset;
        bytes->resize(offset);
        break;
      }
      if (parsed < 0) {
        return fail(in_segment, "malformed entry frame");
      }
      if (in_segment >= segment_entries_) {
        return fail(in_segment, "more entries than the segment capacity");
      }
      if (view.index != expected_index) {
        return fail(in_segment, "entry index breaks the sequence");
      }
      if (view.prev_hash != prev) {
        return fail(in_segment, "hash chain break");
      }
      LedgerHash recomputed =
          HashLedgerEntry(view.index, view.topic, view.payload, view.prev_hash);
      if (recomputed != view.entry_hash) {
        return fail(in_segment, "entry hash mismatch (payload or header tampered)");
      }
      prev = view.entry_hash;
      ++expected_index;
      ++in_segment;
      if (last) {
        active_.push_back(view.Materialize());
      }
    }
    if (sealed && in_segment != segment_entries_) {
      return Status::Error("ledger store: segment " + std::to_string(s) +
                           ": sealed segment holds " + std::to_string(in_segment) +
                           " entries, expected " + std::to_string(segment_entries_) + " (" +
                           path + ")");
    }
    if (last) {
      tail_sealed = sealed;
    }
  }
  size_ = expected_index;
  recovery_stats_.recovered_entries = size_;
  if (tail_sealed) {
    active_.clear();  // tail segment is complete and committed
  } else if (!active_.empty() && active_.size() == segment_entries_) {
    // The tail is full but its seal never committed (crash after the last
    // frame flush, before the atomic rename). Finish the seal now.
    SealActiveSegment();
    recovery_stats_.resealed_tail = true;
  }
  active_first_ = (size_ / segment_entries_) * segment_entries_;
  return Status::Ok();
}

void FileLedgerStore::OpenActiveStream() {
  const uint64_t segment = size_ / segment_entries_;
  const std::string path = SegmentPath(segment);
  const bool fresh = !fs::exists(path);
  active_out_.open(path, std::ios::binary | std::ios::app);
  Require(static_cast<bool>(active_out_),
          "ledger store: cannot open active segment for append");
  if (fresh) {
    // New segments open unsealed (flags = 0); the sealed flag is only ever
    // committed by the atomic rename in SealActiveSegment.
    Bytes header = EncodeSegmentHeader(segment, size_,
                                       static_cast<uint32_t>(segment_entries_), 0);
    active_out_.write(reinterpret_cast<const char*>(header.data()),
                      static_cast<std::streamsize>(header.size()));
  }
}

uint64_t FileLedgerStore::Append(const LedgerEntry& entry) {
  Require(entry.index == size_, "ledger store: append index out of sequence");
  if (!active_out_.is_open()) {
    OpenActiveStream();
  }
  Bytes frame;
  AppendEntryFrame(&frame, entry);
  const uint64_t segment = size_ / segment_entries_;
  const FaultDecision fault = ProbeFaultPoint(faults::kLedgerAppend, segment, entry.index);
  if (fault.kind == FaultKind::kCrash) {
    // Torn write: only a prefix of the frame reaches disk before the
    // process "dies". Recovery truncates it away and the tally resumes
    // from the previous entry.
    active_out_.write(reinterpret_cast<const char*>(frame.data()),
                      static_cast<std::streamsize>(frame.size() / 2));
    active_out_.flush();
    active_out_.close();
    throw InjectedCrash("ledger store: crash injected at " +
                        std::string(faults::kLedgerAppend) + " (entry " +
                        std::to_string(entry.index) + ")");
  }
  if (fault.kind == FaultKind::kCorrupt) {
    // Silent media corruption: the frame lands on disk with a flipped byte
    // while the in-memory copy stays intact. Caught by the hash chain on
    // the next recovery, not by this process.
    frame.back() ^= 0x01;
  }
  active_out_.write(reinterpret_cast<const char*>(frame.data()),
                    static_cast<std::streamsize>(frame.size()));
  active_out_.flush();
  Require(static_cast<bool>(active_out_), "ledger store: segment write failed");
  active_.push_back(entry);
  ++size_;
  if (active_.size() == segment_entries_) {
    SealActiveSegment();
  }
  return entry.index;
}

void FileLedgerStore::SealActiveSegment() {
  Require(!active_.empty() && active_.size() == segment_entries_,
          "ledger store: seal of a non-full segment");
  const uint64_t first_index = active_.front().index;
  const uint64_t segment = first_index / segment_entries_;
  if (active_out_.is_open()) {
    active_out_.flush();  // every frame is on disk before the seal starts
    active_out_.close();
  }
  // Build the sealed image and commit it with write-to-temp + atomic rename:
  // a crash at any point leaves either the old unsealed file (re-sealed on
  // the next open) or the complete sealed one — never a live file with a
  // half-updated header.
  Bytes image = EncodeSegmentHeader(segment, first_index,
                                    static_cast<uint32_t>(segment_entries_),
                                    kSegmentSealedFlag);
  for (const LedgerEntry& entry : active_) {
    AppendEntryFrame(&image, entry);
  }
  const std::string path = SegmentPath(segment);
  const std::string temp = path + kSealTempSuffix;
  const FaultDecision fault = ProbeFaultPoint(faults::kLedgerSeal, segment, first_index);
  {
    std::ofstream out(temp, std::ios::binary | std::ios::trunc);
    Require(static_cast<bool>(out), "ledger store: cannot open seal temp file");
    if (fault.kind == FaultKind::kCrash) {
      // Partial seal: the temp file is half-written when the process
      // "dies". The live segment file is untouched (still unsealed, full);
      // recovery discards the temp and finishes the seal.
      out.write(reinterpret_cast<const char*>(image.data()),
                static_cast<std::streamsize>(image.size() / 2));
      out.flush();
      out.close();
      throw InjectedCrash("ledger store: crash injected at " +
                          std::string(faults::kLedgerSeal) + " (segment " +
                          std::to_string(segment) + ")");
    }
    out.write(reinterpret_cast<const char*>(image.data()),
              static_cast<std::streamsize>(image.size()));
    out.flush();
    Require(static_cast<bool>(out), "ledger store: seal temp write failed");
  }
  std::error_code ec;
  fs::rename(temp, path, ec);
  Require(!ec, "ledger store: atomic seal rename failed");
  active_.clear();
  active_first_ = size_;
}

PinnedSegment FileLedgerStore::Pin(uint64_t segment) const {
  Require(segment < SegmentCount(), "ledger store: pin of nonexistent segment");
  PinnedSegment pin;
  pin.first_index_ = segment * segment_entries_;
  pin.count_ = std::min<uint64_t>(segment_entries_, size_ - pin.first_index_);
  pin.views_.reserve(pin.count_);
  if (!active_.empty() && pin.first_index_ == active_first_) {
    // Active segment: view the in-memory entries directly.
    for (const LedgerEntry& entry : active_) {
      pin.views_.push_back(LedgerEntryView{entry.index, entry.topic, entry.payload,
                                           entry.prev_hash, entry.entry_hash});
    }
    return pin;
  }
  // A sealed segment is read and parsed once while any pin of it is alive;
  // later pins share its image. Holding the lock across the read keeps two
  // concurrent first pins from reading it twice.
  std::lock_guard<std::mutex> lock(live_mutex_);
  std::shared_ptr<const SealedImage> image = live_[segment].lock();
  if (image == nullptr) {
    auto bytes = ReadFileBytes(SegmentPath(segment));
    Require(bytes.ok(), "ledger store: sealed segment vanished under a reader");
    auto fresh = std::make_unique<SealedImage>();
    fresh->bytes = std::move(*bytes);
    fresh->views.reserve(pin.count_);
    size_t offset = kSegmentHeaderBytes;
    for (size_t i = 0; i < pin.count_; ++i) {
      LedgerEntryView view;
      Require(ParseFrameView(fresh->bytes, &offset, &view) == 1,
              "ledger store: sealed segment changed since recovery");
      fresh->views.push_back(view);
    }
    const uint64_t buffer_bytes = fresh->bytes.size();
    uint64_t now = pinned_bytes_.fetch_add(buffer_bytes) + buffer_bytes;
    uint64_t peak = peak_pinned_bytes_.load();
    while (now > peak && !peak_pinned_bytes_.compare_exchange_weak(peak, now)) {
    }
    // Release accounting travels with the image: when the last pin drops
    // it, the pinned-byte gauge goes back down.
    image = std::shared_ptr<const SealedImage>(
        fresh.release(), [buffer_bytes, this](const SealedImage* released) {
          pinned_bytes_.fetch_sub(buffer_bytes);
          delete released;
        });
    live_[segment] = image;
  }
  pin.views_ = image->views;
  pin.backing_ = std::move(image);
  return pin;
}

void FileLedgerStore::TamperWithPayloadForTest(uint64_t index, Bytes payload) {
  Require(index < size_, "ledger store: tamper index out of range");
  const uint64_t segment = SegmentOf(index);
  if (!active_.empty() && index >= active_first_) {
    active_[index - active_first_].payload = payload;
  }
  // Rewrite the whole segment file with the tampered frame (keeping the
  // stored hashes untouched — that is the point of the simulation).
  const std::string path = SegmentPath(segment);
  auto bytes = ReadFileBytes(path);
  Require(bytes.ok(), "ledger store: tamper target segment unreadable");
  Bytes rewritten(bytes->begin(), bytes->begin() + kSegmentHeaderBytes);
  size_t offset = kSegmentHeaderBytes;
  LedgerEntryView view;
  while (offset < bytes->size() && ParseFrameView(*bytes, &offset, &view) == 1) {
    LedgerEntry entry = view.Materialize();
    if (entry.index == index) {
      entry.payload = payload;
    }
    AppendEntryFrame(&rewritten, entry);
  }
  const bool was_active = active_out_.is_open() && segment == size_ / segment_entries_;
  if (was_active) {
    active_out_.close();
  }
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(rewritten.data()),
            static_cast<std::streamsize>(rewritten.size()));
  out.flush();
  Require(static_cast<bool>(out), "ledger store: tamper rewrite failed");
  out.close();
  if (was_active) {
    active_out_.open(path, std::ios::binary | std::ios::app);
  }
  // Pins alive now keep the old bytes; the next first pin reads the new ones.
  std::lock_guard<std::mutex> lock(live_mutex_);
  live_.erase(segment);
}

std::unique_ptr<LedgerStore> CreateFreshStore(const LedgerStorageConfig& config) {
  if (config.backend == LedgerStorageConfig::Backend::kMemory) {
    return std::make_unique<InMemoryLedgerStore>(config.segment_entries);
  }
  Require(!config.directory.empty(), "ledger store: file backend needs a directory");
  auto store = FileLedgerStore::Open(config.directory, config.segment_entries);
  Require(store.ok(), "ledger store: cannot open file backend (recover corrupt logs "
                      "via Ledger::Open, which reports failures as values)");
  Require((*store)->Size() == 0,
          "ledger store: directory already holds a ledger; use PublicLedger::Open");
  return std::move(*store);
}

}  // namespace votegral
