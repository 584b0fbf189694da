// The Error Tolerant Index relation (Section 4.2 of the paper).
//
// ETI is a standard relation [QGram, Coordinate, Column, Frequency,
// Tid-list] stored in the database engine and clustered-indexed (B+-tree)
// on [QGram, Coordinate, Column]. Row e says: the reference tuples in
// e[Tid-list] each contain, in column e[Column], a token whose
// e[Coordinate]-th min-hash coordinate is e[QGram].
//
// Coordinate conventions: q-gram coordinates are 1..H; coordinate 0 is the
// token itself when token indexing (Q+T, Section 5.1) is enabled. Q-grams
// whose frequency reaches the stop threshold are stored with a NULL
// tid-list ("stop q-grams").

#ifndef FUZZYMATCH_ETI_ETI_H_
#define FUZZYMATCH_ETI_ETI_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "eti/eti_accel.h"
#include "storage/btree.h"
#include "storage/database.h"
#include "storage/table.h"
#include "text/minhash.h"
#include "text/tokenizer.h"

namespace fuzzymatch {

/// Index-construction parameters; query processing must use the same ones.
struct EtiParams {
  /// Q-gram size (paper's experiments: q = 4).
  int q = 4;
  /// Min-hash signature size H (0 allowed only with index_tokens).
  int signature_size = 3;
  /// Q+T: additionally index whole tokens as coordinate 0 (Section 5.1).
  bool index_tokens = false;
  /// Baseline mode (Section 2's comparison point, after Gravano et al.):
  /// index EVERY q-gram of every token instead of an H-sized min-hash
  /// sample. All q-grams share coordinate 1; signature_size is ignored.
  /// Much larger index, no sampling error — the trade-off the ETI's
  /// probabilistic subset is designed to win.
  bool full_qgram_index = false;
  /// Stop q-gram threshold (paper: 10000): rows whose tid-list would reach
  /// this size store NULL instead.
  uint32_t stop_qgram_threshold = 10000;
  /// Seed of the min-hash function family.
  uint64_t minhash_seed = 0x5eedf00dULL;
  /// Tokenizer delimiter set.
  std::string delimiters = " \t\r\n";

  /// "Q_H" / "Q+T_H", the paper's strategy naming.
  std::string StrategyName() const;
};

/// One decoded ETI row.
struct EtiEntry {
  uint32_t frequency = 0;
  /// True for stop q-grams: frequency is real but the tid-list is NULL.
  bool is_stop = false;
  std::vector<Tid> tids;
};

/// Caller-owned scratch for the zero-allocation lookup path. One per
/// thread (or per query); its buffer capacity is reused across probes.
struct EtiScratch {
  std::vector<Tid> tids;
  /// Encoded-key staging for the B-tree route.
  std::string key;
};

/// The swappable triple behind an Eti: the persisted rows/index pair
/// plus the in-memory read accelerator built over them. An online
/// rebuild assembles a fresh EtiStorage off to the side and installs it
/// with one atomic pointer store; readers that loaded the old one keep
/// using it (retired storages stay alive until the Eti dies).
struct EtiStorage {
  Table* rows = nullptr;
  BPlusTree* index = nullptr;
  /// Shared so copies of the handle keep accelerating the same tables.
  std::shared_ptr<EtiAccel> accel;
};

/// Read handle over a built ETI.
class Eti {
 public:
  /// Attaches to a persisted ETI (rows table + key index); `params` must
  /// be the build-time parameters (the core facade persists them).
  Eti(Table* rows, BPlusTree* index, EtiParams params);

  /// Movable (handed out by value in BuiltEti). Moving while other
  /// threads read is outside the contract — moves happen at assembly.
  Eti(Eti&& other) noexcept;
  Eti& operator=(Eti&& other) noexcept;
  /// A copy is a handle over a snapshot of the source's current storage
  /// (rows/index pointers shared, accelerator refcounted); it does not
  /// follow the source's later swaps.
  Eti(const Eti& other);
  Eti& operator=(const Eti& other);

  /// Fetches the ETI row for (gram, coordinate, column); nullopt when the
  /// combination is not indexed. Convenience wrapper over LookupInto that
  /// copies the tid-list out; the query hot path uses LookupInto.
  Result<std::optional<EtiEntry>> Lookup(std::string_view gram,
                                         uint32_t coordinate,
                                         uint32_t column) const;

  /// The hot-path lookup: consults the acceleration segment first (zero
  /// latching, zero allocation) and falls back to the B-tree on a spill.
  /// The returned view's tid pointer aims into `scratch` and stays valid
  /// until the next LookupInto with the same scratch.
  Result<EtiLookupView> LookupInto(std::string_view gram,
                                   uint32_t coordinate, uint32_t column,
                                   EtiScratch* scratch) const;

  /// LookupInto with the accelerator probe hash precomputed — the batched
  /// probe loop computes hashes for a whole tuple, prefetches slot lines
  /// (PrefetchProbe), then probes in order. `hash` must be
  /// ProbeHash(gram, coordinate, column); it is ignored when no
  /// accelerator is attached.
  Result<EtiLookupView> LookupHashed(uint64_t hash, std::string_view gram,
                                     uint32_t coordinate, uint32_t column,
                                     EtiScratch* scratch) const;

  /// The accelerator probe hash for a key (see LookupHashed).
  static uint64_t ProbeHash(std::string_view gram, uint32_t coordinate,
                            uint32_t column) {
    return EtiAccel::KeyHash(gram, coordinate, column);
  }

  /// Prefetches the accelerator slot line a future LookupHashed will
  /// touch. No-op when no accelerator is attached.
  void PrefetchProbe(uint64_t hash) const {
    const EtiStorage& s = storage();
    if (s.accel != nullptr) {
      s.accel->PrefetchSlot(hash);
    }
  }

  /// Builds the in-memory read accelerator over the persisted rows (one
  /// sequential scan, DESIGN.md 5d). Must run before concurrent readers
  /// start; maintenance keeps it coherent via Invalidate.
  Status AttachAccelerator(const EtiAccelOptions& options);

  /// The attached accelerator, or nullptr (telemetry and tests).
  const EtiAccel* accelerator() const { return storage().accel.get(); }

  /// The live rows table / clustered index (the rebuild orchestration
  /// needs the names of what it is replacing).
  Table* rows() const { return storage().rows; }
  BPlusTree* index() const { return storage().index; }

  /// Atomically installs `other`'s current storage triple — the swap half
  /// of the online rebuild, adopting a fully assembled shadow Eti (the
  /// rebuild's handle) wholesale. In-flight readers finish on the storage
  /// they loaded. Caller must serialize with maintenance
  /// (IndexTuple/UnindexTuple).
  void SwapStorageFrom(const Eti& other);

  /// Incremental maintenance (the paper defers this "due to space
  /// constraints"): adds a freshly inserted reference tuple's signature
  /// coordinates to the index. `tid` must be larger than every tid
  /// already indexed (Table assigns tids monotonically). Rows whose
  /// frequency crosses the stop threshold become stop q-grams.
  Status IndexTuple(Tid tid, const TokenizedTuple& tokens);

  /// Removes a reference tuple's coordinates. Stop q-grams only decrement
  /// their frequency (the dropped tid-list is not reconstructed); rows
  /// whose tid-list empties are deleted. Returns NotFound when `tid` is
  /// not referenced by any of its coordinates (never indexed, or already
  /// fully unindexed); a retry after a mid-operation failure skips the
  /// coordinates already removed and finishes the rest.
  Status UnindexTuple(Tid tid, const TokenizedTuple& tokens);

  const EtiParams& params() const { return params_; }

  /// Number of ETI rows.
  uint64_t entry_count() const { return storage().rows->row_count(); }

  /// A MinHasher configured with this index's (q, H, seed).
  MinHasher MakeHasher() const {
    return MinHasher(params_.q, params_.signature_size, params_.minhash_seed);
  }

  /// A Tokenizer configured with this index's delimiters.
  Tokenizer MakeTokenizer() const { return Tokenizer(params_.delimiters); }

  /// The ETI relation's schema (exposed for tests/examples).
  static Schema RowSchema();

  /// Encodes the clustered-index key for (gram, coordinate, column).
  static std::string IndexKey(std::string_view gram, uint32_t coordinate,
                              uint32_t column);

  /// Encodes/decodes an ETI row <-> the relational Row representation.
  static Row EncodeRow(std::string_view gram, uint32_t coordinate,
                       uint32_t column, const EtiEntry& entry);
  static Result<EtiEntry> DecodeEntry(const Row& row);

 private:
  /// Applies one add/remove of `tid` to the row for (gram, coord, col).
  Status MutateEntry(std::string_view gram, uint32_t coordinate,
                     uint32_t column, Tid tid, bool add);

  /// Drops the accelerator's entry for a mutated key, if attached.
  void InvalidateAccel(std::string_view gram, uint32_t coordinate,
                       uint32_t column);

  /// One acquire-load snapshot per operation; every read in the
  /// operation then sees one coherent triple even if a rebuild swaps
  /// mid-flight.
  const EtiStorage& storage() const {
    return *storage_.load(std::memory_order_acquire);
  }
  void InstallStorage(EtiStorage next);

  EtiParams params_;
  /// Current triple; retired ones are kept alive in storage_owner_ for
  /// readers that loaded them pre-swap.
  std::atomic<const EtiStorage*> storage_{nullptr};
  std::vector<std::unique_ptr<EtiStorage>> storage_owner_;
};

/// Persists/reads the build parameters of an ETI as a small side relation
/// ("<eti_name>_meta"), so matchers can re-attach in later sessions.
Status SaveEtiParams(Database* db, const std::string& eti_name,
                     const EtiParams& params);
Result<EtiParams> LoadEtiParams(Database* db, const std::string& eti_name);

}  // namespace fuzzymatch

#endif  // FUZZYMATCH_ETI_ETI_H_
