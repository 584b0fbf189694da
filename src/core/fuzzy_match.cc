#include "core/fuzzy_match.h"

#include <utility>

#include "common/logging.h"
#include "common/timer.h"
#include "obs/metrics.h"

namespace fuzzymatch {

namespace {

obs::Counter& MaintenanceRollbacksCounter() {
  static obs::Counter* c =
      obs::MetricsRegistry::Global().GetCounter("maintenance.rollbacks");
  return *c;
}

obs::Counter& MaintenanceRollbackFailuresCounter() {
  static obs::Counter* c = obs::MetricsRegistry::Global().GetCounter(
      "maintenance.rollback_failures");
  return *c;
}

obs::Counter& RebuildsCounter() {
  static obs::Counter* c =
      obs::MetricsRegistry::Global().GetCounter("eti.rebuilds");
  return *c;
}

obs::Counter& RebuildSideOpsCounter() {
  static obs::Counter* c =
      obs::MetricsRegistry::Global().GetCounter("eti.rebuild_side_ops");
  return *c;
}

// Query-time options that would make every query undefined. Checked before
// any build work starts.
Status ValidateConfig(const FuzzyMatchConfig& config) {
  if (config.matcher.k == 0) {
    return Status::InvalidArgument("matcher.k must be at least 1");
  }
  return Status::OK();
}

}  // namespace

Result<std::unique_ptr<FuzzyMatcher>> FuzzyMatcher::Assemble(
    Database* db, FuzzyMatchConfig config, Table* ref, BuiltEti built) {
  auto matcher = std::unique_ptr<FuzzyMatcher>(new FuzzyMatcher());
  matcher->config_ = std::move(config);
  matcher->config_.eti = built.eti.params();
  matcher->db_ = db;
  matcher->ref_ = ref;
  matcher->eti_ = std::make_unique<Eti>(std::move(built.eti));
  if (matcher->config_.accel_memory_bytes > 0) {
    FM_RETURN_IF_ERROR(matcher->eti_->AttachAccelerator(
        EtiAccelOptions{matcher->config_.accel_memory_bytes}));
  }
  matcher->weights_ = std::make_unique<IdfWeights>(std::move(built.weights));
  matcher->build_stats_ = built.stats;
  matcher->matcher_ = std::make_unique<EtiMatcher>(
      ref, matcher->eti_.get(), matcher->weights_.get(),
      matcher->config_.matcher);
  return matcher;
}

Result<std::unique_ptr<FuzzyMatcher>> FuzzyMatcher::Build(
    Database* db, const std::string& ref_table_name,
    FuzzyMatchConfig config) {
  FM_RETURN_IF_ERROR(ValidateConfig(config));
  FM_ASSIGN_OR_RETURN(Table * ref, db->GetTable(ref_table_name));

  EtiBuilder::Options build_options;
  build_options.params = config.eti;
  build_options.cache_kind = config.cache_kind;
  build_options.bounded_buckets = config.bounded_cache_buckets;
  build_options.sort_memory_bytes = config.sort_memory_bytes;
  build_options.temp_dir = config.temp_dir;
  build_options.build_threads = config.build_threads;
  FM_ASSIGN_OR_RETURN(BuiltEti built, EtiBuilder::Build(db, ref,
                                                        build_options));
  return Assemble(db, std::move(config), ref, std::move(built));
}

Result<std::unique_ptr<FuzzyMatcher>> FuzzyMatcher::Build(
    Database* db, const std::string& ref_table_name) {
  FuzzyMatchConfig config;
  return Build(db, ref_table_name, std::move(config));
}

Result<std::unique_ptr<FuzzyMatcher>> FuzzyMatcher::Open(
    Database* db, const std::string& ref_table_name,
    const std::string& strategy_name, FuzzyMatchConfig config) {
  FM_RETURN_IF_ERROR(ValidateConfig(config));
  FM_ASSIGN_OR_RETURN(Table * ref, db->GetTable(ref_table_name));
  FM_ASSIGN_OR_RETURN(
      BuiltEti built,
      EtiBuilder::Attach(db, ref, strategy_name, config.cache_kind,
                         config.bounded_cache_buckets));
  return Assemble(db, std::move(config), ref, std::move(built));
}

Result<std::unique_ptr<FuzzyMatcher>> FuzzyMatcher::Open(
    Database* db, const std::string& ref_table_name,
    const std::string& strategy_name) {
  FuzzyMatchConfig config;
  return Open(db, ref_table_name, strategy_name, std::move(config));
}

std::string FuzzyMatcher::EtiName() const {
  return ref_->name() + "_eti_" + eti_->params().StrategyName();
}

Result<Tid> FuzzyMatcher::InsertLocked(const Row& row) {
  FM_ASSIGN_OR_RETURN(const Tid tid, ref_->Insert(row));
  const Tokenizer tokenizer = eti_->MakeTokenizer();
  const TokenizedTuple tokens = tokenizer.TokenizeTuple(row);
  const Status indexed = eti_->IndexTuple(tid, tokens);
  if (!indexed.ok()) {
    // Roll the half-applied insert back so the tuple ends fully absent
    // (the all-or-nothing maintenance invariant, DESIGN.md 5e). The
    // caller may retry the whole insert; the tid is burned either way.
    MaintenanceRollbacksCounter().Increment();
    const Status unindexed = eti_->UnindexTuple(tid, tokens);
    if (!unindexed.ok() && !unindexed.IsNotFound()) {
      MaintenanceRollbackFailuresCounter().Increment();
      FM_LOG(Warning) << "rollback of partially indexed tuple " << tid
                      << " failed: " << unindexed;
    }
    const Status removed = ref_->Delete(tid);
    if (!removed.ok()) {
      MaintenanceRollbackFailuresCounter().Increment();
      FM_LOG(Warning) << "rollback delete of reference tuple " << tid
                      << " failed: " << removed;
    }
    matcher_->InvalidateCachedTuple(tid);
    return indexed;
  }
  matcher_->InvalidateCachedTuple(tid);
  return tid;
}

Result<Tid> FuzzyMatcher::InsertReferenceTuple(const Row& row) {
  std::unique_lock<std::mutex> lock(maint_mu_);
  maint_cv_.wait(lock, [this] { return !maint_blocked_; });
  if (db_ != nullptr) {
    db_->BeginMaintenance();
  }
  Result<Tid> result = InsertLocked(row);
  if (db_ != nullptr) {
    // Durable-ack: the insert counts only once its pages are in the log.
    // Whatever InsertLocked left in memory — the applied op or its
    // rollback residue — is what gets committed.
    const Status committed = db_->CommitMaintenance();
    if (!committed.ok()) {
      if (result.ok()) {
        // The op cannot be acknowledged; undo it in memory so the served
        // state stays aligned with the durable (pre-op) state, then
        // commit the rollback residue best-effort.
        MaintenanceRollbacksCounter().Increment();
        const Tokenizer tokenizer = eti_->MakeTokenizer();
        const Status unindexed =
            eti_->UnindexTuple(*result, tokenizer.TokenizeTuple(row));
        if (!unindexed.ok() && !unindexed.IsNotFound()) {
          MaintenanceRollbackFailuresCounter().Increment();
          FM_LOG(Warning) << "post-commit-failure unindex of tuple "
                          << *result << " failed: " << unindexed;
        }
        const Status removed = ref_->Delete(*result);
        if (!removed.ok()) {
          MaintenanceRollbackFailuresCounter().Increment();
          FM_LOG(Warning) << "post-commit-failure delete of tuple "
                          << *result << " failed: " << removed;
        }
        matcher_->InvalidateCachedTuple(*result);
        const Status residue = db_->CommitMaintenance();
        if (!residue.ok()) {
          FM_LOG(Warning) << "commit of insert rollback residue failed: "
                          << residue;
        }
      }
      return committed;
    }
  }
  if (result.ok() && capturing_) {
    side_log_.push_back(SideOp{/*add=*/true, *result, row});
  }
  return result;
}

Status FuzzyMatcher::RemoveLocked(Tid tid, Row* removed_row) {
  FM_ASSIGN_OR_RETURN(const Row row, ref_->Get(tid));
  const Tokenizer tokenizer = eti_->MakeTokenizer();
  const Status unindexed =
      eti_->UnindexTuple(tid, tokenizer.TokenizeTuple(row));
  // NotFound means a previous attempt already stripped every coordinate
  // before failing later in this function; finish the removal.
  if (!unindexed.ok() && !unindexed.IsNotFound()) {
    return unindexed;
  }
  matcher_->InvalidateCachedTuple(tid);
  FM_RETURN_IF_ERROR(ref_->Delete(tid));
  *removed_row = row;
  return Status::OK();
}

Status FuzzyMatcher::RemoveReferenceTuple(Tid tid) {
  std::unique_lock<std::mutex> lock(maint_mu_);
  maint_cv_.wait(lock, [this] { return !maint_blocked_; });
  if (db_ != nullptr) {
    db_->BeginMaintenance();
  }
  Row removed_row;
  const Status result = RemoveLocked(tid, &removed_row);
  if (db_ != nullptr) {
    const Status committed = db_->CommitMaintenance();
    if (!committed.ok()) {
      if (result.ok()) {
        // Unacknowledgeable removal: resurrect the tuple (it gets a fresh
        // tid — tids are never reused) so the in-memory state matches the
        // durable one by content, then commit the residue best-effort.
        MaintenanceRollbacksCounter().Increment();
        const Result<Tid> restored = InsertLocked(removed_row);
        if (!restored.ok()) {
          MaintenanceRollbackFailuresCounter().Increment();
          FM_LOG(Warning) << "post-commit-failure resurrection of tuple "
                          << tid << " failed: " << restored.status();
        }
        const Status residue = db_->CommitMaintenance();
        if (!residue.ok()) {
          FM_LOG(Warning) << "commit of removal rollback residue failed: "
                          << residue;
        }
      }
      return committed;
    }
  }
  if (result.ok() && capturing_) {
    side_log_.push_back(SideOp{/*add=*/false, tid, removed_row});
  }
  return result;
}

Status FuzzyMatcher::ReplaySideOp(Eti* target, const SideOp& op) {
  const Tokenizer tokenizer = target->MakeTokenizer();
  const TokenizedTuple tokens = tokenizer.TokenizeTuple(op.row);
  if (op.add) {
    return target->IndexTuple(op.tid, tokens);
  }
  const Status unindexed = target->UnindexTuple(op.tid, tokens);
  // NotFound: the tuple was inserted and removed inside the capture
  // window and the scan saw neither — nothing to strip.
  if (!unindexed.ok() && !unindexed.IsNotFound()) {
    return unindexed;
  }
  return Status::OK();
}

Result<EtiRebuildStats> FuzzyMatcher::RebuildEti() {
  if (db_ == nullptr) {
    return Status::NotSupported("matcher has no database attached");
  }
  {
    std::lock_guard<std::mutex> lock(maint_mu_);
    if (rebuild_active_) {
      return Status::AlreadyExists("an ETI rebuild is already running");
    }
    rebuild_active_ = true;
    // Maintenance must not mutate the reference relation under the
    // builder's scan; it resumes (captured) once the scan finishes.
    maint_blocked_ = true;
    capturing_ = true;
    side_log_.clear();
  }
  RebuildsCounter().Increment();
  Timer timer;

  const std::string live_name = EtiName();
  const std::string shadow_name =
      live_name + std::string(kRebuildNameSuffix);

  auto fail = [&](Status status) -> Status {
    {
      std::lock_guard<std::mutex> lock(maint_mu_);
      maint_blocked_ = false;
      capturing_ = false;
      rebuild_active_ = false;
      side_log_.clear();
    }
    maint_cv_.notify_all();
    // Best-effort drop of the half-built shadow; whatever survives a
    // crash here is swept by the next Open().
    (void)db_->DropTable(shadow_name);
    (void)db_->DropIndex(shadow_name + "_idx");
    (void)db_->DropTable(shadow_name + "_meta");
    FM_LOG(Warning) << "online ETI rebuild failed: " << status;
    return status;
  };

  EtiBuilder::Options opts;
  opts.params = eti_->params();
  opts.cache_kind = config_.cache_kind;
  opts.bounded_buckets = config_.bounded_cache_buckets;
  opts.sort_memory_bytes = config_.sort_memory_bytes;
  opts.temp_dir = config_.temp_dir;
  opts.build_threads = config_.build_threads;
  opts.output_name = shadow_name;
  opts.on_scan_complete = [this] {
    {
      std::lock_guard<std::mutex> lock(maint_mu_);
      maint_blocked_ = false;
    }
    maint_cv_.notify_all();
  };

  Result<BuiltEti> built = EtiBuilder::Build(db_, ref_, opts);
  if (!built.ok()) {
    return fail(built.status());
  }

  EtiRebuildStats stats;
  stats.build = built->stats;

  // First replay pass, without blocking maintenance: drain the side ops
  // captured so far onto the shadow index.
  size_t replayed = 0;
  for (;;) {
    SideOp op;
    {
      std::lock_guard<std::mutex> lock(maint_mu_);
      if (replayed >= side_log_.size()) {
        break;
      }
      op = side_log_[replayed];
    }
    const Status s = ReplaySideOp(&built->eti, op);
    if (!s.ok()) {
      return fail(s);
    }
    ++replayed;
  }

  // Re-seed the read accelerator over the shadow rows (still unlocked —
  // a full scan). Attached to the shadow handle first so the final
  // replay pass below keeps it coherent via InvalidateAccel.
  if (config_.accel_memory_bytes > 0) {
    const Status attached = built->eti.AttachAccelerator(
        EtiAccelOptions{config_.accel_memory_bytes});
    if (!attached.ok()) {
      return fail(attached);
    }
  }

  // Swap window: block new maintenance, drain the side-log tail, install
  // the shadow storage, move the catalog names, checkpoint. Queries keep
  // flowing throughout — they read whichever storage snapshot they
  // loaded.
  std::unique_lock<std::mutex> lock(maint_mu_);
  capturing_ = false;
  for (; replayed < side_log_.size(); ++replayed) {
    const Status s = ReplaySideOp(&built->eti, side_log_[replayed]);
    if (!s.ok()) {
      lock.unlock();
      return fail(s);
    }
  }
  stats.side_ops_replayed = side_log_.size();
  RebuildSideOpsCounter().Increment(side_log_.size());
  side_log_.clear();

  eti_->SwapStorageFrom(built->eti);

  // Catalog half of the swap: the live names move to the shadow objects;
  // the old objects are retired (kept alive for in-flight readers) and a
  // checkpoint makes it all durable. A crash before the checkpoint
  // completes leaves either the old catalog (shadow swept at Open) or
  // the new one — never a mix, per the checkpoint ordering contract.
  Status swap_status = Status::OK();
  const auto step = [&](Status s) {
    if (swap_status.ok() && !s.ok()) {
      swap_status = s;
    }
  };
  step(db_->RetireTable(live_name));
  step(db_->RetireIndex(live_name + "_idx"));
  step(db_->RetireTable(live_name + "_meta"));
  step(db_->RenameTable(shadow_name, live_name));
  step(db_->RenameIndex(shadow_name + "_idx", live_name + "_idx"));
  step(db_->RenameTable(shadow_name + "_meta", live_name + "_meta"));
  step(db_->Checkpoint());
  rebuild_active_ = false;
  lock.unlock();
  maint_cv_.notify_all();
  if (!swap_status.ok()) {
    FM_LOG(Warning) << "online ETI rebuild: catalog swap: " << swap_status;
    return swap_status;
  }

  stats.total_seconds = timer.ElapsedSeconds();
  return stats;
}

}  // namespace fuzzymatch
