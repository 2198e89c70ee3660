// Durable-EDB startup recovery (DESIGN.md §15).
//
// Bridges durability::DurableEdb and QueryService: installs the newest
// compacted snapshot, then replays the fact-log tail through the
// service's normal parse/intern/publish path — the same interning
// sequence the original loads performed, so a recovered daemon answers
// byte-identically to one that never died. The daemon.recover_replay
// fault site fires once per replayed record.

#ifndef EXDL_SERVICE_EDB_RECOVERY_H_
#define EXDL_SERVICE_EDB_RECOVERY_H_

#include "durability/durable_edb.h"
#include "service/query_service.h"
#include "util/status.h"

namespace exdl {

/// Recovers `edb` (already Open()ed) into the fresh `service`. On success
/// the service's snapshot generation equals the last logged load and the
/// edb's replay/recovery-time counters are updated; call
/// QueryService::AttachDurability afterwards to resume logging. Any
/// replay failure — unparseable record, generation mismatch — fails
/// closed with kCorruptCheckpoint.
Status RecoverDurableEdb(durability::DurableEdb& edb, QueryService& service);

}  // namespace exdl

#endif  // EXDL_SERVICE_EDB_RECOVERY_H_
